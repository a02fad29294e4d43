package engine

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ffSet is an eligible workload whose transient outlasts a whole
// hyperperiod: H = lcm(20, 50, 100) = 100ms, but t2's offset delays
// its first release past the second boundary, so the steady state
// cannot be proven before t = 300ms.
func ffSet() *taskset.Set {
	return &taskset.Set{Tasks: []taskset.Task{
		{Name: "t1", Priority: 3, Period: ms(20), Deadline: ms(20), Cost: ms(5), Offset: ms(5)},
		{Name: "t2", Priority: 2, Period: ms(50), Deadline: ms(50), Cost: ms(10), Offset: ms(230)},
		{Name: "t3", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(20)},
	}}
}

// runPair runs the same configuration with fast-forward off and on
// (each with its own accumulator) and returns both engines and
// accumulators. The caller sets everything except Sink, Observer and
// FastForward.
func runPair(t *testing.T, cfg Config) (full, ff *Engine, fullAcc, ffAcc *metrics.Accumulator) {
	t.Helper()
	fullAcc = metrics.NewAccumulator()
	c := cfg
	c.Sink = fullAcc
	var err error
	if full, err = New(c); err != nil {
		t.Fatalf("full engine: %v", err)
	}
	full.Run()

	ffAcc = metrics.NewAccumulator()
	c = cfg
	c.Sink = ffAcc
	c.Observer = ffAcc
	c.FastForward = true
	if ff, err = New(c); err != nil {
		t.Fatalf("fast-forward engine: %v", err)
	}
	ff.Run()
	return full, ff, fullAcc, ffAcc
}

// compareRuns asserts the fast-forwarded run reproduced the full run
// exactly on every summary field, the switch counter, the clock and
// the live backlog.
func compareRuns(t *testing.T, full, ff *Engine, fullAcc, ffAcc *metrics.Accumulator) {
	t.Helper()
	if full.Now() != ff.Now() {
		t.Fatalf("clock diverged: full %v, fast-forward %v", full.Now(), ff.Now())
	}
	if full.Switches() != ff.Switches() {
		t.Errorf("switches diverged: full %d, fast-forward %d", full.Switches(), ff.Switches())
	}
	if fullAcc.Live() != ffAcc.Live() {
		t.Errorf("live backlog diverged: full %d, fast-forward %d", fullAcc.Live(), ffAcc.Live())
	}
	fullRep, ffRep := fullAcc.Report(), ffAcc.Report()
	if len(fullRep.Tasks) != len(ffRep.Tasks) {
		t.Fatalf("task count diverged: full %d, fast-forward %d", len(fullRep.Tasks), len(ffRep.Tasks))
	}
	for name, fs := range fullRep.Tasks {
		xs := ffRep.Tasks[name]
		if xs == nil {
			t.Fatalf("task %s missing from fast-forward report", name)
		}
		if *fs != *xs {
			t.Errorf("task %s summary diverged:\nfull: %+v\nff:   %+v", name, *fs, *xs)
		}
	}
}

// TestFastForwardMatchesFullRun covers the tentpole contract on a set
// whose transient exceeds one hyperperiod and whose horizon is not a
// multiple of the cycle (the jump must land and resume a partial tail).
func TestFastForwardMatchesFullRun(t *testing.T) {
	cfg := Config{Tasks: ffSet(), End: at(10_037)}
	full, ff, fullAcc, ffAcc := runPair(t, cfg)
	if ff.SkippedCycles() == 0 {
		t.Fatal("fast-forward never engaged on an eligible steady-state run")
	}
	// The first boundary (100ms) cannot match the second (200ms): t2's
	// pending first release sits 130ms ahead of one and 30ms ahead of
	// the other. Earliest detection is therefore the third boundary,
	// capping the jump at horizon/H − 3 cycles.
	if max := int64(10_037/100) - 3; ff.SkippedCycles() > max {
		t.Errorf("skipped %d cycles, transient allows at most %d", ff.SkippedCycles(), max)
	}
	compareRuns(t, full, ff, fullAcc, ffAcc)
}

// TestFastForwardContextSwitchCost: the per-dispatch overhead charge
// is deterministic state and must survive the jump.
func TestFastForwardContextSwitchCost(t *testing.T) {
	cfg := Config{Tasks: ffSet(), End: at(5_000), ContextSwitch: vtime.Micros(50)}
	full, ff, fullAcc, ffAcc := runPair(t, cfg)
	if ff.SkippedCycles() == 0 {
		t.Fatal("fast-forward never engaged")
	}
	compareRuns(t, full, ff, fullAcc, ffAcc)
}

// eventRecorder captures the raw event stream for byte-level
// comparisons.
type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Append(e trace.Event) { r.events = append(r.events, e) }

// TestFastForwardShortHorizonIsFullRun: a horizon shorter than two
// hyperperiods can never prove a cycle — the run must degrade to a
// plain full simulation with an identical event stream (K = 0).
func TestFastForwardShortHorizonIsFullRun(t *testing.T) {
	for _, horizon := range []int64{150, 199} {
		plain := &eventRecorder{}
		e1, err := New(Config{Tasks: ffSet(), End: at(horizon), Sink: plain})
		if err != nil {
			t.Fatal(err)
		}
		e1.Run()
		rec := &eventRecorder{}
		e2, err := New(Config{Tasks: ffSet(), End: at(horizon), Sink: rec, FastForward: true})
		if err != nil {
			t.Fatal(err)
		}
		e2.Run()
		if e2.SkippedCycles() != 0 {
			t.Fatalf("horizon %dms: skipped %d cycles inside a sub-2H horizon", horizon, e2.SkippedCycles())
		}
		if len(plain.events) != len(rec.events) {
			t.Fatalf("horizon %dms: %d events plain, %d fast-forward", horizon, len(plain.events), len(rec.events))
		}
		for i := range plain.events {
			if plain.events[i] != rec.events[i] {
				t.Fatalf("horizon %dms: event %d diverged: %+v vs %+v", horizon, i, plain.events[i], rec.events[i])
			}
		}
	}
}

// TestFastForwardOneShotTimerDelaysDetection: an external timer in
// flight poisons the boundaries it spans — the previous fingerprint is
// discarded — but once it pops, detection resumes.
func TestFastForwardOneShotTimerDelaysDetection(t *testing.T) {
	fired := 0
	cfg := Config{Tasks: ffSet(), End: at(10_000)}
	ffAcc := metrics.NewAccumulator()
	e, err := New(Config{Tasks: cfg.Tasks, End: cfg.End,
		Sink: ffAcc, Observer: ffAcc, FastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	// In flight across boundaries 100..500, popping at 550.
	e.Schedule(vtime.AtMillis(550), func(vtime.Time) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if e.SkippedCycles() == 0 {
		t.Fatal("detection never resumed after the one-shot timer popped")
	}
	// ≥ 2 clean boundaries after 550ms are needed before a jump, so no
	// more than horizon/H − 7 cycles can be skipped.
	if max := int64(10_000/100) - 7; e.SkippedCycles() > max {
		t.Errorf("skipped %d cycles, timer poisons boundaries through 500ms (max %d)", e.SkippedCycles(), max)
	}

	fullAcc := metrics.NewAccumulator()
	f, err := New(Config{Tasks: cfg.Tasks, End: cfg.End, Sink: fullAcc})
	if err != nil {
		t.Fatal(err)
	}
	f.Schedule(vtime.AtMillis(550), func(vtime.Time) {})
	f.Run()
	compareRuns(t, f, e, fullAcc, ffAcc)
}

// TestFastForwardRearmingTimerSuppresses: a timer that always re-arms
// keeps a callback in flight at every boundary, so fast-forward never
// engages and the run is a plain full simulation.
func TestFastForwardRearmingTimerSuppresses(t *testing.T) {
	acc := metrics.NewAccumulator()
	e, err := New(Config{Tasks: ffSet(), End: at(3_000),
		Sink: acc, Observer: acc, FastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	var rearm func(now vtime.Time)
	rearm = func(now vtime.Time) { e.Schedule(now.Add(ms(60)), rearm) }
	e.Schedule(vtime.AtMillis(60), rearm)
	e.Run()
	if e.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with a permanently re-arming timer", e.SkippedCycles())
	}
}

// TestFastForwardAbandonedOnDynamicAdmission: AddTask mid-run changes
// the task system the hyperperiod was computed from; fast-forward must
// abandon permanently and still match the full run.
func TestFastForwardAbandonedOnDynamicAdmission(t *testing.T) {
	extra := taskset.Task{Name: "late", Priority: 4, Period: ms(25), Deadline: ms(25), Cost: ms(2)}
	addAt := vtime.AtMillis(450)

	fullAcc := metrics.NewAccumulator()
	full, err := New(Config{Tasks: ffSet(), End: at(4_000), Sink: fullAcc})
	if err != nil {
		t.Fatal(err)
	}
	full.Schedule(addAt, func(now vtime.Time) {
		if err := full.AddTask(extra, nil, now); err != nil {
			t.Errorf("AddTask: %v", err)
		}
	})
	full.Run()

	ffAcc := metrics.NewAccumulator()
	ff, err := New(Config{Tasks: ffSet(), End: at(4_000),
		Sink: ffAcc, Observer: ffAcc, FastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	ff.Schedule(addAt, func(now vtime.Time) {
		if err := ff.AddTask(extra, nil, now); err != nil {
			t.Errorf("AddTask: %v", err)
		}
	})
	ff.Run()
	if ff.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles after dynamic admission", ff.SkippedCycles())
	}
	compareRuns(t, full, ff, fullAcc, ffAcc)
}

// TestFastForwardMulticore: global and partitioned dispatch on two
// cores both reach a steady state and extrapolate it faithfully.
func TestFastForwardMulticore(t *testing.T) {
	set := &taskset.Set{Tasks: []taskset.Task{
		{Name: "m1", Priority: 4, Period: ms(20), Deadline: ms(20), Cost: ms(9)},
		{Name: "m2", Priority: 3, Period: ms(25), Deadline: ms(25), Cost: ms(11), Offset: ms(3)},
		{Name: "m3", Priority: 2, Period: ms(50), Deadline: ms(50), Cost: ms(17), Offset: ms(7)},
		{Name: "m4", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(21)},
	}}
	for _, tc := range []struct {
		name      string
		partition []int
	}{
		{"global", nil},
		{"partitioned", []int{0, 1, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Tasks: set, End: at(7_031), CPUs: 2, Partition: tc.partition}
			full, ff, fullAcc, ffAcc := runPair(t, cfg)
			if ff.SkippedCycles() == 0 {
				t.Fatal("fast-forward never engaged")
			}
			compareRuns(t, full, ff, fullAcc, ffAcc)
		})
	}
}

// TestFastForwardEligibility pins the static refusals.
func TestFastForwardEligibility(t *testing.T) {
	base := func() Config {
		return Config{Tasks: ffSet(), End: at(1_000), FastForward: true}
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"faults", func(c *Config) {
			c.Faults = fault.Plan{"t1": fault.OverrunEvery{K: 3, Extra: ms(1)}}
		}, "fault plan"},
		{"jitter", func(c *Config) { c.StopJitterMax = ms(1) }, "stop jitter"},
		{"hyperperiod", func(c *Config) {
			c.Tasks = &taskset.Set{Tasks: []taskset.Task{
				{Name: "h1", Priority: 2, Period: vtime.Duration(1<<31 + 1), Deadline: vtime.Duration(1<<31 + 1), Cost: 1},
				{Name: "h2", Priority: 1, Period: vtime.Duration(1<<31 + 3), Deadline: vtime.Duration(1<<31 + 3), Cost: 1},
			}}
		}, "hyperperiod"},
	} {
		cfg := base()
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(base()); err != nil {
		t.Errorf("eligible config rejected: %v", err)
	}
}
