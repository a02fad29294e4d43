package engine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// globalSet is an 80-task set at utilization 4.4 with 10–100 ms
// periods: global dispatch on 8 cores, with constant preemption and
// migration.
func globalSet(t *testing.T) *taskset.Set {
	t.Helper()
	g := taskset.NewGenerator(19)
	g.PeriodMin, g.PeriodMax = ms(10), ms(100)
	set, err := g.Generate(80, 4.4)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestStreamSteadyStateAllocFree pins the typed event loop's central
// property: once warm, a streaming run allocates nothing per event.
// Two identical configurations differing only in horizon are measured
// with testing.AllocsPerRun; the longer run simulates thousands of
// extra events — releases, completions, deadline checks, preemptions,
// stop-limited jobs through the fault plan on a uniprocessor,
// migrations under global dispatch on 8 cores — and must not allocate
// more than a fixed handful beyond the shorter one (slice-capacity
// settling), i.e. ~0 allocs/event.
func TestStreamSteadyStateAllocFree(t *testing.T) {
	global := globalSet(t)
	for _, tc := range []struct {
		name        string
		cfg         func() Config
		short, long vtime.Time
		extra       float64 // events the long run adds, roughly
	}{
		{"uniprocessor", func() Config {
			return Config{
				Tasks:  table2WithOffset(),
				Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
			}
		}, at(10_000), at(60_000), 2250},
		{"global-c8", func() Config {
			return Config{Tasks: global, CPUs: 8}
		}, at(2_000), at(6_000), 50_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perHorizon := func(end vtime.Time) float64 {
				return testing.AllocsPerRun(5, func() {
					cfg := tc.cfg()
					cfg.End, cfg.Collect, cfg.Sink = end, Stream, trace.Discard
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.Run()
				})
			}
			short, long := perHorizon(tc.short), perHorizon(tc.long)
			// Allow a few allocs of slack for amortized container growth
			// crossing the boundary.
			const slack = 8
			if long > short+slack {
				t.Errorf("steady state allocates: %.0f allocs at %v vs %.0f at %v (+%.3f per extra event)",
					short, tc.short, long, tc.long, (long-short)/tc.extra)
			}
		})
	}
}

// TestHeapBoundedByLiveWork pins the cancellation rework: after a
// long soak the event heap holds only live entries — one deadline
// check per pending job, one release per task, at most one completion
// prediction per core — instead of growing with stale epoch-guarded
// events.
func TestHeapBoundedByLiveWork(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		maxSlots int
	}{
		{"uniprocessor", Config{
			Tasks:  table2WithOffset(),
			Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 0, K: 2, Extra: ms(45)}},
			End:    at(120_000),
		}, 64},
		{"global-c8", Config{Tasks: globalSet(t), CPUs: 8, End: at(20_000)}, 2 * 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records := map[*Job]bool{}
			tc.cfg.Hooks.OnRelease = func(_ *Engine, j *Job) { records[j] = true }
			e, _ := run(t, tc.cfg)
			live := 0
			for _, ts := range e.tasks {
				live += ts.live()
			}
			bound := live + len(e.tasks) + e.cpus
			if len(e.heap) > bound {
				t.Errorf("heap holds %d events after the soak, want <= %d (%d live jobs + %d release timers + %d completions)",
					len(e.heap), bound, live, len(e.tasks), e.cpus)
			}
			// The deadline-slot table is recycled alongside: it must be
			// bounded by the peak backlog, not the number of released
			// jobs.
			if len(e.jobSlots) > tc.maxSlots {
				t.Errorf("jobSlots grew to %d entries over %d releases", len(e.jobSlots), e.tasks[0].nextQ)
			}
			// So are the Job records the releases draw from the pool.
			if len(records) > tc.maxSlots {
				t.Errorf("releases used %d distinct Job records over %d releases of %s", len(records), e.tasks[0].nextQ, e.tasks[0].task.Name)
			}
		})
	}
}

// TestReadyJobsReusesScratch: ReadyJobs must not allocate per call —
// the value policies invoke it on every release and watchdog check.
func TestReadyJobsReusesScratch(t *testing.T) {
	e, err := New(Config{Tasks: table2WithOffset(), End: at(1000)})
	if err != nil {
		t.Fatal(err)
	}
	// Stop at 50 ms: tau1 and tau2 have live head jobs then.
	var allocs float64
	e.Schedule(at(50), func(now vtime.Time) {
		first := e.ReadyJobs()
		if len(first) == 0 {
			t.Fatal("no ready jobs at 50ms")
		}
		allocs = testing.AllocsPerRun(100, func() {
			if len(e.ReadyJobs()) != len(first) {
				t.Fatal("ready set changed between calls")
			}
		})
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("ReadyJobs allocates %.1f times per call, want 0", allocs)
	}
}

// TestJobAtStreamBinarySearch: JobAt must resolve any live job of a
// deep backlog (and reject absent indices) — the indexed replacement
// for the linear pending scan, the same in both collection modes.
func TestJobAtStreamBinarySearch(t *testing.T) {
	// An overloaded low-priority task accumulates a long backlog.
	set := taskset.MustNew(
		taskset.Task{Name: "hog", Priority: 10, Period: ms(10), Deadline: ms(10), Cost: ms(9)},
		taskset.Task{Name: "bg", Priority: 5, Period: ms(30), Deadline: ms(3000), Cost: ms(20)},
	)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			e, err := New(Config{Tasks: set, End: at(3000), Collect: m.mode, Sink: trace.Discard})
			if err != nil {
				t.Fatal(err)
			}
			checked := false
			e.Schedule(at(2900), func(now vtime.Time) {
				ts := e.byName["bg"]
				if ts.live() < 10 {
					t.Fatalf("backlog too small for the test: %d", ts.live())
				}
				lo, hi := ts.head().Q, ts.pending[len(ts.pending)-1].Q
				for q := lo; q <= hi; q++ {
					j, ok := e.JobAt("bg", q)
					if !ok || j.Q != q {
						t.Fatalf("live job bg#%d not resolved (ok=%v)", q, ok)
					}
				}
				if _, ok := e.JobAt("bg", lo-1); lo > 0 && ok {
					t.Error("consumed job must not resolve")
				}
				if _, ok := e.JobAt("bg", hi+1); ok {
					t.Error("unreleased job must not resolve")
				}
				checked = true
			})
			e.Run()
			if !checked {
				t.Fatal("backlog check never ran")
			}
		})
	}
}
