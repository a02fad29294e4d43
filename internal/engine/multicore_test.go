package engine

import (
	"bytes"
	"testing"

	"repro/internal/taskset"
	"repro/internal/trace"
)

// threeForTwoCores: a high-priority short task plus two long tasks,
// sized so global dispatch on two cores preempts the low task on core
// 0 and later resumes it on core 1 — the minimal migration witness.
func threeForTwoCores() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 3, Period: ms(50), Deadline: ms(50), Cost: ms(20)},
		taskset.Task{Name: "mid", Priority: 2, Period: ms(200), Deadline: ms(200), Cost: ms(60)},
		taskset.Task{Name: "lo", Priority: 1, Period: ms(200), Deadline: ms(200), Cost: ms(60)},
	)
}

func kinds(log *trace.Log, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range log.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestGlobalDispatchRunsTwoJobsInParallel(t *testing.T) {
	_, log, rep := runJobs(t, Config{Tasks: threeForTwoCores(), End: at(100), CPUs: 2})
	// t=0: hi begins on core 0, mid on core 1 — in policy-rank order.
	begins := kinds(log, trace.JobBegin)
	if len(begins) < 2 {
		t.Fatalf("want ≥2 begins, got %v", begins)
	}
	if begins[0].Task != "hi" || begins[0].Arg != 0 {
		t.Errorf("first begin = %+v, want hi on core 0", begins[0])
	}
	if begins[1].Task != "mid" || begins[1].Arg != 1 {
		t.Errorf("second begin = %+v, want mid on core 1", begins[1])
	}
	// With 140 ms of work on two cores nothing misses in 100 ms. The
	// log holds hi#0..2 (released at 0, 50, 100), mid#0 and lo#0.
	if len(rep.Jobs) != 5 {
		t.Fatalf("log holds %d jobs, want 5", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Failed() {
			t.Errorf("%s#%d failed on a 2-core platform", j.Task, j.Q)
		}
	}
}

func TestGlobalDispatchMigratesPreemptedJob(t *testing.T) {
	// lo begins on core 0 at t=20 (after hi#0), is preempted there by
	// hi#1 at t=50, and when mid completes core 1 at t=60 the global
	// dispatcher resumes lo on core 1: a migration.
	_, log := run(t, Config{Tasks: threeForTwoCores(), End: at(100), CPUs: 2})
	migs := kinds(log, trace.JobMigrate)
	if len(migs) != 1 {
		t.Fatalf("want exactly one migration, got %v", migs)
	}
	m := migs[0]
	if m.Task != "lo" || m.At != at(60) || m.Arg != 1 {
		t.Errorf("migration = %+v, want lo at t=60ms onto core 1", m)
	}
	// The preemption it resumes from names core 0.
	for _, p := range kinds(log, trace.JobPreempt) {
		if p.Task == "lo" && p.Arg != 0 {
			t.Errorf("lo preempted on core %d, want 0", p.Arg)
		}
	}
}

func TestPartitionedDispatchPinsTasks(t *testing.T) {
	// hi+lo pinned to core 0, mid to core 1: lo waits behind hi on
	// core 0 even while core 1 idles after mid completes, and nothing
	// ever migrates.
	_, log, rep := runJobs(t, Config{
		Tasks:     threeForTwoCores(),
		End:       at(200),
		CPUs:      2,
		Partition: []int{0, 1, 0},
	})
	if n := kinds(log, trace.JobMigrate); len(n) != 0 {
		t.Errorf("partitioned run migrated: %v", n)
	}
	core := map[string]int64{"hi": 0, "mid": 1, "lo": 0}
	for _, ev := range log.Events() {
		switch ev.Kind {
		case trace.JobBegin, trace.JobResume, trace.JobPreempt:
			if ev.Arg != core[ev.Task] {
				t.Errorf("%s dispatched on core %d, want %d: %+v", ev.Task, ev.Arg, core[ev.Task], ev)
			}
		}
	}
	// lo still completes (300 ms of pinned work fits a 200 ms horizon
	// on core 0: hi uses 20/50ms, leaving 30 ms/period for lo).
	if j := job(t, rep, "lo", 0); !ended(j) || j.Failed() {
		t.Errorf("lo#0 did not complete cleanly on its pinned core: %+v", j)
	}
}

func TestSingleCoreExplicitCPUsIsByteIdentical(t *testing.T) {
	// CPUs=1 must produce the historical single-slot trace exactly —
	// core 0 encodes as an absent arg.
	_, legacy := run(t, Config{Tasks: table2WithOffset(), End: at(3000), ContextSwitch: ms(1)})
	_, explicit := run(t, Config{Tasks: table2WithOffset(), End: at(3000), ContextSwitch: ms(1), CPUs: 1})
	if legacy.EncodeString() != explicit.EncodeString() {
		t.Fatal("CPUs=1 trace differs from the implicit uniprocessor trace")
	}
}

func TestPartitionValidation(t *testing.T) {
	set := threeForTwoCores()
	if _, err := New(Config{Tasks: set, End: at(100), CPUs: 2, Partition: []int{0, 1}}); err == nil {
		t.Error("short partition accepted")
	}
	if _, err := New(Config{Tasks: set, End: at(100), CPUs: 2, Partition: []int{0, 1, 2}}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := New(Config{Tasks: set, End: at(100), CPUs: -1}); err == nil {
		t.Error("negative CPUs accepted")
	}
}

func TestAddTaskRejectedUnderPartitionedDispatch(t *testing.T) {
	e, err := New(Config{Tasks: threeForTwoCores(), End: at(100), CPUs: 2, Partition: []int{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	add := taskset.Task{Name: "late", Priority: 9, Period: ms(100), Deadline: ms(100), Cost: ms(10)}
	if err := e.AddTask(add, nil, 0); err == nil {
		t.Error("AddTask accepted under partitioned dispatch")
	}
	// Global M-core dispatch admits dynamically.
	g, err := New(Config{Tasks: threeForTwoCores(), End: at(100), CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddTask(add, nil, 0); err != nil {
		t.Errorf("AddTask under global dispatch: %v", err)
	}
}

func TestMulticoreCheckpointSplitEqualsUnsplit(t *testing.T) {
	for _, tc := range []struct {
		name      string
		partition []int
	}{
		{"global", nil},
		{"partitioned", []int{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Tasks: threeForTwoCores(), End: at(400), CPUs: 2, Partition: tc.partition, Collect: Stream}
			var whole, stitched bytes.Buffer
			eng, err := New(withSink(cfg, &whole))
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()

			first, err := New(withSink(cfg, &stitched))
			if err != nil {
				t.Fatal(err)
			}
			if err := first.RunUntil(at(130)); err != nil {
				t.Fatal(err)
			}
			cp, err := first.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			second, err := New(withSink(cfg, &stitched))
			if err != nil {
				t.Fatal(err)
			}
			if err := second.Restore(cp); err != nil {
				t.Fatal(err)
			}
			second.Run()
			if whole.String() != stitched.String() {
				t.Error("split 2-core run diverges from the unsplit run")
			}
		})
	}
}

// withSink clones cfg with a flushed-per-event writer sink attached.
func withSink(cfg Config, b *bytes.Buffer) Config {
	cfg.Sink = flushingSink{trace.NewWriterSink(b)}
	return cfg
}

// flushingSink flushes after every event so buffer comparison never
// races the WriterSink's internal buffering.
type flushingSink struct{ w *trace.WriterSink }

func (f flushingSink) Append(e trace.Event) {
	f.w.Append(e)
	_ = f.w.Flush()
}
