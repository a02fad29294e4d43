package engine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// sinks names the two ways a run's events can leave the engine, for
// table-driven tests: into a retained log or nowhere. The engine has
// one event path, so its behaviour must not depend on which.
var sinks = []struct {
	name string
	sink func() trace.Sink
}{{"retain", func() trace.Sink { return trace.NewLog() }}, {"stream", func() trace.Sink { return nil }}}

// runBare runs cfg to the horizon with cfg's own sink alone.
func runBare(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return e
}

// TestStreamRecyclesJobs: whatever the sink, no finished job survives
// — JobAt resolves live jobs only — while live jobs stay reachable for
// the detectors' StopJob path.
func TestStreamRecyclesJobs(t *testing.T) {
	for _, m := range sinks {
		t.Run(m.name, func(t *testing.T) {
			live := 0
			cfg := Config{
				Tasks: table2WithOffset(),
				End:   at(3000),
				Sink:  m.sink(),
				Hooks: Hooks{
					OnRelease: func(e *Engine, j *Job) {
						if jj, ok := e.JobAt(j.TaskName(), j.Q); ok && jj == j {
							live++
						}
					},
				},
			}
			e := runBare(t, cfg)
			// Every release up to 3000 ms resolves while live: 16 of
			// tau1, 13 of tau2, 2 of tau3.
			if live != 31 {
				t.Errorf("%d released jobs resolved through JobAt while live, want 31", live)
			}
			for _, name := range e.TaskNames() {
				if _, ok := e.JobAt(name, 0); ok {
					t.Errorf("finished job %s#0 still resolves", name)
				}
			}
		})
	}
}

// TestJobRecordsBoundedByLiveBacklog: whatever the sink, the engine
// hands out Job records from its pool, so a long run touches about as
// many distinct records as were ever live at once, not one per
// released job.
func TestJobRecordsBoundedByLiveBacklog(t *testing.T) {
	for _, m := range sinks {
		t.Run(m.name, func(t *testing.T) {
			seen := map[*Job]bool{}
			released, peak := 0, 0
			cfg := Config{
				Tasks:  table2WithOffset(),
				Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
				End:    at(600_000),
				Sink:   m.sink(),
				Hooks: Hooks{
					OnRelease: func(e *Engine, j *Job) {
						released++
						seen[j] = true
						live := 0
						for _, ts := range e.tasks {
							live += ts.live()
						}
						peak = max(peak, live)
					},
				},
			}
			runBare(t, cfg)
			// 3001 + 2401 + 400 releases over ten minutes.
			if released != 5802 {
				t.Fatalf("saw %d releases, want 5802", released)
			}
			if len(seen) > peak+64 {
				t.Errorf("%d distinct Job records over %d releases, want at most the peak backlog %d + 64", len(seen), released, peak)
			}
		})
	}
}

// TestPendingQueueCompacts: consuming the pending queue must not pin
// the popped prefix. An overloaded task (cost > period, no admission
// here) accumulates a backlog; the consumed prefix must still be
// compacted away rather than re-sliced into a growing dead zone.
func TestPendingQueueCompacts(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "hog", Priority: 10, Period: ms(10), Deadline: ms(10), Cost: ms(9)},
		taskset.Task{Name: "bg", Priority: 5, Period: ms(100), Deadline: ms(100), Cost: ms(5)},
	)
	e, _ := run(t, Config{Tasks: set, End: at(20000)})
	for _, ts := range e.tasks {
		// After a run every released job of a schedulable task is
		// done; head() must have compacted them all out.
		if h := ts.head(); h == nil && len(ts.pending) != 0 {
			t.Errorf("%s: %d done jobs left in pending", ts.task.Name, len(ts.pending))
		}
		// The queue never held more than the small live window, so
		// its backing array must not have grown with the horizon
		// (2000 hog jobs released).
		if cap(ts.pending) > 64 {
			t.Errorf("%s: pending capacity %d grew with the horizon", ts.task.Name, cap(ts.pending))
		}
	}
}

// TestPendingPrefixNiledOut: consuming the head nils the vacated slot
// at once (so finished jobs are collectible or poolable while the
// array is reused) and the consumed prefix is compacted away once it
// dominates the array.
func TestPendingPrefixNiledOut(t *testing.T) {
	ts := &taskState{task: taskset.Task{Name: "x"}}
	jobs := make([]*Job, 100)
	for i := range jobs {
		jobs[i] = &Job{task: ts, Q: int64(i)}
	}
	ts.pending = append([]*Job(nil), jobs...)
	for i := 0; i < 3; i++ {
		if got := ts.popFront(); got != jobs[i] {
			t.Fatalf("popFront #%d = %v, want job %d", i, got, i)
		}
	}
	if h := ts.head(); h != jobs[3] {
		t.Fatalf("head = %v, want job 3", h)
	}
	if ts.live() != 97 {
		t.Fatalf("live = %d, want 97", ts.live())
	}
	for i := 0; i < ts.phead; i++ {
		if ts.pending[i] != nil {
			t.Errorf("vacated slot %d still references a job", i)
		}
	}
	// Consuming most of the queue triggers the in-place compaction:
	// the prefix must not keep growing with the consumption count.
	for ts.live() > 10 {
		ts.popFront()
	}
	if ts.phead >= 64 {
		t.Errorf("consumed prefix (%d slots) was never compacted", ts.phead)
	}
	if h := ts.head(); h == nil || h.Q != 90 {
		t.Fatalf("head after compaction = %+v, want Q=90", h)
	}
}

// TestJobAtSameInstantCompletion pins JobAt's terminated-job
// contract at the trickiest instant — a query from the OnFinish hook,
// i.e. the very tick the job completes. Whatever the sink, the job has
// already left the pending queue (and is about to be recycled), so it
// must report missing: what a same-instant caller (a
// detector firing at the completion tick) must treat as "finished in
// time".
func TestJobAtSameInstantCompletion(t *testing.T) {
	for _, m := range sinks {
		t.Run(m.name, func(t *testing.T) {
			queried := 0
			cfg := Config{
				Tasks: table2WithOffset(),
				End:   at(3000),
				Sink:  m.sink(),
				Hooks: Hooks{
					OnFinish: func(e *Engine, j *Job) {
						queried++
						if _, ok := e.JobAt(j.TaskName(), j.Q); ok {
							t.Errorf("%s#%d: JobAt resolved a job that completed this instant", j.TaskName(), j.Q)
						}
					},
				},
			}
			runBare(t, cfg)
			// Every job released before the horizon finishes: 15 of
			// tau1, 12 of tau2, 2 of tau3.
			if queried != 29 {
				t.Fatalf("OnFinish fired %d times, want 29", queried)
			}
		})
	}
}
