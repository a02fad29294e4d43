package verify

import (
	"strings"
	"testing"

	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// twoTasks is a minimal fixed-priority system: t1 (high) every 10 ms
// with deadline 10 ms and cost 2 ms, t2 (low) every 20 ms with
// deadline 20 ms and cost 5 ms.
func twoTasks(t *testing.T) *taskset.Set {
	t.Helper()
	return taskset.MustNew(
		taskset.Task{Name: "t1", Priority: 2, Period: vtime.Millis(10), Deadline: vtime.Millis(10), Cost: vtime.Millis(2)},
		taskset.Task{Name: "t2", Priority: 1, Period: vtime.Millis(20), Deadline: vtime.Millis(20), Cost: vtime.Millis(5)},
	)
}

func checker(t *testing.T, cfg Config) *Checker {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ev abbreviates event construction.
func ev(atMS int64, kind trace.Kind, task string, job int64) trace.Event {
	return trace.Event{At: vtime.AtMillis(atMS), Kind: kind, Task: task, Job: job}
}

// feed drives a sequence and finishes the checker.
func feed(c *Checker, events ...trace.Event) {
	for _, e := range events {
		c.Append(e)
	}
	c.Finish()
}

// wantRule asserts exactly the given rules were violated (in order).
func wantRule(t *testing.T, c *Checker, rules ...string) {
	t.Helper()
	var got []string
	for _, v := range c.Violations() {
		got = append(got, v.Rule)
	}
	if len(got) != len(rules) {
		t.Fatalf("violations %v, want rules %v", c.Violations(), rules)
	}
	for i, r := range rules {
		if got[i] != r {
			t.Fatalf("violation %d is %q (%v), want %q", i, got[i], c.Violations()[i], r)
		}
	}
}

// cleanTrace is a correct two-job schedule of the twoTasks system:
// t1#0 runs 0–2, t2#0 runs 2–7, the next t1 job preempts nothing.
func cleanTrace() []trace.Event {
	return []trace.Event{
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(2, trace.JobBegin, "t2", 0),
		ev(7, trace.JobEnd, "t2", 0),
		ev(10, trace.JobRelease, "t1", 1),
		ev(10, trace.JobBegin, "t1", 1),
		ev(12, trace.JobEnd, "t1", 1),
	}
}

func TestCleanTracePasses(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(15)})
	feed(c, cleanTrace()...)
	if err := c.Err(); err != nil {
		t.Fatalf("clean trace flagged: %v", err)
	}
}

func TestMonotoneTime(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(5)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(1, trace.DetectorRelease, "t1", 0), // time went backwards
	)
	wantRule(t, c, "monotone-time")
}

func TestDoubleRun(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(5)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(1, trace.JobBegin, "t2", 0), // t1 still running
		ev(2, trace.JobEnd, "t1", 0),
		ev(6, trace.JobEnd, "t2", 0),
	)
	// The overlapping begin is flagged (and, being the lower-priority
	// job, also misordered); the overlap desyncs the running-job
	// accounting, so t1's end is no longer "the running job" — all
	// three stem from the same corruption.
	wantRule(t, c, "double-run", "dispatch-order", "terminal-not-running")
}

func TestDispatchOrderFixedPriority(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0), // t1 has higher priority
		ev(5, trace.JobEnd, "t2", 0),
		ev(5, trace.JobBegin, "t1", 0),
		ev(7, trace.JobEnd, "t1", 0),
	)
	// The wrong dispatch also leaves t1#0 waiting behind t2#0 once
	// instant 0 settles.
	wantRule(t, c, "dispatch-order", "waiting-outranks-running")
}

func TestDispatchOrderEDF(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Policy: "edf", Horizon: vtime.AtMillis(10)})
	// Under EDF t1#0 (deadline 10) precedes t2#0 (deadline 20):
	// dispatching t2 first violates the recomputed deadline keys.
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0),
		ev(5, trace.JobEnd, "t2", 0),
		ev(5, trace.JobBegin, "t1", 0),
		ev(7, trace.JobEnd, "t1", 0),
	)
	// The wrong dispatch also leaves t1#0 waiting behind t2#0 once
	// instant 0 settles.
	wantRule(t, c, "dispatch-order", "waiting-outranks-running")
}

func TestDispatchOrderUnknownPolicySkipped(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Policy: "some-exotic-policy", Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0),
		ev(5, trace.JobEnd, "t2", 0),
		ev(5, trace.JobBegin, "t1", 0),
		ev(7, trace.JobEnd, "t1", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("unknown policy must disable only the dispatch-order axiom: %v", err)
	}
}

func TestFIFOWithinTask(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "t1", Priority: 1, Period: vtime.Millis(5), Deadline: vtime.Millis(20), Cost: vtime.Millis(4)},
	)
	c := checker(t, Config{Tasks: set, Horizon: vtime.AtMillis(20)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(4, trace.JobEnd, "t1", 0),
		ev(5, trace.JobRelease, "t1", 1),
		ev(10, trace.JobRelease, "t1", 2),
		ev(10, trace.JobBegin, "t1", 2), // job 1 is the head
	)
	wantRule(t, c, "dispatch-non-head")
}

func TestDeadlineUnresolved(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(30)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		// t1#0's 10 ms deadline passes: no end, no stop, no miss event.
		ev(10, trace.JobRelease, "t1", 1),
		ev(11, trace.DetectorRelease, "t1", 0),
	)
	// t1#0 is flagged when the clock passes 10 ms; t1#1 (deadline
	// 20 ms, never resolved either) is flagged by Finish.
	wantRule(t, c, "deadline-unresolved", "deadline-unresolved")
}

func TestMissRecordedAtDeadlineIsClean(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(14)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(10, trace.JobRelease, "t1", 1),
		ev(10, trace.DeadlineMiss, "t1", 0),
		ev(12, trace.JobEnd, "t1", 0), // late completion after the miss
		ev(12, trace.JobBegin, "t1", 1),
		ev(14, trace.JobEnd, "t1", 1),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("miss-then-late-completion is legal: %v", err)
	}
}

func TestMissTimeMustEqualDeadline(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(12)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(9, trace.DeadlineMiss, "t1", 0), // one ms early
		ev(11, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "miss-time")
}

func TestMissAfterEnd(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(12)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(10, trace.DeadlineMiss, "t1", 0), // already finished in time
	)
	wantRule(t, c, "miss-after-end")
}

func TestReleaseTimeAndOrder(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(25)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(11, trace.JobRelease, "t1", 1), // one ms late
		ev(11, trace.JobBegin, "t1", 1),
		ev(13, trace.JobEnd, "t1", 1),
		ev(20, trace.JobRelease, "t1", 3), // skips job 2
		ev(20, trace.JobBegin, "t1", 3),
		ev(22, trace.JobEnd, "t1", 3),
	)
	wantRule(t, c, "release-time", "release-order", "release-time")
}

func TestDetectorTiming(t *testing.T) {
	offs := map[string]vtime.Duration{"t1": vtime.Millis(3)}
	c := checker(t, Config{Tasks: twoTasks(t), DetectorOffsets: offs, Horizon: vtime.AtMillis(20)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(3, trace.DetectorRelease, "t1", 0),  // exact: release 0 + 3 ms
		ev(14, trace.DetectorRelease, "t1", 1), // want 13 ms
	)
	wantRule(t, c, "detector-time")
}

func TestFaultOnTerminatedJob(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
		ev(3, trace.DetectorRelease, "t1", 0),
		ev(3, trace.FaultDetected, "t1", 0), // finished a ms ago
	)
	wantRule(t, c, "fault-on-terminated")
}

func TestServerBudget(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "srv", Priority: 1, Period: vtime.Millis(10), Deadline: vtime.Millis(10), Cost: vtime.Millis(2)},
	)
	c := checker(t, Config{
		Tasks:         set,
		ServerBudgets: map[string]vtime.Duration{"srv": vtime.Millis(2)},
		Horizon:       vtime.AtMillis(10),
	})
	feed(c,
		ev(0, trace.JobRelease, "srv", 0),
		ev(0, trace.JobBegin, "srv", 0),
		ev(3, trace.JobEnd, "srv", 0), // 3 ms of service from a 2 ms budget
	)
	wantRule(t, c, "server-budget")
}

func TestServerBudgetAllowsContextSwitchOverhead(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "srv", Priority: 1, Period: vtime.Millis(10), Deadline: vtime.Millis(10), Cost: vtime.Millis(2)},
	)
	c := checker(t, Config{
		Tasks:         set,
		ServerBudgets: map[string]vtime.Duration{"srv": vtime.Millis(2)},
		ContextSwitch: vtime.Millis(1),
		Horizon:       vtime.AtMillis(10),
	})
	feed(c,
		ev(0, trace.JobRelease, "srv", 0),
		ev(0, trace.JobBegin, "srv", 0),
		ev(3, trace.JobEnd, "srv", 0), // 2 ms budget + 1 dispatch × 1 ms
	)
	if err := c.Err(); err != nil {
		t.Fatalf("budget must admit charged switch overhead: %v", err)
	}
}

func TestAdmissionDropIsLegal(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobStopped, "t1", 0), // shed at release: legal
	)
	if err := c.Err(); err != nil {
		t.Fatalf("admission drop flagged: %v", err)
	}
}

func TestStopWithoutRunningAfterRelease(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(5, trace.JobStopped, "t1", 0), // never began, not at release
	)
	wantRule(t, c, "stop-before-begin")
}

func TestPreemptResumeLifecycle(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "t1", Priority: 2, Period: vtime.Millis(10), Deadline: vtime.Millis(10), Cost: vtime.Millis(2), Offset: vtime.Millis(10)},
		taskset.Task{Name: "t2", Priority: 1, Period: vtime.Millis(20), Deadline: vtime.Millis(20), Cost: vtime.Millis(12)},
	)
	c := checker(t, Config{Tasks: set, Horizon: vtime.AtMillis(15)})
	feed(c,
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0),
		ev(10, trace.JobRelease, "t1", 0),
		ev(10, trace.JobPreempt, "t2", 0),
		ev(10, trace.JobBegin, "t1", 0),
		ev(12, trace.JobEnd, "t1", 0),
		ev(12, trace.JobResume, "t2", 0),
		ev(14, trace.JobEnd, "t2", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("legal preempt/resume flagged: %v", err)
	}
}

func TestResumeBeforeBegin(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobResume, "t1", 0),
		ev(2, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "resume-before-begin")
}

func TestPreemptNotRunning(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(1, trace.JobPreempt, "t1", 0), // never dispatched
		ev(1, trace.JobBegin, "t1", 0),
		ev(3, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "preempt-not-running")
}

func TestUnknownTask(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c, ev(0, trace.JobRelease, "ghost", 0))
	// The undeclared task is flagged once, then tracked leniently
	// (its parameters are unknown, so no deadline can be enforced).
	wantRule(t, c, "unknown-task")
}

func TestConservationAtHorizon(t *testing.T) {
	// A live job whose deadline is beyond the horizon is legal.
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(19)})
	feed(c,
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("live unexpired job at horizon flagged: %v", err)
	}
}

func TestDeadlineExactlyAtHorizonNeedsResolution(t *testing.T) {
	// t2#0's deadline (20 ms) equals the horizon: the engine processes
	// events at the horizon, so an unterminated job must carry a miss.
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(20)})
	feed(c,
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t2", 0),
	)
	wantRule(t, c, "deadline-unresolved")
}

func TestViolationCap(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(1000), MaxViolations: 3})
	events := []trace.Event{}
	for q := int64(0); q < 10; q++ {
		// Every release one ms late: ten release-time violations.
		events = append(events, trace.Event{At: vtime.AtMillis(q*10 + 1), Kind: trace.JobRelease, Task: "t1", Job: q})
		events = append(events, trace.Event{At: vtime.AtMillis(q*10 + 1), Kind: trace.JobBegin, Task: "t1", Job: q})
		events = append(events, trace.Event{At: vtime.AtMillis(q*10 + 3), Kind: trace.JobEnd, Task: "t1", Job: q})
	}
	feed(c, events...)
	verr, ok := c.Err().(*Error)
	if !ok {
		t.Fatalf("want *Error, got %v", c.Err())
	}
	if len(verr.Violations) != 3 || verr.Total != 10 {
		t.Fatalf("recorded %d/%d violations, want 3 recorded of 10 total:\n%v",
			len(verr.Violations), verr.Total, verr)
	}
	if !strings.Contains(verr.Error(), "... 7 more") {
		t.Fatalf("Error() should mention the dropped tail: %s", verr)
	}
}

// TestZeroGrantIsLegal reproduces the tightly-utilized system whose
// MaxOverrun is zero: the system-allowance treatment records a grant
// of 0 ns, which is a correct run, while a negative grant (which no
// allowance analysis can produce) stays a violation.
func TestZeroGrantIsLegal(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		trace.Event{At: vtime.AtMillis(1), Kind: trace.AllowanceGrant, Task: "t1", Job: 0, Arg: 0},
		ev(2, trace.JobEnd, "t1", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("zero grant flagged on a correct run: %v", err)
	}

	c = checker(t, Config{Tasks: twoTasks(t), Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobBegin, "t1", 0),
		trace.Event{At: vtime.AtMillis(1), Kind: trace.AllowanceGrant, Task: "t1", Job: 0, Arg: -5},
		ev(2, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "grant-negative")
}

// TestCheckerQueueCompacts pins the oracle's bounded-memory story: a
// never-idle task (cost == period) releasing thousands of jobs must
// not grow the checker's live queue with the horizon — the consumed
// prefix is compacted away, exactly like the engine's pending queue.
func TestCheckerQueueCompacts(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "hog", Priority: 1, Period: vtime.Millis(10), Deadline: vtime.Millis(10), Cost: vtime.Millis(10)},
	)
	const jobs = 5000
	c := checker(t, Config{Tasks: set, Horizon: vtime.AtMillis(10 * jobs)})
	for q := int64(0); q < jobs; q++ {
		base := q * 10
		c.Append(trace.Event{At: vtime.AtMillis(base), Kind: trace.JobRelease, Task: "hog", Job: q})
		c.Append(trace.Event{At: vtime.AtMillis(base), Kind: trace.JobBegin, Task: "hog", Job: q})
		c.Append(trace.Event{At: vtime.AtMillis(base + 10), Kind: trace.JobEnd, Task: "hog", Job: q})
	}
	c.Finish()
	if err := c.Err(); err != nil {
		t.Fatalf("saturating task flagged: %v", err)
	}
	tc := c.byName["hog"]
	if cap(tc.queue) > 64 {
		t.Errorf("checker queue capacity %d grew with %d releases (head=%d)", cap(tc.queue), jobs, tc.head)
	}
}

// evc is ev with a core argument, for multiprocessor dispatch events.
func evc(atMS int64, kind trace.Kind, task string, job int64, core int64) trace.Event {
	e := ev(atMS, kind, task, job)
	e.Arg = core
	return e
}

func TestMulticoreCleanTracePasses(t *testing.T) {
	// The canonical migration witness on 2 cores: hi and mid start in
	// parallel, lo follows hi on core 0, is preempted there by hi#1,
	// and migrates onto core 1 once mid completes. No axiom fires.
	set := taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 3, Period: vtime.Millis(50), Deadline: vtime.Millis(50), Cost: vtime.Millis(20)},
		taskset.Task{Name: "mid", Priority: 2, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
		taskset.Task{Name: "lo", Priority: 1, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
	)
	c := checker(t, Config{Tasks: set, CPUs: 2, Horizon: vtime.AtMillis(90)})
	feed(c,
		ev(0, trace.JobRelease, "hi", 0),
		ev(0, trace.JobRelease, "mid", 0),
		ev(0, trace.JobRelease, "lo", 0),
		evc(0, trace.JobBegin, "hi", 0, 0),
		evc(0, trace.JobBegin, "mid", 0, 1),
		ev(20, trace.JobEnd, "hi", 0),
		evc(20, trace.JobBegin, "lo", 0, 0),
		ev(50, trace.JobRelease, "hi", 1),
		evc(50, trace.JobPreempt, "lo", 0, 0),
		evc(50, trace.JobBegin, "hi", 1, 0),
		ev(60, trace.JobEnd, "mid", 0),
		evc(60, trace.JobMigrate, "lo", 0, 1),
		ev(70, trace.JobEnd, "hi", 1),
		ev(90, trace.JobEnd, "lo", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("clean 2-core trace flagged: %v", err)
	}
}

func TestResumeOnDifferentCore(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		evc(0, trace.JobBegin, "t1", 0, 0),
		evc(1, trace.JobPreempt, "t1", 0, 0),
		evc(1, trace.JobResume, "t1", 0, 1), // cross-core resume, not a migrate
		ev(3, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "resume-core")
}

func TestMigrateOntoSameCore(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		evc(0, trace.JobBegin, "t1", 0, 0),
		evc(1, trace.JobPreempt, "t1", 0, 0),
		evc(1, trace.JobMigrate, "t1", 0, 0), // same core: must be a resume
		ev(3, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "migrate-same-core")
}

func TestPartitionPlacement(t *testing.T) {
	c := checker(t, Config{
		Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10),
		Assignment: map[string]int{"t1": 0, "t2": 1},
	})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		evc(0, trace.JobBegin, "t1", 0, 1), // t1 is pinned to core 0
		ev(2, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "partition-placement")
}

func TestPartitionedMigrationForbidden(t *testing.T) {
	c := checker(t, Config{
		Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10),
		Assignment: map[string]int{"t1": 0, "t2": 1},
	})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		evc(0, trace.JobBegin, "t1", 0, 0),
		evc(1, trace.JobPreempt, "t1", 0, 0),
		evc(1, trace.JobMigrate, "t1", 0, 1),
		ev(3, trace.JobEnd, "t1", 0),
	)
	// The migrate itself is outlawed under partitioned placement, and
	// it also lands the job off its pinned core.
	wantRule(t, c, "partition-migration", "partition-placement")
}

func TestWorkConservation(t *testing.T) {
	// Core 1 idles over (0,1) while t2's released job waits: global
	// dispatch on 2 cores must have filled the idle core.
	c := checker(t, Config{Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		evc(0, trace.JobBegin, "t1", 0, 0),
		evc(1, trace.JobBegin, "t2", 0, 1), // late: should have begun at 0
		ev(2, trace.JobEnd, "t1", 0),
		ev(6, trace.JobEnd, "t2", 0),
	)
	wantRule(t, c, "work-conservation")
}

func TestWorkConservationPartitionedIgnoresOtherCores(t *testing.T) {
	// Under partitioned placement t2 (pinned to busy core 1) waiting
	// while core 0 idles is legal — that is the whole point of the
	// partitioned/global differential.
	c := checker(t, Config{
		Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(20),
		Assignment: map[string]int{"t1": 1, "t2": 1},
	})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		evc(0, trace.JobBegin, "t1", 0, 1),
		ev(2, trace.JobEnd, "t1", 0),
		evc(2, trace.JobBegin, "t2", 0, 1),
		ev(7, trace.JobEnd, "t2", 0),
	)
	if err := c.Err(); err != nil {
		t.Fatalf("partitioned wait flagged: %v", err)
	}
}

func TestCPUIndexOutOfRange(t *testing.T) {
	c := checker(t, Config{Tasks: twoTasks(t), CPUs: 2, Horizon: vtime.AtMillis(10)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		evc(0, trace.JobBegin, "t1", 0, 5),
		ev(2, trace.JobEnd, "t1", 0),
	)
	wantRule(t, c, "cpu-index")
}

// TestMissedPreemptionUniprocessor: t1#1 is released at 4 ms while
// t2#0 runs, and t2#0 keeps the core. Each dispatch on its own is
// legal — t2#0 was the best head when it began — so only the
// settled-instant rank check sees the missed preemption.
func TestMissedPreemptionUniprocessor(t *testing.T) {
	c := checker(t, Config{Tasks: taskset.MustNew(
		taskset.Task{Name: "t1", Priority: 2, Period: vtime.Millis(4), Deadline: vtime.Millis(4), Cost: vtime.Millis(1)},
		taskset.Task{Name: "t2", Priority: 1, Period: vtime.Millis(20), Deadline: vtime.Millis(20), Cost: vtime.Millis(5)},
	), Horizon: vtime.AtMillis(8)})
	feed(c,
		ev(0, trace.JobRelease, "t1", 0),
		ev(0, trace.JobRelease, "t2", 0),
		ev(0, trace.JobBegin, "t1", 0),
		ev(1, trace.JobEnd, "t1", 0),
		ev(1, trace.JobBegin, "t2", 0),
		ev(4, trace.JobRelease, "t1", 1), // t2#0 keeps the core
		ev(6, trace.JobEnd, "t2", 0),
		ev(6, trace.JobBegin, "t1", 1),
		ev(7, trace.JobEnd, "t1", 1),
	)
	wantRule(t, c, "waiting-outranks-running")
}

// TestMissedPreemptionGlobal: on 2 cores hi#1 is released at 50 ms
// while mid and lo run, and neither is preempted.
func TestMissedPreemptionGlobal(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 3, Period: vtime.Millis(50), Deadline: vtime.Millis(50), Cost: vtime.Millis(20)},
		taskset.Task{Name: "mid", Priority: 2, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
		taskset.Task{Name: "lo", Priority: 1, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
	)
	c := checker(t, Config{Tasks: set, CPUs: 2, Horizon: vtime.AtMillis(100)})
	feed(c,
		ev(0, trace.JobRelease, "hi", 0),
		ev(0, trace.JobRelease, "mid", 0),
		ev(0, trace.JobRelease, "lo", 0),
		evc(0, trace.JobBegin, "hi", 0, 0),
		evc(0, trace.JobBegin, "mid", 0, 1),
		ev(20, trace.JobEnd, "hi", 0),
		evc(20, trace.JobBegin, "lo", 0, 0),
		ev(50, trace.JobRelease, "hi", 1), // lo keeps core 0
		ev(60, trace.JobEnd, "mid", 0),
		evc(60, trace.JobBegin, "hi", 1, 1),
		ev(80, trace.JobEnd, "hi", 1),
		ev(80, trace.JobEnd, "lo", 0),
	)
	wantRule(t, c, "waiting-outranks-running")
}

// TestWaitingRankPartitionedPerCore: under partitioned placement a
// waiting head is compared with its own core's job only. mid waits on
// core 0 behind hi while lo, which mid outranks, runs on core 1: legal.
// hi#1 waiting on core 0 behind mid, which it outranks, is a missed
// preemption.
func TestWaitingRankPartitionedPerCore(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 3, Period: vtime.Millis(50), Deadline: vtime.Millis(50), Cost: vtime.Millis(10)},
		taskset.Task{Name: "mid", Priority: 2, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
		taskset.Task{Name: "lo", Priority: 1, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(60)},
	)
	assign := map[string]int{"hi": 0, "mid": 0, "lo": 1}
	legal := checker(t, Config{Tasks: set, CPUs: 2, Horizon: vtime.AtMillis(100), Assignment: assign})
	feed(legal,
		ev(0, trace.JobRelease, "hi", 0),
		ev(0, trace.JobRelease, "mid", 0),
		ev(0, trace.JobRelease, "lo", 0),
		evc(0, trace.JobBegin, "hi", 0, 0),
		evc(0, trace.JobBegin, "lo", 0, 1),
		ev(10, trace.JobEnd, "hi", 0),
		evc(10, trace.JobBegin, "mid", 0, 0),
		ev(50, trace.JobRelease, "hi", 1),
		evc(50, trace.JobPreempt, "mid", 0, 0),
		evc(50, trace.JobBegin, "hi", 1, 0),
		ev(60, trace.JobEnd, "lo", 0),
		ev(60, trace.JobEnd, "hi", 1),
		evc(60, trace.JobResume, "mid", 0, 0),
		ev(80, trace.JobEnd, "mid", 0),
	)
	if err := legal.Err(); err != nil {
		t.Fatalf("partitioned schedule flagged: %v", err)
	}
	missed := checker(t, Config{Tasks: set, CPUs: 2, Horizon: vtime.AtMillis(100), Assignment: assign})
	feed(missed,
		ev(0, trace.JobRelease, "hi", 0),
		ev(0, trace.JobRelease, "mid", 0),
		ev(0, trace.JobRelease, "lo", 0),
		evc(0, trace.JobBegin, "hi", 0, 0),
		evc(0, trace.JobBegin, "lo", 0, 1),
		ev(10, trace.JobEnd, "hi", 0),
		evc(10, trace.JobBegin, "mid", 0, 0),
		ev(50, trace.JobRelease, "hi", 1), // mid keeps core 0
		ev(60, trace.JobEnd, "lo", 0),
		ev(70, trace.JobEnd, "mid", 0),
		evc(70, trace.JobBegin, "hi", 1, 0),
		ev(80, trace.JobEnd, "hi", 1),
	)
	wantRule(t, missed, "waiting-outranks-running")
}
