package metrics

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// These tests pit the accumulator against adversarial event streams —
// tasks with zero terminated jobs, tasks where every job fails, and
// orderings where misses, stops and detector flags interleave — and
// require field-for-field agreement with the post-hoc Analyze on the
// same stream (the streaming pipeline's core contract).

func compareReports(t *testing.T, l *trace.Log) {
	t.Helper()
	want := Analyze(l)
	acc := NewAccumulator()
	for _, e := range l.Events() {
		acc.Append(e)
	}
	got := acc.Report()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("accumulator tracked %d tasks, Analyze %d", len(got.Tasks), len(want.Tasks))
	}
	for name, w := range want.Tasks {
		g := got.Tasks[name]
		if g == nil {
			t.Fatalf("task %s missing from streamed report", name)
		}
		if g.Released != w.Released || g.Finished != w.Finished || g.Stopped != w.Stopped ||
			g.Missed != w.Missed || g.Failed != w.Failed || g.Detected != w.Detected {
			t.Errorf("task %s counters diverge:\nstream  %+v\nanalyze %+v", name, *g, *w)
		}
		if g.MinResponse != w.MinResponse || g.MaxResponse != w.MaxResponse || g.MeanResponse != w.MeanResponse {
			t.Errorf("task %s responses diverge:\nstream  min=%v max=%v mean=%v\nanalyze min=%v max=%v mean=%v",
				name, g.MinResponse, g.MaxResponse, g.MeanResponse, w.MinResponse, w.MaxResponse, w.MeanResponse)
		}
	}
}

func at(ms int64) vtime.Time { return vtime.AtMillis(ms) }

// TestAccumulatorZeroJobTask: a task that only ever releases (no job
// terminates within the horizon) must report released counts with
// zero response statistics, matching Analyze.
func TestAccumulatorZeroJobTask(t *testing.T) {
	l := trace.NewLog()
	l.Append(trace.Event{At: at(0), Kind: trace.JobRelease, Task: "idle", Job: 0})
	l.Append(trace.Event{At: at(10), Kind: trace.JobRelease, Task: "idle", Job: 1})
	// A second task that does work, so maps differ in shape.
	l.Append(trace.Event{At: at(0), Kind: trace.JobRelease, Task: "busy", Job: 0})
	l.Append(trace.Event{At: at(0), Kind: trace.JobBegin, Task: "busy", Job: 0})
	l.Append(trace.Event{At: at(3), Kind: trace.JobEnd, Task: "busy", Job: 0})
	compareReports(t, l)

	acc := NewAccumulator()
	for _, e := range l.Events() {
		acc.Append(e)
	}
	rep := acc.Report()
	idle := rep.Tasks["idle"]
	if idle.Released != 2 || idle.Finished != 0 || idle.MaxResponse != 0 {
		t.Errorf("zero-job task summary wrong: %+v", *idle)
	}
	if _, ok := rep.ResponsePercentile("idle", 50); ok {
		t.Error("percentile answered for a task with no successful jobs")
	}
	if acc.Live() != 2 {
		t.Errorf("live backlog %d, want the 2 unterminated jobs", acc.Live())
	}
}

// TestAccumulatorAllFailedTask: every job of the task fails — one
// missing its deadline then finishing late, one stopped, one missed
// and then stopped. The percentile sketch must stay empty (it covers
// successes only) while counts and responses match Analyze.
func TestAccumulatorAllFailedTask(t *testing.T) {
	l := trace.NewLog()
	// Job 0: miss at 10, late completion at 12.
	l.Append(trace.Event{At: at(0), Kind: trace.JobRelease, Task: "bad", Job: 0})
	l.Append(trace.Event{At: at(0), Kind: trace.JobBegin, Task: "bad", Job: 0})
	l.Append(trace.Event{At: at(10), Kind: trace.DeadlineMiss, Task: "bad", Job: 0})
	l.Append(trace.Event{At: at(12), Kind: trace.JobEnd, Task: "bad", Job: 0})
	// Job 1: detector flags it, stop treatment kills it.
	l.Append(trace.Event{At: at(10), Kind: trace.JobRelease, Task: "bad", Job: 1})
	l.Append(trace.Event{At: at(12), Kind: trace.JobBegin, Task: "bad", Job: 1})
	l.Append(trace.Event{At: at(15), Kind: trace.DetectorRelease, Task: "bad", Job: 1})
	l.Append(trace.Event{At: at(15), Kind: trace.FaultDetected, Task: "bad", Job: 1})
	l.Append(trace.Event{At: at(15), Kind: trace.StopRequest, Task: "bad", Job: 1})
	l.Append(trace.Event{At: at(16), Kind: trace.JobStopped, Task: "bad", Job: 1})
	// Job 2: misses, then is stopped — failed once, not twice.
	l.Append(trace.Event{At: at(20), Kind: trace.JobRelease, Task: "bad", Job: 2})
	l.Append(trace.Event{At: at(21), Kind: trace.JobBegin, Task: "bad", Job: 2})
	l.Append(trace.Event{At: at(30), Kind: trace.DeadlineMiss, Task: "bad", Job: 2})
	l.Append(trace.Event{At: at(31), Kind: trace.JobStopped, Task: "bad", Job: 2})
	compareReports(t, l)

	acc := NewAccumulator()
	for _, e := range l.Events() {
		acc.Append(e)
	}
	rep := acc.Report()
	s := rep.Tasks["bad"]
	if s.Released != 3 || s.Failed != 3 || s.Missed != 2 || s.Stopped != 2 || s.Finished != 1 {
		t.Errorf("all-failed summary wrong: %+v", *s)
	}
	if s.SuccessRatio() != 0 {
		t.Errorf("success ratio %v, want 0", s.SuccessRatio())
	}
	if _, ok := rep.ResponsePercentile("bad", 99); ok {
		t.Error("percentile answered from failed jobs (sketch must cover successes only)")
	}
	if acc.Live() != 0 {
		t.Errorf("live backlog %d after all jobs terminated", acc.Live())
	}
}

// TestAccumulatorDropsAtRelease: an admission drop is release +
// immediate stop; the response is zero but the job still counts as
// released and failed, identically in both pipelines.
func TestAccumulatorDropsAtRelease(t *testing.T) {
	l := trace.NewLog()
	l.Append(trace.Event{At: at(5), Kind: trace.JobRelease, Task: "shed", Job: 0})
	l.Append(trace.Event{At: at(5), Kind: trace.JobStopped, Task: "shed", Job: 0})
	compareReports(t, l)
}

// TestAccumulatorIgnoresSchedulerDetail: begin/preempt/resume and
// detector releases for jobs never released must not create job
// records in either pipeline (a regression guard for the released
// count, which only JobRelease-class events may establish).
func TestAccumulatorIgnoresSchedulerDetail(t *testing.T) {
	l := trace.NewLog()
	l.Append(trace.Event{At: at(0), Kind: trace.JobRelease, Task: "a", Job: 0})
	l.Append(trace.Event{At: at(0), Kind: trace.JobBegin, Task: "a", Job: 0})
	l.Append(trace.Event{At: at(1), Kind: trace.JobPreempt, Task: "a", Job: 0})
	l.Append(trace.Event{At: at(2), Kind: trace.JobResume, Task: "a", Job: 0})
	l.Append(trace.Event{At: at(3), Kind: trace.JobEnd, Task: "a", Job: 0})
	// Detector probes a job of "b" that never released in this window.
	l.Append(trace.Event{At: at(3), Kind: trace.DetectorRelease, Task: "b", Job: 7})
	compareReports(t, l)

	acc := NewAccumulator()
	for _, e := range l.Events() {
		acc.Append(e)
	}
	if s, ok := acc.Report().Tasks["b"]; ok && s.Released != 0 {
		t.Errorf("detector release inflated task b to %+v", *s)
	}
}
