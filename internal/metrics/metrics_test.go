package metrics

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

func ev(atMS int64, k trace.Kind, task string, job int64) trace.Event {
	return trace.Event{At: vtime.AtMillis(atMS), Kind: k, Task: task, Job: job}
}

// buildLog constructs a small trace: tau1#0 completes in time, tau1#1
// is detected faulty and stopped, tau2#0 misses its deadline and
// completes late.
func buildLog() *trace.Log {
	l := trace.NewLog()
	l.Append(ev(0, trace.JobRelease, "tau1", 0))
	l.Append(ev(0, trace.JobBegin, "tau1", 0))
	l.Append(ev(29, trace.JobEnd, "tau1", 0))

	l.Append(ev(200, trace.JobRelease, "tau1", 1))
	l.Append(ev(200, trace.JobBegin, "tau1", 1))
	l.Append(ev(230, trace.DetectorRelease, "tau1", 1))
	l.Append(ev(230, trace.FaultDetected, "tau1", 1))
	l.Append(trace.Event{At: vtime.AtMillis(230), Kind: trace.AllowanceGrant, Task: "tau1", Job: 1, Arg: int64(vtime.Millis(33))})
	l.Append(ev(262, trace.JobStopped, "tau1", 1))

	l.Append(ev(0, trace.JobRelease, "tau2", 0))
	l.Append(ev(29, trace.JobBegin, "tau2", 0))
	l.Append(ev(120, trace.DeadlineMiss, "tau2", 0))
	l.Append(ev(127, trace.JobEnd, "tau2", 0))
	return l
}

func TestAnalyzeJobRecords(t *testing.T) {
	rep := Analyze(buildLog())
	j0, ok := rep.Job("tau1", 0)
	if !ok || j0.Failed() || j0.Response() != vtime.Millis(29) {
		t.Fatalf("tau1#0: %+v", j0)
	}
	j1, ok := rep.Job("tau1", 1)
	if !ok || !j1.Stopped || !j1.Failed() || !j1.Detected {
		t.Fatalf("tau1#1: %+v", j1)
	}
	if j1.Granted != vtime.Millis(33) {
		t.Errorf("tau1#1 grant = %v", j1.Granted)
	}
	if j1.Response() != vtime.Millis(62) {
		t.Errorf("tau1#1 response = %v, want 62ms", j1.Response())
	}
	j2, ok := rep.Job("tau2", 0)
	if !ok || !j2.MissedDeadline || j2.Stopped || !j2.Failed() {
		t.Fatalf("tau2#0: %+v", j2)
	}
	if _, ok := rep.Job("ghost", 0); ok {
		t.Error("unknown job lookup must fail")
	}
}

func TestTaskSummaries(t *testing.T) {
	rep := Analyze(buildLog())
	s1 := rep.Tasks["tau1"]
	if s1.Released != 2 || s1.Finished != 1 || s1.Stopped != 1 || s1.Failed != 1 || s1.Detected != 1 {
		t.Fatalf("tau1 summary: %+v", s1)
	}
	if s1.MaxResponse != vtime.Millis(62) {
		t.Errorf("tau1 max response = %v", s1.MaxResponse)
	}
	if want := (vtime.Millis(29) + vtime.Millis(62)) / 2; s1.MeanResponse != want {
		t.Errorf("tau1 mean response = %v, want %v", s1.MeanResponse, want)
	}
	if got := s1.SuccessRatio(); got != 0.5 {
		t.Errorf("tau1 success ratio = %v, want 0.5", got)
	}
	s2 := rep.Tasks["tau2"]
	if s2.Missed != 1 || s2.Failed != 1 || s2.Finished != 1 {
		t.Fatalf("tau2 summary: %+v", s2)
	}
}

func TestSystemAggregates(t *testing.T) {
	rep := Analyze(buildLog())
	if rep.TotalReleased() != 3 || rep.TotalFailed() != 2 {
		t.Fatalf("aggregates: released %d failed %d", rep.TotalReleased(), rep.TotalFailed())
	}
	want := float64(3-2) / 3
	if rep.SuccessRatio() != want {
		t.Errorf("success ratio = %v, want %v", rep.SuccessRatio(), want)
	}
	names := rep.TaskNames()
	if len(names) != 2 || names[0] != "tau1" || names[1] != "tau2" {
		t.Errorf("TaskNames = %v", names)
	}
}

func TestEmptyLog(t *testing.T) {
	rep := Analyze(trace.NewLog())
	if rep.TotalReleased() != 0 || rep.SuccessRatio() != 1 {
		t.Fatalf("empty log: %+v", rep)
	}
	var zero TaskSummary
	if zero.SuccessRatio() != 1 {
		t.Error("zero-release task must have success ratio 1")
	}
}

func TestSystemEventsIgnored(t *testing.T) {
	l := trace.NewLog()
	l.Append(trace.Event{At: 0, Kind: trace.TaskAdded, Task: "dyn", Job: -1})
	l.Append(trace.Event{At: 0, Kind: trace.TaskRemoved, Task: "", Job: -1})
	rep := Analyze(l)
	if rep.TotalReleased() != 0 {
		t.Fatalf("system events must not create job records: %+v", rep.Jobs)
	}
}

func TestRender(t *testing.T) {
	out := Analyze(buildLog()).Render()
	for _, want := range []string{"tau1", "tau2", "success ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestPendingJobAtTraceEnd(t *testing.T) {
	l := trace.NewLog()
	l.Append(ev(0, trace.JobRelease, "a", 0))
	l.Append(ev(0, trace.JobBegin, "a", 0))
	rep := Analyze(l)
	j, ok := rep.Job("a", 0)
	if !ok {
		t.Fatal("pending job missing")
	}
	if j.Response() != 0 {
		t.Error("pending job must have zero response")
	}
	if rep.Tasks["a"].Finished != 0 {
		t.Error("pending job must not count as finished")
	}
}

func TestResponsePercentile(t *testing.T) {
	l := trace.NewLog()
	for i := int64(0); i < 10; i++ {
		l.Append(trace.Event{At: vtime.AtMillis(i * 100), Kind: trace.JobRelease, Task: "a", Job: i})
		l.Append(trace.Event{At: vtime.AtMillis(i*100 + i + 1), Kind: trace.JobEnd, Task: "a", Job: i})
	}
	rep := Analyze(l)
	// Responses are 1..10 ms.
	if p50, ok := rep.ResponsePercentile("a", 50); !ok || p50 != vtime.Millis(5) {
		t.Errorf("p50 = %v, %v; want 5ms", p50, ok)
	}
	if p100, ok := rep.ResponsePercentile("a", 100); !ok || p100 != vtime.Millis(10) {
		t.Errorf("p100 = %v, %v; want 10ms", p100, ok)
	}
	if p1, ok := rep.ResponsePercentile("a", 1); !ok || p1 != vtime.Millis(1) {
		t.Errorf("p1 = %v, %v; want 1ms", p1, ok)
	}
	if _, ok := rep.ResponsePercentile("a", 0); ok {
		t.Error("p=0 must be rejected")
	}
	if _, ok := rep.ResponsePercentile("a", 101); ok {
		t.Error("p>100 must be rejected")
	}
	if _, ok := rep.ResponsePercentile("ghost", 50); ok {
		t.Error("unknown task must report no percentile")
	}
	// Boundary values of the open-closed (0, 100] domain.
	if _, ok := rep.ResponsePercentile("a", -0.5); ok {
		t.Error("negative p must be rejected")
	}
	if p, ok := rep.ResponsePercentile("a", 0.0001); !ok || p != vtime.Millis(1) {
		t.Errorf("tiny positive p = %v, %v; want the minimum 1ms", p, ok)
	}
	if p, ok := rep.ResponsePercentile("a", 100); !ok || p != vtime.Millis(10) {
		t.Errorf("p=100 = %v, %v; want the maximum 10ms", p, ok)
	}
}

// TestResponsePercentileExcludesFailedJobs: stopped jobs and deadline
// misses do not contribute — their "responses" describe the failure
// instant, not delivered service — and a task whose jobs all failed
// (or never finished) has no percentile at all.
func TestResponsePercentileExcludesFailedJobs(t *testing.T) {
	l := trace.NewLog()
	// a: responses 1..4 ms successful, plus a stopped job (9 ms) and
	// a missed-but-finished job (8 ms) that must not count.
	for i := int64(0); i < 4; i++ {
		l.Append(trace.Event{At: vtime.AtMillis(i * 100), Kind: trace.JobRelease, Task: "a", Job: i})
		l.Append(trace.Event{At: vtime.AtMillis(i*100 + i + 1), Kind: trace.JobEnd, Task: "a", Job: i})
	}
	l.Append(ev(400, trace.JobRelease, "a", 4))
	l.Append(ev(409, trace.JobStopped, "a", 4))
	l.Append(ev(500, trace.JobRelease, "a", 5))
	l.Append(ev(505, trace.DeadlineMiss, "a", 5))
	l.Append(ev(508, trace.JobEnd, "a", 5))
	// b: only a stopped job — no successful responses at all.
	l.Append(ev(0, trace.JobRelease, "b", 0))
	l.Append(ev(7, trace.JobStopped, "b", 0))
	// c: released but never terminated.
	l.Append(ev(0, trace.JobRelease, "c", 0))

	rep := Analyze(l)
	if p, ok := rep.ResponsePercentile("a", 100); !ok || p != vtime.Millis(4) {
		t.Errorf("a p100 = %v, %v; want 4ms (failed responses excluded)", p, ok)
	}
	if p, ok := rep.ResponsePercentile("a", 50); !ok || p != vtime.Millis(2) {
		t.Errorf("a p50 = %v, %v; want 2ms", p, ok)
	}
	for _, task := range []string{"b", "c"} {
		if _, ok := rep.ResponsePercentile(task, 50); ok {
			t.Errorf("task %s has no successful jobs: percentile must report false", task)
		}
	}
	// The streaming path agrees: same exclusions, sketch-backed.
	acc := NewAccumulator()
	for _, e := range l.Events() {
		acc.Append(e)
	}
	srep := acc.Report()
	if p, ok := srep.ResponsePercentile("a", 100); !ok || p != vtime.Millis(4) {
		t.Errorf("streaming a p100 = %v, %v; want 4ms", p, ok)
	}
	for _, task := range []string{"b", "c"} {
		if _, ok := srep.ResponsePercentile(task, 50); ok {
			t.Errorf("streaming: task %s must report no percentile", task)
		}
	}
}
