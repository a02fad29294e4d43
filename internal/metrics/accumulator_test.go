package metrics

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// feed streams every event of the log through a fresh accumulator.
func feed(l *trace.Log) *Accumulator {
	a := NewAccumulator()
	for _, e := range l.Events() {
		a.Append(e)
	}
	return a
}

// diffSummaries fails the test wherever the streaming summaries
// disagree with the Analyze summaries on any exported field.
func diffSummaries(t *testing.T, want, got *Report) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("task count: got %d, want %d", len(got.Tasks), len(want.Tasks))
	}
	for name, w := range want.Tasks {
		g, ok := got.Tasks[name]
		if !ok {
			t.Errorf("missing task %s", name)
			continue
		}
		if g.Released != w.Released || g.Finished != w.Finished || g.Stopped != w.Stopped ||
			g.Missed != w.Missed || g.Failed != w.Failed || g.Detected != w.Detected {
			t.Errorf("%s counts: got %+v, want %+v", name, g, w)
		}
		if g.MinResponse != w.MinResponse || g.MaxResponse != w.MaxResponse || g.MeanResponse != w.MeanResponse {
			t.Errorf("%s responses: got min=%v max=%v mean=%v, want min=%v max=%v mean=%v",
				name, g.MinResponse, g.MaxResponse, g.MeanResponse,
				w.MinResponse, w.MaxResponse, w.MeanResponse)
		}
		if g.SuccessRatio() != w.SuccessRatio() {
			t.Errorf("%s success ratio: got %v, want %v", name, g.SuccessRatio(), w.SuccessRatio())
		}
	}
}

// TestAccumulatorMatchesAnalyze: on the handcrafted log covering
// completions, stops, misses and grants, the streaming summaries
// equal the post-hoc ones field for field.
func TestAccumulatorMatchesAnalyze(t *testing.T) {
	l := buildLog()
	diffSummaries(t, Analyze(l), feed(l).Report())
}

// TestAccumulatorEdgeJobs covers the job shapes Analyze handles
// implicitly: a dropped job (release + stopped at the same instant),
// a job that misses its deadline and still completes, a job that
// misses and never terminates, and a job pending at the horizon.
func TestAccumulatorEdgeJobs(t *testing.T) {
	l := trace.NewLog(16)
	// Dropped at release: response 0, stopped, failed, not missed.
	l.Append(ev(0, trace.JobRelease, "drop", 0))
	l.Append(ev(0, trace.JobStopped, "drop", 0))
	// Missed then finished late: failed once, finished, response 50.
	l.Append(ev(0, trace.JobRelease, "late", 0))
	l.Append(ev(30, trace.DeadlineMiss, "late", 0))
	l.Append(ev(50, trace.JobEnd, "late", 0))
	// Missed, never terminated.
	l.Append(ev(100, trace.JobRelease, "late", 1))
	l.Append(ev(130, trace.DeadlineMiss, "late", 1))
	// Released, still pending.
	l.Append(ev(0, trace.JobRelease, "pend", 0))
	l.Append(ev(0, trace.JobBegin, "pend", 0))

	acc := feed(l)
	diffSummaries(t, Analyze(l), acc.Report())
	rep := acc.Report()
	if s := rep.Tasks["drop"]; s.Stopped != 1 || s.Failed != 1 || s.Missed != 0 || s.MinResponse != 0 {
		t.Errorf("dropped job summary: %+v", s)
	}
	if s := rep.Tasks["late"]; s.Released != 2 || s.Finished != 1 || s.Failed != 2 || s.Missed != 2 {
		t.Errorf("late task summary: %+v", s)
	}
	// The two unterminated jobs (late#1, pend#0) remain live; the
	// terminated ones were released.
	if acc.Live() != 2 {
		t.Errorf("live jobs = %d, want 2", acc.Live())
	}
}

// TestAccumulatorSchedulerDetailIgnored: begin/preempt/resume and
// detector releases must not create job records (they do not in
// Analyze either), and system-wide events are skipped.
func TestAccumulatorSchedulerDetailIgnored(t *testing.T) {
	l := trace.NewLog(8)
	l.Append(ev(0, trace.JobPreempt, "a", 0))
	l.Append(ev(0, trace.JobResume, "a", 0))
	l.Append(ev(0, trace.DetectorRelease, "a", 3))
	l.Append(ev(0, trace.StopRequest, "a", 3))
	l.Append(trace.Event{At: 0, Kind: trace.TaskAdded, Task: "a", Job: -1})
	rep := feed(l).Report()
	if len(rep.Tasks) != 0 {
		t.Errorf("scheduler detail created summaries: %+v", rep.Tasks)
	}
}

// TestStreamingReportShape: a streaming report has no job records,
// reports itself as streaming, and answers percentiles from the
// sketch.
func TestStreamingReportShape(t *testing.T) {
	rep := feed(buildLog()).Report()
	if !rep.Streaming() {
		t.Fatal("accumulator report must identify as streaming")
	}
	if rep.Jobs != nil {
		t.Fatal("streaming report must not retain job records")
	}
	if _, ok := rep.Job("tau1", 0); ok {
		t.Error("job lookup on a streaming report must miss")
	}
	// tau1's only successful job responded in 29ms.
	if p, ok := rep.ResponsePercentile("tau1", 50); !ok || p != vtime.Millis(29) {
		t.Errorf("tau1 p50 = %v, %v; want 29ms", p, ok)
	}
	if _, ok := rep.ResponsePercentile("ghost", 50); ok {
		t.Error("unknown task must report no percentile")
	}
	if _, ok := rep.ResponsePercentile("tau1", 0); ok {
		t.Error("p=0 must be rejected")
	}
}

// TestReportIsASnapshot: a mid-run Report must not drift as the
// accumulator keeps consuming — its percentiles come from a sketch
// copy consistent with its frozen counts.
func TestReportIsASnapshot(t *testing.T) {
	acc := NewAccumulator()
	addJob := func(q int64, respMS int64) {
		acc.Append(trace.Event{At: vtime.AtMillis(q * 100), Kind: trace.JobRelease, Task: "a", Job: q})
		acc.Append(trace.Event{At: vtime.AtMillis(q*100 + respMS), Kind: trace.JobEnd, Task: "a", Job: q})
	}
	for q := int64(0); q < 10; q++ {
		addJob(q, 5)
	}
	mid := acc.Report()
	for q := int64(10); q < 20; q++ {
		addJob(q, 500)
	}
	if mid.Tasks["a"].Released != 10 {
		t.Errorf("snapshot counts drifted: %+v", mid.Tasks["a"])
	}
	if p, ok := mid.ResponsePercentile("a", 100); !ok || p != vtime.Millis(5) {
		t.Errorf("snapshot p100 = %v, %v; want the 5ms seen at snapshot time", p, ok)
	}
	if p, ok := acc.Report().ResponsePercentile("a", 100); !ok || p != vtime.Millis(500) {
		t.Errorf("final p100 = %v, %v; want 500ms", p, ok)
	}
}

// TestAccumulatorLargeRandomStream cross-checks the accumulator
// against Analyze on a large pseudo-random event stream with mixed
// outcomes, and checks that its transient state stays bounded by the
// number of unterminated jobs.
func TestAccumulatorLargeRandomStream(t *testing.T) {
	l := randomStream(42, 2000)
	acc := feed(l)
	diffSummaries(t, Analyze(l), acc.Report())
	if acc.Live() != 0 {
		t.Errorf("all jobs terminated but %d remain live", acc.Live())
	}
}

// TestAccumulatorSteadyStateAllocFree pins the per-task records: once
// warm, the accumulator allocates nothing per job over a streamed
// periodic run. One 40 ms cycle releases, begins and ends 15 jobs of
// four tasks; task d's jobs respond in 20 ms on a 10 ms period, so it
// always has two or three jobs live and its oldest leaves from the
// front. A record allocated per job fails at once.
func TestAccumulatorSteadyStateAllocFree(t *testing.T) {
	acc := NewAccumulator()
	tasks := []struct {
		name         string
		period, resp int64
	}{{"a", 10, 2}, {"b", 20, 7}, {"c", 40, 15}, {"d", 10, 20}}
	cycle := int64(0)
	oneCycle := func() {
		for _, tk := range tasks {
			perCycle := 40 / tk.period
			for k := int64(0); k < perCycle; k++ {
				q := cycle*perCycle + k
				rel := vtime.AtMillis(q * tk.period)
				if tk.name == "d" {
					// d's job q-2 ends as job q is released.
					if q >= 2 {
						acc.Append(trace.Event{At: rel, Kind: trace.JobEnd, Task: "d", Job: q - 2})
					}
					acc.Append(trace.Event{At: rel, Kind: trace.JobRelease, Task: "d", Job: q})
					continue
				}
				acc.Append(trace.Event{At: rel, Kind: trace.JobRelease, Task: tk.name, Job: q})
				acc.Append(trace.Event{At: rel, Kind: trace.JobBegin, Task: tk.name, Job: q})
				acc.Append(trace.Event{At: rel.Add(vtime.Millis(tk.resp)), Kind: trace.JobEnd, Task: tk.name, Job: q})
			}
		}
		cycle++
	}
	for i := 0; i < 200; i++ {
		oneCycle() // warm: task records, sketches, live-job storage
	}
	if allocs := testing.AllocsPerRun(1000, oneCycle); allocs != 0 {
		t.Errorf("a warm accumulator allocates %.0f times per 15-job cycle, want 0", allocs)
	}
	if n := acc.Live(); n != 2 {
		t.Errorf("live jobs = %d, want d's two in flight", n)
	}
	if s := acc.Report().Tasks["d"]; s.Finished != s.Released-2 || s.MaxResponse != vtime.Millis(20) {
		t.Errorf("task d summary %+v", *s)
	}
}
