package sim

import (
	"bytes"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

// soakScenario describes a 2-minute run with enough jobs (~3500) and
// response variety (seeded jitter plus a recurring overrun under the
// stop treatment) to exercise the accumulator and its sketches,
// collected in the given mode ("" keeps the default).
func soakScenario(mode string) Scenario {
	sc := Scenario{
		Tasks: []Task{
			{Name: "tau1", Priority: 20, Period: Millis(200), Deadline: Millis(70), Cost: Millis(29)},
			{Name: "tau2", Priority: 18, Period: Millis(250), Deadline: Millis(120), Cost: Millis(29)},
			{Name: "tau3", Priority: 16, Period: Millis(1500), Deadline: Millis(120), Cost: Millis(29), Offset: Millis(1000)},
		},
		Treatment: "stop",
		Faults: []Fault{
			{Task: "tau1", Kind: FaultOverrunEvery, First: 1, Every: 3, Extra: Millis(45)},
			{Task: "tau2", Kind: FaultJitter, Max: Millis(3), Seed: 99},
		},
		TimerResolution: Millis(10),
		Horizon:         Millis(120_000),
		Seed:            7,
	}
	if mode != "" {
		sc.Collect = &Collect{Mode: mode}
	}
	return sc
}

func mustRun(t *testing.T, sc Scenario) *RunResult {
	t.Helper()
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// successfulResponses extracts the sorted successful response times
// of one task from a retained report — the exact distribution the
// streaming sketch approximates.
func successfulResponses(rep *metrics.Report, task string) []vtime.Duration {
	var out []vtime.Duration
	for _, j := range rep.Jobs {
		if j.Task == task && !j.Failed() && j.End != (vtime.Time(0)) {
			out = append(out, j.Response())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestStreamingReportMatchesRetained is the cross-mode equivalence
// pin of the streaming pipeline: the same scenario run retained and
// streamed produces identical task summaries — counts, failure
// accounting, success ratios and response min/mean/max exactly —
// while percentiles answer within the sketch's ±εn rank-error bound
// of the exact sort-based values.
func TestStreamingReportMatchesRetained(t *testing.T) {
	retained := mustRun(t, soakScenario(""))
	streamed := mustRun(t, soakScenario(CollectStream))

	if streamed.Log.Len() != 0 {
		t.Errorf("streaming run retained %d events", streamed.Log.Len())
	}
	if !streamed.Report.Streaming() || retained.Report.Streaming() {
		t.Fatal("report mode flags are wrong")
	}
	if streamed.Detections != retained.Detections {
		t.Errorf("detections: stream %d, retain %d", streamed.Detections, retained.Detections)
	}
	if streamed.Switches != retained.Switches {
		t.Errorf("switches: stream %d, retain %d", streamed.Switches, retained.Switches)
	}
	if len(streamed.Report.Tasks) != len(retained.Report.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(streamed.Report.Tasks), len(retained.Report.Tasks))
	}
	for name, w := range retained.Report.Tasks {
		g := streamed.Report.Tasks[name]
		if g == nil {
			t.Fatalf("streaming report lost task %s", name)
		}
		if *g != *w {
			t.Errorf("%s summary differs:\nstream %+v\nretain %+v", name, *g, *w)
		}
	}
	if streamed.SuccessRatio() != retained.SuccessRatio() {
		t.Errorf("success ratio: stream %v, retain %v", streamed.SuccessRatio(), retained.SuccessRatio())
	}

	// Percentiles: bounded error against the exact distribution.
	eps := metrics.DefaultSketchEpsilon
	for _, task := range retained.Report.TaskNames() {
		exact := successfulResponses(retained.Report, task)
		for _, p := range []float64{5, 25, 50, 75, 90, 95, 99, 100} {
			got, ok := streamed.Report.ResponsePercentile(task, p)
			if len(exact) == 0 {
				if ok {
					t.Errorf("%s p%v: answered with no successful jobs", task, p)
				}
				continue
			}
			if !ok {
				t.Errorf("%s p%v: no streaming answer", task, p)
				continue
			}
			n := len(exact)
			rank := int(math.Ceil(p / 100 * float64(n)))
			if rank < 1 {
				rank = 1
			}
			e := int(math.Ceil(eps * float64(n)))
			lo, hi := rank-e, rank+e
			if lo < 1 {
				lo = 1
			}
			if hi > n {
				hi = n
			}
			if got < exact[lo-1] || got > exact[hi-1] {
				t.Errorf("%s p%v = %v outside ±%d-rank window [%v, %v] of %d responses",
					task, p, got, e, exact[lo-1], exact[hi-1], n)
			}
		}
	}
}

// TestSpillTraceMatchesRetainedLog: the trace spilled during a
// streaming run is byte-identical to the log a retained run writes
// afterwards, and the streaming run's own WriteLog stays empty.
func TestSpillTraceMatchesRetainedLog(t *testing.T) {
	retained := mustRun(t, soakScenario(""))
	var want bytes.Buffer
	if err := retained.WriteLog(&want); err != nil {
		t.Fatal(err)
	}

	sys, err := FromScenario(soakScenario(CollectStream))
	if err != nil {
		t.Fatal(err)
	}
	var spill bytes.Buffer
	sys.SpillTrace(&spill)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if spill.String() != want.String() {
		t.Error("spilled trace differs from the retained log")
	}
	var empty bytes.Buffer
	if err := res.WriteLog(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("streaming WriteLog wrote %d bytes, want none", empty.Len())
	}
}

// TestStreamSoakScenarioRuns: the committed collect-block scenario
// loads, identifies as streaming, and runs with online metrics.
func TestStreamSoakScenarioRuns(t *testing.T) {
	sys, err := Load(filepath.Join("..", "testdata", "scenarios", "stream-soak.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc := sys.Scenario()
	if !sc.Streaming() {
		t.Fatal("stream-soak.json must declare streaming collection")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Streaming() {
		t.Error("report must be streaming")
	}
	s := res.Report.Tasks["tau1"]
	if s == nil || s.Released < 2900 {
		t.Fatalf("tau1 releases over 10 minutes: %+v", s)
	}
	if res.SuccessRatio() <= 0 || res.SuccessRatio() >= 1 {
		t.Errorf("soak success ratio = %v, want a mixed outcome", res.SuccessRatio())
	}
}

// TestCollectValidation: unknown modes and stream-with-servers are
// rejected at build time.
func TestCollectValidation(t *testing.T) {
	if _, err := FromScenario(soakScenario("bogus")); err == nil {
		t.Error("unknown collect mode must fail validation")
	}
	_, err := FromScenario(Scenario{
		Tasks: []Task{{Name: "hard", Priority: 10, Period: Millis(100), Deadline: Millis(100), Cost: Millis(10)}},
		Servers: []Server{{
			Task:     Task{Name: "srv", Priority: 5, Period: Millis(50), Deadline: Millis(50), Cost: Millis(5)},
			Requests: []Request{{ID: "a", Arrival: Millis(10), Cost: Millis(2)}},
		}},
		Horizon: Millis(1000),
		Collect: &Collect{Mode: CollectStream},
	})
	if err == nil {
		t.Error("streaming plus servers must fail validation: the service analysis needs the log")
	}
	// Retain is accepted explicitly too.
	if _, err := FromScenario(soakScenario(CollectRetain)); err != nil {
		t.Errorf("explicit retain mode: %v", err)
	}
}
