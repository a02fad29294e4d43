package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// arrivalTask is the nominal task every arrival edge test drives; the
// period is inert (the source replaces the release law) but must
// still validate.
func arrivalTask(name string) Task {
	return Task{Name: name, Priority: 5, Period: Millis(50), Deadline: Millis(40), Cost: Millis(5)}
}

// runArrival builds and runs an oracle-armed skip-admission scenario
// with one source-driven task.
func runArrival(t *testing.T, a Arrival, horizon vtime.Duration) *RunResult {
	t.Helper()
	s, err := FromScenario(Scenario{
		Name:          "arrival-edge",
		Tasks:         []Task{arrivalTask(a.Task)},
		Arrivals:      []Arrival{a},
		Horizon:       Duration(horizon),
		Seed:          9,
		SkipAdmission: true,
		Verify:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEmptyTraceFile pins the degenerate replay: a trace source fed
// an empty JSON-lines file releases nothing, and the oracle (which
// replays the same empty source) stays clean.
func TestEmptyTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res := runArrival(t, Arrival{Task: "replay", Kind: ArrivalTrace, Path: path}, vtime.Millis(500))
	if sum := res.Report.Tasks["replay"]; sum != nil && sum.Released != 0 {
		t.Errorf("empty trace released %d jobs, want 0", sum.Released)
	}
}

// TestSingleRecordTrace pins the one-record replay, including its
// per-record cost and deadline overrides, under the oracle.
func TestSingleRecordTrace(t *testing.T) {
	res := runArrival(t, Arrival{
		Task:    "replay",
		Kind:    ArrivalTrace,
		Records: []TraceRecord{{Release: Millis(20), Cost: Millis(3), Deadline: Millis(25)}},
	}, vtime.Millis(500))
	sum := res.Report.Tasks["replay"]
	if sum.Released != 1 || sum.Finished != 1 {
		t.Errorf("single-record trace: released %d finished %d, want 1/1", sum.Released, sum.Finished)
	}
}

// TestOutOfOrderTraceRejected pins the measurement-integrity rule end
// to end: out-of-order records fail the run (never a silent sort),
// both inline and via a file (where the error names the line).
func TestOutOfOrderTraceRejected(t *testing.T) {
	s, err := FromScenario(Scenario{
		Tasks: []Task{arrivalTask("replay")},
		Arrivals: []Arrival{{Task: "replay", Kind: ArrivalTrace, Records: []TraceRecord{
			{Release: Millis(30), Cost: Millis(2)},
			{Release: Millis(10), Cost: Millis(2)},
		}}},
		Horizon:       Millis(500),
		SkipAdmission: true,
	})
	if err == nil {
		_, err = s.Run()
	}
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("inline out-of-order trace: err = %v, want out-of-order rejection", err)
	}

	path := filepath.Join(t.TempDir(), "unsorted.jsonl")
	data := "{\"release\":\"30ms\",\"cost\":\"2ms\"}\n{\"release\":\"10ms\",\"cost\":\"2ms\"}\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = FromScenario(Scenario{
		Tasks:         []Task{arrivalTask("replay")},
		Arrivals:      []Arrival{{Task: "replay", Kind: ArrivalTrace, Path: path}},
		Horizon:       Millis(500),
		SkipAdmission: true,
	})
	if err == nil {
		_, err = s.Run()
	}
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("file out-of-order trace: err = %v, want a line-2 positional error", err)
	}
}

// TestPoissonZeroArrivalsInHorizon pins the quiet extreme: a mean
// inter-arrival far beyond the horizon yields a run with zero
// releases of the open task, and the oracle agrees that silence is
// correct (its replayed source's first arrival lies past the end).
func TestPoissonZeroArrivalsInHorizon(t *testing.T) {
	res := runArrival(t, Arrival{Task: "web", Kind: ArrivalPoisson, Mean: Duration(60 * vtime.Second), Seed: 1}, vtime.Millis(50))
	if sum := res.Report.Tasks["web"]; sum != nil && sum.Released != 0 {
		t.Errorf("quiet Poisson released %d jobs in a 50ms horizon, want 0", sum.Released)
	}
}

// TestMMPPFlipAtHorizon pins the boundary edge: the MMPP state flip
// lands exactly on the horizon instant (dwells 100ms+100ms, horizon
// 200ms). The run must agree release-for-release with an independent
// replay of the same source truncated at the horizon — the flip at
// the final instant must neither invent nor lose an arrival.
func TestMMPPFlipAtHorizon(t *testing.T) {
	a := Arrival{
		Task:       "burst",
		Kind:       ArrivalMMPP,
		Mean:       Millis(40),
		BurstMean:  Millis(4),
		Dwell:      Millis(100),
		BurstDwell: Millis(100),
		Seed:       11,
	}
	horizon := vtime.Millis(200)
	res := runArrival(t, a, horizon)

	src, err := taskset.NewMMPP(a.Mean.D(), a.BurstMean.D(), a.Dwell.D(), a.BurstDwell.D(), a.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for {
		rel, ok := src.Next()
		if !ok || rel.At.After(vtime.Time(horizon)) {
			break
		}
		want++
	}
	if want == 0 {
		t.Fatal("test is vacuous: the replayed source has no arrivals in the horizon")
	}
	if got := res.Report.Tasks["burst"].Released; got != want {
		t.Errorf("MMPP flip-at-horizon released %d jobs, want %d (independent source replay)", got, want)
	}
}
