package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/verify/gen"
)

// splitRun runs the scenario split at instant at — first segment to a
// checkpoint, the checkpoint through a JSON round trip (the wire is
// part of the guarantee), second segment via Resume — and returns the
// concatenated spilled trace plus the final result.
func splitRun(t *testing.T, sc Scenario, at Duration) (string, *RunResult) {
	t.Helper()
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var segA bytes.Buffer
	sys.SpillTrace(&segA)
	cp, err := sys.RunToCheckpoint(at)
	if err != nil {
		t.Fatalf("RunToCheckpoint(%v): %v", at, err)
	}
	raw, err := MarshalCheckpoint(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	resumed, err := Resume(decoded)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	var segB bytes.Buffer
	resumed.SpillTrace(&segB)
	res, err := resumed.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return segA.String() + segB.String(), res
}

// unsplitRun runs the scenario whole, spilling the trace.
func unsplitRun(t *testing.T, sc Scenario) (string, *RunResult) {
	t.Helper()
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var spill bytes.Buffer
	sys.SpillTrace(&spill)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("unsplit run: %v", err)
	}
	return spill.String(), res
}

// diffPercentiles returns the first percentile divergence between two
// streaming reports ("" when equal): a resumed accumulator carries the
// first segment's sketches verbatim, so the split run's percentiles
// must equal the unsplit run's exactly, not just within ε.
func diffPercentiles(a, b *RunResult) string {
	for name := range a.Report.Tasks {
		for _, p := range []float64{1, 50, 95, 99, 100} {
			av, aok := a.Report.ResponsePercentile(name, p)
			bv, bok := b.Report.ResponsePercentile(name, p)
			if aok != bok || av != bv {
				return name
			}
		}
	}
	return ""
}

// replayOracle feeds an encoded trace through the scenario's invariant
// oracle and returns its verdict — how the differential tests check
// the *concatenated* split trace, since checkpointing cannot run the
// online oracle across the process boundary.
func replayOracle(t *testing.T, sc Scenario, encoded string) error {
	t.Helper()
	chk, err := verify.ForScenario(&sc)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	log, err := trace.DecodeString(encoded)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	for _, e := range log.Events() {
		chk.Append(e)
	}
	return chk.FinishErr()
}

// TestCheckpointResumeDifferential is the tentpole guarantee over
// fuzzed scenarios: splitting a run at any checkpoint boundary
// produces a byte-identical trace and an equal report (percentiles
// included) versus the unsplit run, and the stitched trace satisfies
// every scheduling axiom.
func TestCheckpointResumeDifferential(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		sc := gen.Checkpointable(seed)
		whole, wholeRes := unsplitRun(t, sc)
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			at := Duration(float64(sc.Horizon) * frac)
			stitched, splitRes := splitRun(t, sc, at)
			if stitched != whole {
				t.Errorf("seed %d at %v: stitched trace diverges from unsplit (%d vs %d bytes)",
					seed, at, len(stitched), len(whole))
				continue
			}
			if d := reportDivergence(wholeRes, splitRes); d != "" {
				t.Errorf("seed %d at %v: report diverges: %s", seed, at, d)
			}
			if name := diffPercentiles(wholeRes, splitRes); name != "" {
				t.Errorf("seed %d at %v: task %s percentiles diverge", seed, at, name)
			}
			if err := replayOracle(t, sc, stitched); err != nil {
				t.Errorf("seed %d at %v: stitched trace violates the oracle: %v", seed, at, err)
			}
		}
	}
}

// TestCheckpointRejects pins the refusal conditions: non-streaming
// collection, detector treatments, servers, d-over, the online
// oracle, and out-of-horizon instants all fail loudly.
func TestCheckpointRejects(t *testing.T) {
	base := gen.Checkpointable(1)
	cases := []struct {
		name string
		mut  func(sc *Scenario)
		want string
	}{
		{"retained", func(sc *Scenario) { sc.Collect = nil }, "streaming"},
		{"verify", func(sc *Scenario) { sc.Verify = true }, "oracle"},
		{"treatment", func(sc *Scenario) {
			sc.Treatment = "stop"
			sc.Policy = "fixed-priority"
			sc.SkipAdmission = false
		}, "treatment"},
		{"d-over", func(sc *Scenario) { sc.Policy = "d-over" }, "d-over"},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		if sc.Treatment != "none" && sc.Treatment != "" {
			// Detector scenarios need an admitted fixed-priority set;
			// reuse a generated one that is feasible.
			for seed := uint64(0); ; seed++ {
				cand := gen.Scenario(seed)
				if cand.Treatment != "none" && !cand.SkipAdmission {
					cand.Collect = &Collect{Mode: CollectStream}
					cand.Servers = nil
					sc = cand
					break
				}
			}
		}
		sys, err := FromScenario(sc)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		if _, err := sys.RunToCheckpoint(sc.Horizon / 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunToCheckpoint error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	sys, err := FromScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToCheckpoint(base.Horizon * 2); err == nil {
		t.Error("checkpoint past the horizon accepted")
	}
}

// TestCheckpointDecodeRejects pins the file-format refusals.
func TestCheckpointDecodeRejects(t *testing.T) {
	sc := gen.Checkpointable(2)
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.RunToCheckpoint(sc.Horizon / 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	bad := strings.Replace(string(raw), `"version": 1`, `"version": 99`, 1)
	if _, err := DecodeCheckpoint(strings.NewReader(bad)); err == nil {
		t.Error("version 99 accepted")
	}
	if _, err := DecodeCheckpoint(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}

	// A checkpoint resumed under a different policy must be refused by
	// the engine's identity checks.
	var mut Checkpoint
	if err := mut.Scenario.Validate(); err == nil {
		t.Fatal("empty scenario unexpectedly valid")
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	other := "edf"
	if decoded.Scenario.Policy == "edf" || decoded.Scenario.Policy == "" {
		other = "best-effort"
	}
	decoded.Scenario.Policy = other
	resumed, err := Resume(decoded)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if _, err := resumed.Run(); err == nil {
		t.Error("policy-swapped checkpoint resumed without error")
	}
}

// TestCheckpointableGenerator pins the derived generator's contract:
// every seed yields a scenario the checkpoint path accepts.
func TestCheckpointableGenerator(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		sc := gen.Checkpointable(seed)
		if sc.Treatment != "none" || len(sc.Servers) != 0 || sc.Policy == "d-over" || !sc.Streaming() {
			t.Fatalf("seed %d: non-checkpointable scenario %+v", seed, sc)
		}
		sys, err := FromScenario(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sys.checkpointable(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCheckpointRunsIgnoreProgress pins the documented ObserveProgress
// contract: a plain run reports progress, while neither the segment up
// to a checkpoint nor the resumed segment calls the observer.
func TestCheckpointRunsIgnoreProgress(t *testing.T) {
	sc := gen.Checkpointable(3)
	calls := 0
	observe := func(Duration) { calls++ }
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sys.ObserveProgress(Millis(1), observe)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("a plain run never reported progress")
	}
	calls = 0
	cp, err := sys.RunToCheckpoint(sc.Horizon / 2)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed.ObserveProgress(Millis(1), observe)
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("checkpoint and resumed segments reported progress %d times", calls)
	}
}
