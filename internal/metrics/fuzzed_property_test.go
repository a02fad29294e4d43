package metrics_test

// The cross-pipeline property on *fuzzed* workloads: for generator
// scenarios whose runs the invariant oracle has vetted, feeding the
// retained trace through a fresh Accumulator reproduces Analyze's
// report field for field. This extends PR 3's single cross-mode test
// from one committed scenario to the open scenario space. Each
// retained log is also checked against the map-based analyzeReference.

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/verify/gen"
	"repro/sim"
	"repro/sim/scenario"
)

func TestAccumulatorMatchesAnalyzeOnFuzzedTraces(t *testing.T) {
	const seeds = 50
	checked := 0
	for seed := uint64(100); seed < 100+seeds; seed++ {
		sc := gen.Scenario(seed)
		// Force retained collection so the full log exists to replay;
		// the oracle stays armed, so only axiom-clean traces feed the
		// comparison.
		sc.Collect = &scenario.Collect{Mode: scenario.CollectRetain}
		sc.Verify = true
		sys, err := sim.FromScenario(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: oracle rejected the run: %v", seed, err)
		}
		// The one-pass Analyze must first match the map-based
		// reference on every job, summary, lookup and percentile.
		metrics.CheckAgainstReference(t, fmt.Sprintf("seed %d", seed), res.Log)
		want := metrics.Analyze(res.Log)
		acc := metrics.NewAccumulator()
		for e := range res.Log.All() {
			acc.Append(e)
		}
		got := acc.Report()
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("seed %d: %d tasks streamed vs %d analyzed", seed, len(got.Tasks), len(want.Tasks))
		}
		for name, w := range want.Tasks {
			g := got.Tasks[name]
			if g == nil {
				t.Fatalf("seed %d: task %s missing from streamed report", seed, name)
			}
			if g.Released != w.Released || g.Finished != w.Finished || g.Stopped != w.Stopped ||
				g.Missed != w.Missed || g.Failed != w.Failed || g.Detected != w.Detected ||
				g.MinResponse != w.MinResponse || g.MaxResponse != w.MaxResponse ||
				g.MeanResponse != w.MeanResponse {
				t.Errorf("seed %d task %s diverges:\nstream  %+v\nanalyze %+v", seed, name, *g, *w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("property checked zero tasks")
	}
}
