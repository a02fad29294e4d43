package repro

import (
	"path/filepath"
	"testing"

	"repro/sim"
)

// determinismRuns is how often each detector-order reproducer is
// run. Go randomizes map iteration on every range, so a run whose
// outcome depends on map order renders a second report within a
// handful of runs; 64 leaves a missed defect vanishingly unlikely.
const determinismRuns = 64

// TestDetectorOrderDeterministic runs each committed detector-order
// reproducer many times in one process and requires one report. Both
// scenarios (shrunk from generated documents that perfbench caught
// rendering two reports) make two detectors fire at the same instant
// under stop jitter: when the supervisor armed its detectors in map
// order, the jitter draws landed on different tasks from run to run.
// rtserved's cache, the checkpoint split ≡ unsplit guarantee and the
// sharded ≡ serial sweep all assume equal scenarios render equal
// reports.
func TestDetectorOrderDeterministic(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "shrunk", "detector-order-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d detector-order reproducers, want 2", len(paths))
	}
	for _, path := range paths {
		sys, err := sim.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		reports := make(map[string]int)
		for i := 0; i < determinismRuns; i++ {
			res, err := sys.Run()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			reports[res.Summary()]++
		}
		if len(reports) != 1 {
			counts := make([]int, 0, len(reports))
			for _, n := range reports { // order-independent: diagnostics only
				counts = append(counts, n)
			}
			t.Errorf("%s: %d runs rendered %d distinct reports (split %v)", path, determinismRuns, len(reports), counts)
		}
	}
}
