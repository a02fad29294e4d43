package gen_test

import (
	"fmt"
	"testing"

	"repro/internal/verify/gen"
	"repro/sim"
	"repro/sim/scenario"
)

// runVerified runs the scenario under the invariant oracle in the
// given collection mode and returns the rendered report and the run
// error (nil = all axioms held).
func runVerified(sc scenario.Scenario, mode string) (string, error) {
	sc.Collect = &scenario.Collect{Mode: mode}
	sc.Verify = true
	sys, err := sim.FromScenario(sc)
	if err != nil {
		return "", fmt.Errorf("build: %w", err)
	}
	res, err := sys.Run()
	if err != nil {
		return "", err
	}
	return res.Summary(), nil
}

// FuzzScenario is the native fuzz target over the scenario space: any
// seed must derive a scenario whose run satisfies every scheduling
// axiom, in every legal collection mode, and renders the same report
// when run twice. A seed violating an axiom is shrunk to a minimal
// reproducer so the report is actionable.
//
// CI runs this as a short smoke on every PR and a longer non-blocking
// pass nightly: go test -fuzz=FuzzScenario ./internal/verify/gen
func FuzzScenario(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	// Multiprocessor corpus: the smallest seeds drawing each core
	// count (49→2, 53→4, 139→8 global; 38/58/25 partitioned), so the
	// fuzzer starts from every placement the codec can express.
	for _, seed := range []uint64{49, 53, 139, 38, 58, 25} {
		f.Add(seed)
	}
	// Fast-forward corpus: seeds whose FastForwardable derivation
	// covers both policies, multicore and long offsets, so the
	// fast-forward leg starts from every eligible shape.
	for _, seed := range []uint64{3, 5, 11, 17} {
		f.Add(seed)
	}
	// Arrival-source corpus: the smallest seeds drawing each source
	// kind (7→poisson, 41→mmpp, 36→trace), so the fuzzer starts from
	// every open-arrival release law the codec can express.
	for _, seed := range []uint64{7, 41, 36} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		// Fast-forward leg: the seed's FastForwardable derivation must
		// reproduce its oracle-verified full run across the analytic
		// jump (counts exactly, percentiles within the widened bound).
		if err := sim.FastForwardCheck(seed); err != nil {
			t.Fatalf("fast-forward differential: %v", err)
		}
		sc := gen.Scenario(seed)
		for _, mode := range gen.LegalCollectModes(&sc) {
			first, err := runVerified(sc, mode)
			if err != nil {
				// Stamp the failing mode so the written reproducer
				// replays in it, shrink each candidate under its own
				// collect block (sim.OracleFailure — oracle
				// violations only, per gen.Failure's contract), and
				// persist under the repository's testdata/shrunk so
				// the artefact outlives the test.
				failing := sc
				failing.Collect = &scenario.Collect{Mode: mode}
				repro := gen.Reproduce(gen.ReproducerPath(), failing, sim.OracleFailure)
				t.Fatalf("seed %#x (%s collection) violates the scheduling axioms: %v\nreproducer: %s",
					seed, mode, err, repro)
			}
			// Go randomizes map iteration on every range, so a second
			// run exposes a map-order dependence no single run can.
			if second, err := runVerified(sc, mode); err != nil || second != first {
				t.Fatalf("seed %#x (%s collection): a second run rendered another report (err %v)", seed, mode, err)
			}
		}
	})
}

// TestFuzzSeedsSmoke keeps the fuzz body exercised under plain `go
// test` (fuzzing only runs with -fuzz): a deterministic sweep over a
// small seed range.
func TestFuzzSeedsSmoke(t *testing.T) {
	seeds := make([]uint64, 0, 30)
	for seed := uint64(0); seed < 24; seed++ {
		seeds = append(seeds, seed)
	}
	// The multiprocessor corpus seeds (see FuzzScenario).
	seeds = append(seeds, 49, 53, 139, 38, 58, 25)
	// The arrival-source corpus seeds (see FuzzScenario).
	seeds = append(seeds, 7, 41, 36)
	for _, seed := range seeds {
		sc := gen.Scenario(seed)
		for _, mode := range gen.LegalCollectModes(&sc) {
			first, err := runVerified(sc, mode)
			if err != nil {
				t.Errorf("seed %d (%s): %v", seed, mode, err)
				continue
			}
			if second, err := runVerified(sc, mode); err != nil || second != first {
				t.Errorf("seed %d (%s): a second run rendered another report (err %v)", seed, mode, err)
			}
		}
	}
	// The fast-forward corpus seeds (see FuzzScenario's fast-forward
	// leg); the full x14 sweep covers a wider range.
	for _, seed := range []uint64{3, 5, 11, 17} {
		if err := sim.FastForwardCheck(seed); err != nil {
			t.Errorf("seed %d fast-forward differential: %v", seed, err)
		}
	}
}
