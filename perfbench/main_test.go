package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"
	"time"

	"repro/sim/scenario"
)

// tinySizes shrink every workload to a second or two.
var tinySizes = sizes{
	setupRuns:    2,
	hotDocs:      20,
	coldWarmDocs: 400,
	layerSample:  40,
	checkSample:  8,
	batchJobs:    1500,
}

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at tiny size and parses the result line
// exactly as printed.
func runTiny(t *testing.T, workload string, seed uint64, traced bool) (result, *report) {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     seed,
		seconds:  300 * time.Millisecond,
		trace:    traced,
		root:     "..",
		spans:    t.TempDir(),
		size:     tinySizes,
	}
	rep, err := runWorkload(cfg, workloads[workload])
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printReport(&out, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d, want a correct run with no failures; problems: %q",
			res.Correct, res.Attempted, res.Failed, rep.problems)
	}
	return res, rep
}

// TestWorkloadsTiny runs every workload on the default and the
// held-out seed, untraced and traced, and requires every metric
// BENCHMARK.json names for that mode on the result line, with its
// unit, and nothing else.
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, seed := range []uint64{1, 2} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/trace=%t", w.Name, seed, traced), func(t *testing.T) {
					res, _ := runTiny(t, w.Name, seed, traced)
					want := s.EndToEnd
					if traced {
						want = s.PerLayer
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", m.Name)
						case got.Unit != m.Unit:
							t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
						}
					}
				})
			}
		}
	}
}

// TestOutputPureFunctionOfSeed requires two runs of one seed to
// generate the same inputs and repeat every exact count (jobs,
// simulations), and another seed to generate other inputs.
func TestOutputPureFunctionOfSeed(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			_, a := runTiny(t, name, 1, false)
			_, b := runTiny(t, name, 1, false)
			_, c := runTiny(t, name, 2, false)
			if a.inputs != b.inputs {
				t.Errorf("seed 1 generated %s, then %s", a.inputs, b.inputs)
			}
			if !maps.Equal(a.exact, b.exact) {
				t.Errorf("exact counts differ between runs of seed 1: %v vs %v", a.exact, b.exact)
			}
			if len(a.exact) == 0 {
				t.Error("no exact counts recorded")
			}
			if a.inputs == c.inputs {
				t.Errorf("seeds 1 and 2 generated the same inputs %s", a.inputs)
			}
		})
	}
}

// inputs builds a workload's full-size inputs without running it and
// returns their fingerprint and shape.
func inputs(t *testing.T, workload string, seed uint64) (string, string) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 10 * time.Second, root: "..", size: defaultSizes}
	switch workload {
	case "serve-hot":
		docs, err := hotDocuments(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return hotFingerprint(docs, seed), fmt.Sprintf("documents=%d", len(docs))
	case "serve-cold":
		bodies, err := coldDocuments(coldBase(seed), cfg.size.coldWarmDocs)
		if err != nil {
			t.Fatal(err)
		}
		return bodiesFingerprint(bodies), fmt.Sprintf("documents=%d", len(bodies))
	default:
		c, err := buildBatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shape []string
		for _, sc := range c.scs {
			shape = append(shape, batchShape(sc))
		}
		return bodiesFingerprint(c.bodies), strings.Join(shape, "\n")
	}
}

// batchShape is everything about a batch entry the seed must not move.
func batchShape(sc scenario.Scenario) string {
	var kinds []string
	for _, a := range sc.Arrivals {
		kinds = append(kinds, a.Kind)
	}
	return fmt.Sprintf("cpus=%d tasks=%d policy=%q treatment=%q stream=%t skip=%t verify=%t faults=%d arrivals=%v",
		sc.CPUs, len(sc.Tasks), sc.Policy, sc.Treatment, sc.Streaming(), sc.SkipAdmission, sc.Verify, len(sc.Faults), kinds)
}

// TestInputFingerprints pins the default seed's full-size inputs, so a
// drift in internal/verify/gen, the taskset generator or the scenario
// codec fails here instead of silently shifting the baseline; and it
// requires the held-out seed 2 to yield a different corpus of the same
// shape.
func TestInputFingerprints(t *testing.T) {
	pinned := map[string]string{
		"serve-hot":  "ca364b098d6693b5c8d0e2ade2bcecbf9d29b61b789e076773d1eb9aa7411474",
		"serve-cold": "3efdfbb50660fae707ca606d4219adf6db6b259003bb53764c71a8dedc6d2be5",
		"batch-long": "4eb638580bc16319a1922869fd3c2e8b834061db4bff6a1c77e820c91203a74f",
	}
	for name, want := range pinned {
		t.Run(name, func(t *testing.T) {
			sum, shape := inputs(t, name, 1)
			if sum != want {
				t.Errorf("default-seed inputs hash to %s, pinned %s", sum, want)
			}
			heldOut, heldShape := inputs(t, name, 2)
			if heldOut == sum {
				t.Error("the held-out seed generated the default seed's inputs")
			}
			if heldShape != shape {
				t.Errorf("held-out shape\n%s\ndiffers from the default seed's\n%s", heldShape, shape)
			}
		})
	}
}

// TestBadArguments requires a usage error to exit non-zero without a
// result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "serve-warm"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "batch-long", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with stdout %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
