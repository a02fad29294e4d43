package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The bench gate is shell + jq; these tests prove the two properties
// CI relies on: the committed baseline passes its own gate, and a
// synthetically degraded bench.txt — pushed through the real
// bench_engine_json.sh extractor — fails it. Skipped where the
// interpreters are absent (the CI image and the dev container have
// both).
func requireTools(t *testing.T, tools ...string) {
	t.Helper()
	for _, tool := range tools {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not installed", tool)
		}
	}
}

// runScript executes a repo script with the repo root as cwd.
func runScript(t *testing.T, env []string, script string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("bash", append([]string{script}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

// latestBaseline returns the highest committed bench/history entry —
// the same selection rule bench_gate.sh applies.
func latestBaseline(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("bench", "history"))
	if err != nil {
		t.Fatalf("bench/history missing: %v", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) == 0 {
		t.Fatal("bench/history has no baseline entries")
	}
	sort.Strings(dirs)
	return filepath.Join("bench", "history", dirs[len(dirs)-1])
}

type benchEntry struct {
	Benchmark    string   `json:"benchmark"`
	Tasks        *int     `json:"tasks"`
	EventsPerSec *float64 `json:"events_per_sec"`
}

// degradedBenchTxt renders a synthetic `go test -bench` output whose
// events_per_sec figures are the committed baseline's scaled by
// factor — the input a regressed engine would produce.
func degradedBenchTxt(t *testing.T, baseline string, factor float64) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(baseline, "BENCH_gate.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []benchEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("baseline JSON: %v", err)
	}
	var b strings.Builder
	for _, e := range entries {
		if e.EventsPerSec == nil {
			continue // derived entries (scaling_sublinearity) have no rate
		}
		eps := int(*e.EventsPerSec * factor)
		if e.Tasks != nil {
			fmt.Fprintf(&b, "%s-1 \t 1 \t 100 ns/op \t 10 events \t %d events_per_sec \t 5 switches \t 8 B/op \t 2 allocs/op\n",
				e.Benchmark, eps)
		} else {
			fmt.Fprintf(&b, "%s-1 \t 1 \t 100 ns/op \t %d events_per_sec \t 10 trace_events \t 8 B/op \t 2 allocs/op\n",
				e.Benchmark, eps)
		}
	}
	return b.String()
}

// TestBenchGatePassesOnBaseline: the committed baseline gates itself
// at 0% change.
func TestBenchGatePassesOnBaseline(t *testing.T) {
	requireTools(t, "bash", "jq", "find")
	fresh := filepath.Join(latestBaseline(t), "BENCH_gate.json")
	out, err := runScript(t, nil, filepath.Join("scripts", "bench_gate.sh"), fresh)
	if err != nil {
		t.Fatalf("gate failed on its own baseline: %v\n%s", err, out)
	}
	if !strings.Contains(out, "bench_gate: ok —") {
		t.Errorf("gate output missing the pass summary:\n%s", out)
	}
}

// TestBenchGateFailsOnDegradedBench: a bench.txt with every
// events_per_sec halved flows through the real extractor and trips
// the gate; raising GATE_TOLERANCE_PCT past the injected loss lets
// the same numbers through (the 1-CPU noise-allowance knob).
func TestBenchGateFailsOnDegradedBench(t *testing.T) {
	requireTools(t, "bash", "jq", "awk", "find")
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(degradedBenchTxt(t, latestBaseline(t), 0.5)), 0o644); err != nil {
		t.Fatal(err)
	}
	freshJSON := filepath.Join(dir, "BENCH_gate.json")
	// REQUIRE_SCALING=0 REQUIRE_FASTFORWARD=0 REQUIRE_OPENARRIVALS=0:
	// the gate capture holds only the throughput pair, exactly as make
	// bench-gate invokes the extractor.
	if out, err := runScript(t, []string{"REQUIRE_SCALING=0", "REQUIRE_FASTFORWARD=0", "REQUIRE_OPENARRIVALS=0"},
		filepath.Join("scripts", "bench_engine_json.sh"), benchTxt, freshJSON); err != nil {
		t.Fatalf("bench_engine_json.sh rejected the synthetic bench.txt: %v\n%s", err, out)
	}

	out, err := runScript(t, nil, filepath.Join("scripts", "bench_gate.sh"), freshJSON)
	if err == nil {
		t.Fatalf("gate passed a 50%% events/sec regression:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "events/sec regressed") {
		t.Errorf("gate failure does not name the regression:\n%s", out)
	}

	out, err = runScript(t, []string{"GATE_TOLERANCE_PCT=60"},
		filepath.Join("scripts", "bench_gate.sh"), freshJSON)
	if err != nil {
		t.Errorf("gate failed a 50%% loss at 60%% tolerance: %v\n%s", err, out)
	}
}

// TestBenchGateFailsOnMissingBenchmark: a fresh run that silently
// dropped a gated benchmark is a failure, not a smaller comparison.
func TestBenchGateFailsOnMissingBenchmark(t *testing.T) {
	requireTools(t, "bash", "jq", "find")
	raw, err := os.ReadFile(filepath.Join(latestBaseline(t), "BENCH_gate.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []benchEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	// Drop every entry of the first gated benchmark (baselines carry
	// -count repetitions, so pruning one line would leave the rest).
	var victim string
	for _, e := range entries {
		if e.EventsPerSec != nil {
			victim = e.Benchmark
			break
		}
	}
	if victim == "" {
		t.Fatal("baseline has no gated entries")
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(raw, &raws); err != nil {
		t.Fatal(err)
	}
	kept := raws[:0]
	for i, e := range entries {
		if e.Benchmark != victim {
			kept = append(kept, raws[i])
		}
	}
	pruned, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := os.WriteFile(fresh, pruned, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runScript(t, nil, filepath.Join("scripts", "bench_gate.sh"), fresh)
	if err == nil {
		t.Fatalf("gate passed with a baseline benchmark missing:\n%s", out)
	}
	if !strings.Contains(out, "missing from the fresh run") {
		t.Errorf("gate failure does not name the missing benchmark:\n%s", out)
	}
}

// TestBenchEngineJSONMandatoryFields: the extractor refuses a
// bench.txt whose throughput lines lost events_per_sec — that field
// feeds the gate, so "null" there must be a red run, not an artefact.
func TestBenchEngineJSONMandatoryFields(t *testing.T) {
	requireTools(t, "bash", "awk")
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	stripped := "BenchmarkEngineThroughput-1 \t 1 \t 100 ns/op \t 10 trace_events \t 8 B/op \t 2 allocs/op\n" +
		"BenchmarkEngineScaling/tasks=10-1 \t 1 \t 100 ns/op \t 10 events \t 5 switches \t 8 B/op \t 2 allocs/op\n"
	if err := os.WriteFile(benchTxt, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runScript(t, nil, filepath.Join("scripts", "bench_engine_json.sh"),
		benchTxt, filepath.Join(dir, "out.json"))
	if err == nil {
		t.Fatalf("extractor accepted lines without events_per_sec:\n%s", out)
	}
	if !strings.Contains(out, "events_per_sec") {
		t.Errorf("extractor error does not name the missing field:\n%s", out)
	}
}

// TestBenchEngineJSONGlobalDispatch: the extractor derives one
// global_dispatch row per core count above 1 — the best ns/event at
// cores=M over the best at cores=1, across -count draws — with no
// events_per_sec field, so the gate (which reads only that field)
// never gates a derived row.
func TestBenchEngineJSONGlobalDispatch(t *testing.T) {
	requireTools(t, "bash", "awk")
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	line := func(cores int, eps int) string {
		return fmt.Sprintf("BenchmarkEngineThroughput/cores=%d-2 \t 20 \t 100 ns/op \t 10 trace_events \t %d events_per_sec \t 8 B/op \t 2 allocs/op\n", cores, eps)
	}
	txt := line(1, 8_000_000) + line(1, 10_000_000) + line(2, 4_000_000) + line(2, 5_000_000) +
		line(8, 2_500_000) + "BenchmarkEngineThroughputRetain-2 \t 20 \t 100 ns/op \t 10 trace_events \t 9000000 events_per_sec \t 8 B/op \t 2 allocs/op\n"
	if err := os.WriteFile(benchTxt, []byte(txt), 0o644); err != nil {
		t.Fatal(err)
	}
	outJSON := filepath.Join(dir, "BENCH_gate.json")
	if out, err := runScript(t, []string{"REQUIRE_SCALING=0", "REQUIRE_FASTFORWARD=0", "REQUIRE_OPENARRIVALS=0"},
		filepath.Join("scripts", "bench_engine_json.sh"), benchTxt, outJSON); err != nil {
		t.Fatalf("extractor failed: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Benchmark    string   `json:"benchmark"`
		Cores        int      `json:"cores"`
		NsPerEvent   float64  `json:"ns_per_event"`
		NsPerEventC1 float64  `json:"ns_per_event_c1"`
		Ratio        float64  `json:"ratio"`
		EventsPerSec *float64 `json:"events_per_sec"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("extractor output is not JSON: %v\n%s", err, raw)
	}
	got := map[int]string{}
	for _, r := range rows {
		if r.Benchmark != "global_dispatch" {
			continue
		}
		if r.EventsPerSec != nil {
			t.Errorf("global_dispatch row for %d cores carries events_per_sec, which the gate would read", r.Cores)
		}
		got[r.Cores] = fmt.Sprintf("%.1f/%.1f=%.3f", r.NsPerEvent, r.NsPerEventC1, r.Ratio)
	}
	// Best draws: 100 ns/event at cores=1, 200 at cores=2, 400 at 8.
	want := map[int]string{2: "200.0/100.0=2.000", 8: "400.0/100.0=4.000"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("global_dispatch rows %v, want %v\n%s", got, want, raw)
	}
}

// runABStats runs scripts/ab_stats.go on the given runs with a
// two-metric spec: ops_per_s (higher is better), p50_ms (lower) and
// peak_rss_mb, which no run reports.
func runABStats(t *testing.T, runs string) (string, error) {
	t.Helper()
	requireTools(t, "go")
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "ops_per_s", "better": "higher"},
		{"name": "p50_ms", "better": "lower"},
		{"name": "peak_rss_mb", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", filepath.Join("scripts", "ab_stats.go"), "-spec", spec)
	cmd.Stdin = strings.NewReader(runs)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func abRun(side string, ops, p50 float64) string {
	return fmt.Sprintf(`%s {"correct":true,"attempted":100,"failed":0,"metrics":{"ops_per_s":{"value":%g,"unit":"ops/s"},"p50_ms":{"value":%g,"unit":"ms"}}}`+"\n", side, ops, p50)
}

// TestABStatsSummarizesPairs feeds the A/B helper ten synthetic ABBA
// pairs: HEAD is 1.2× BASE on ops_per_s in every pair, and p50_ms
// moves ±1% either way. The report gives each side's median and
// quartiles, HEAD's wins, and the median ratio with its interval: 1.2
// on a degenerate [1.2, 1.2] interval (better), and an interval
// containing 1 for p50_ms (no measurable change). The report is the
// same on every run, and a single pair gets no verdict.
func TestABStatsSummarizesPairs(t *testing.T) {
	var runs strings.Builder
	for k := 0; k < 10; k++ {
		ops := 100 + float64(k)
		p50 := 1 + 0.01*float64(k%2*2-1)
		if k%2 == 0 {
			runs.WriteString(abRun("base", ops, 1) + abRun("head", 1.2*ops, p50))
		} else {
			runs.WriteString(abRun("head", 1.2*ops, p50) + abRun("base", ops, 1))
		}
	}
	out, err := runABStats(t, runs.String())
	if err != nil {
		t.Fatalf("ab_stats: %v\n%s", err, out)
	}
	for _, want := range []string{
		"ops_per_s    104.5 (102.2-106.8)  ",
		"125.4 (122.7-128.1)",
		"10/10     1.200 [1.200, 1.200] better",
		"p50_ms       1 (1-1)",
		"5/10",
		"no measurable change",
		"peak_rss_mb  (not reported)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	again, err := runABStats(t, runs.String())
	if err != nil || again != out {
		t.Errorf("a second run printed a different report (err %v):\n%s", err, again)
	}
	few, err := runABStats(t, abRun("base", 100, 1)+abRun("head", 120, 1))
	if err != nil || !strings.Contains(few, "too few pairs to judge") {
		t.Errorf("one pair must get no verdict (err %v):\n%s", err, few)
	}
}

// TestABStatsRejectsBadRuns: an incorrect run, a run with failed
// operations, or unequal run counts fail the helper.
func TestABStatsRejectsBadRuns(t *testing.T) {
	cases := map[string]string{
		"incorrect": abRun("base", 100, 1) + strings.Replace(abRun("head", 120, 1), `"correct":true`, `"correct":false`, 1),
		"failed":    abRun("base", 100, 1) + strings.Replace(abRun("head", 120, 1), `"failed":0`, `"failed":3`, 1),
		"unpaired":  abRun("base", 100, 1) + abRun("base", 100, 1) + abRun("head", 120, 1),
	}
	for _, name := range []string{"incorrect", "failed", "unpaired"} {
		if out, err := runABStats(t, cases[name]); err == nil {
			t.Errorf("%s: helper accepted the runs:\n%s", name, out)
		}
	}
}
