package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/sim"
)

// The trace goldens pin the engine's observable behaviour byte for
// byte: every scenario under testdata/scenarios and every figure/table
// artefact of the paper is run and its Log.Encode output (or rendered
// text) diffed against testdata/goldens. The goldens were captured
// from the engine before the typed-event-loop rework, so any scheduler
// rearchitecture that changes even one event's order or timestamp
// fails here. Traces above goldenInlineLimit are stored as a SHA-256
// digest instead of full bytes to keep the repository small; equality
// pinned is the same.
var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/goldens from the current engine")

const goldenInlineLimit = 256 << 10 // bytes of trace stored verbatim

// goldenDir is where the pinned artefacts live.
const goldenDir = "testdata/goldens"

// checkGolden compares got against the stored golden for name,
// rewriting it under -update-goldens. Large payloads are pinned by
// digest (name.sha256) instead of verbatim bytes (name).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	plain := filepath.Join(goldenDir, name)
	hashed := plain + ".sha256"
	if *updateGoldens {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if len(got) > goldenInlineLimit {
			sum := sha256.Sum256(got)
			os.Remove(plain)
			if err := os.WriteFile(hashed, []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			os.Remove(hashed)
			if err := os.WriteFile(plain, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if want, err := os.ReadFile(plain); err == nil {
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output differs from golden (%d vs %d bytes); first divergence at byte %d\n"+
				"rerun with -update-goldens only if the change is intended",
				name, len(got), len(want), firstDiff(got, want))
		}
		return
	}
	want, err := os.ReadFile(hashed)
	if err != nil {
		t.Fatalf("%s: no golden found (run `go test -run TestTraceGoldens -update-goldens` once): %v", name, err)
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != strings.TrimSpace(string(want)) {
		t.Errorf("%s: trace digest differs from golden (%d bytes produced)", name, len(got))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestTraceGoldens runs every example scenario and diffs the full
// trace against the pre-refactor goldens. Streaming scenarios pin the
// spilled trace (identical bytes by construction, see trace.WriterSink).
func TestTraceGoldens(t *testing.T) {
	files, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenarios found")
	}
	sort.Strings(files)
	for _, f := range files {
		f := f
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		t.Run(name, func(t *testing.T) {
			s, err := sim.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			sc := s.Scenario()
			var spill bytes.Buffer
			if sc.Streaming() {
				s.SpillTrace(&spill)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			if sc.Streaming() {
				trace = spill
			} else if err := res.Log.Encode(&trace); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".trace", trace.Bytes())
		})
	}
}

// TestFigureGoldens pins the Figures 3–7 traces — the paper's charted
// artefacts — byte for byte.
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []experiments.Figure{
		experiments.Figure3, experiments.Figure4, experiments.Figure5,
		experiments.Figure6, experiments.Figure7,
	} {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", int(fig)), func(t *testing.T) {
			res, err := experiments.RunFigure(fig)
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			if err := res.Log.Encode(&trace); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("fig%d.trace", int(fig)), trace.Bytes())
		})
	}
}

// experimentText runs a registered experiment with default options
// and returns the text rtexp prints for it.
func experimentText(name string) (string, error) {
	e, ok := sim.LookupExperiment(name)
	if !ok {
		return "", fmt.Errorf("no experiment %q", name)
	}
	res, err := e.Run(context.Background(), sim.RunOptions{})
	return res.Text, err
}

// TestTableGoldens pins the rendered Table 1–3 artefacts (analysis
// outputs, engine-independent — they guard the shared rendering) and
// the X2 and X4 sweep tables, whose success ratios come from whole
// simulated runs.
func TestTableGoldens(t *testing.T) {
	render := map[string]func() (string, error){
		"table1": func() (string, error) {
			rows, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable1(rows), nil
		},
		"table2": func() (string, error) {
			rows, err := experiments.Table2()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable2(rows), nil
		},
		"table3": func() (string, error) {
			rows, err := experiments.Table3()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable3(rows), nil
		},
		"x2": func() (string, error) { return experimentText("x2") },
		"x4": func() (string, error) { return experimentText("x4") },
	}
	names := make([]string, 0, len(render))
	for n := range render {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		n := n
		t.Run(n, func(t *testing.T) {
			out, err := render[n]()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, n+".txt", []byte(out))
		})
	}
}
