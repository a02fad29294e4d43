package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/sim"
)

func TestListEnumeratesRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtexp -list exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := len(sim.Experiments()); len(lines) != want {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), want, out)
	}
	for _, e := range sim.Experiments() {
		if !strings.Contains(out, e.Name) || !strings.Contains(out, e.Description) {
			t.Errorf("-list output missing %q / its description:\n%s", e.Name, out)
		}
	}
}

// TestTable2Golden pins the CLI wiring: -exp table2 prints exactly
// the library's rendering of the paper's Table 2.
func TestTable2Golden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "table2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtexp -exp table2 exited %d: %s", code, stderr.String())
	}
	rows, err := experiments.Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.RenderTable2(rows) + "\n"
	if stdout.String() != want {
		t.Errorf("output differs from RenderTable2:\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
	for _, cell := range []string{"tau1", "200", "70", "29", "11", "33"} {
		if !strings.Contains(stdout.String(), cell) {
			t.Errorf("output missing %q:\n%s", cell, stdout.String())
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "table2", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var line struct {
		Artefact string `json:"artefact"`
		Data     any    `json:"data"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &line); err != nil {
		t.Fatalf("-json output is not one JSON object: %v\n%s", err, stdout.String())
	}
	if line.Artefact != "table2" || line.Data == nil {
		t.Errorf("JSON line = %+v", line)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Errorf("error must name the experiment: %s", stderr.String())
	}
}

func TestFigureOf(t *testing.T) {
	if fig, ok := figureOf("fig5"); !ok || fig != experiments.Figure5 {
		t.Errorf("figureOf(fig5) = %v, %v", fig, ok)
	}
	for _, name := range []string{"table2", "x1", "figment"} {
		if _, ok := figureOf(name); ok {
			t.Errorf("figureOf(%q) must be false", name)
		}
	}
}
