package chart

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func figureRun(t *testing.T, tr detect.Treatment) *core.Result {
	t.Helper()
	s := taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
	sys, err := core.NewSystem(core.Config{
		Tasks:           s,
		Treatment:       tr,
		Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		Horizon:         ms(1500),
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func figOpts() Options {
	return Options{
		From:   vtime.AtMillis(990),
		To:     vtime.AtMillis(1140),
		CellMS: 2,
		Tasks:  []string{"tau1", "tau2", "tau3"},
		WCRTMarks: map[string]vtime.Duration{
			"tau1": ms(29), "tau2": ms(58), "tau3": ms(87),
		},
	}
}

func figDeadlines() map[string]vtime.Duration {
	return map[string]vtime.Duration{"tau1": ms(70), "tau2": ms(120), "tau3": ms(120)}
}

func TestASCIIFigure3ShowsMiss(t *testing.T) {
	res := figureRun(t, detect.NoDetection)
	out := ASCII(res.Log, figOpts(), figDeadlines())
	for _, want := range []string{"tau1", "tau2", "tau3", "legend", "█", "↑", "!"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII chart missing %q:\n%s", want, out)
		}
	}
	// Three lanes plus axis: at least 5 lines.
	if strings.Count(out, "\n") < 5 {
		t.Errorf("chart too short:\n%s", out)
	}
}

func TestASCIIFigure5ShowsStopAndDetectors(t *testing.T) {
	res := figureRun(t, detect.Stop)
	out := ASCII(res.Log, figOpts(), figDeadlines())
	if !strings.Contains(out, "X") {
		t.Errorf("stop glyph missing:\n%s", out)
	}
	if !strings.Contains(out, "◆") {
		t.Errorf("detector glyph missing:\n%s", out)
	}
	lanes := out[:strings.Index(out, "legend")]
	if strings.Contains(lanes, "!") {
		t.Errorf("no deadline miss expected under stop (only tau1 is stopped):\n%s", out)
	}
}

func TestASCIIDefaults(t *testing.T) {
	res := figureRun(t, detect.NoDetection)
	// No options: defaults must not panic and must include all tasks.
	out := ASCII(res.Log, Options{From: vtime.AtMillis(0), To: vtime.AtMillis(200)}, nil)
	for _, task := range []string{"tau1", "tau2", "tau3"} {
		if !strings.Contains(out, task) {
			t.Errorf("default chart missing %s", task)
		}
	}
	// Degenerate window.
	out = ASCII(res.Log, Options{From: vtime.AtMillis(50), To: vtime.AtMillis(50)}, nil)
	if out == "" {
		t.Error("degenerate window must still render")
	}
}

func TestSVGWellFormed(t *testing.T) {
	res := figureRun(t, detect.SystemAllowance)
	out := SVG(res.Log, figOpts(), figDeadlines())
	checks := []string{
		"<svg", "</svg>", "xmlns=\"http://www.w3.org/2000/svg\"",
		"tau1", "tau2", "tau3", "<rect", "<path",
	}
	for _, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<svg") != 1 || strings.Count(out, "</svg>") != 1 {
		t.Error("SVG must have exactly one root element")
	}
}

func TestBurstReconstruction(t *testing.T) {
	// Synthetic log: a burst split by preemption renders as two
	// separate execution runs with a gap.
	l := trace.NewLog()
	add := func(atMS int64, k trace.Kind) {
		l.Append(trace.Event{At: vtime.AtMillis(atMS), Kind: k, Task: "a", Job: 0})
	}
	add(0, trace.JobRelease)
	add(0, trace.JobBegin)
	add(10, trace.JobPreempt)
	add(30, trace.JobResume)
	add(40, trace.JobEnd)
	out := ASCII(l, Options{From: 0, To: vtime.AtMillis(50), CellMS: 2, Tasks: []string{"a"}}, nil)
	lane := strings.SplitN(out, "\n", 2)[0]
	// Cells 0..4 exec, 5..14 idle, 15..19 exec.
	if !strings.Contains(lane, "█████") {
		t.Errorf("first burst missing: %s", lane)
	}
	if !strings.Contains(lane, "·····") {
		t.Errorf("preemption gap missing: %s", lane)
	}
}

func TestOpenBurstAtWindowEnd(t *testing.T) {
	l := trace.NewLog()
	l.Append(trace.Event{At: vtime.AtMillis(0), Kind: trace.JobBegin, Task: "a", Job: 0})
	out := ASCII(l, Options{From: 0, To: vtime.AtMillis(20), CellMS: 2, Tasks: []string{"a"}}, nil)
	if !strings.Contains(out, "██████████") {
		t.Errorf("open burst must extend to the window end:\n%s", out)
	}
}
