package sim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

func scenarioPath(name string) string {
	return filepath.Join("..", "testdata", "scenarios", name)
}

// TestRegistryMatchesDirectCalls is the redesign's equivalence
// guarantee: running each experiment through the registry produces
// output byte-identical to the pre-redesign internal/experiments
// entry points.
func TestRegistryMatchesDirectCalls(t *testing.T) {
	ctx := context.Background()
	opt := experiments.RunOptions{}
	direct := map[string]func() (string, error){
		"x1": func() (string, error) {
			points, err := experiments.DetectorOverheadSweepCtx(ctx, []int{2, 4, 8, 16}, 7, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderOverhead(points), nil
		},
		"x2": func() (string, error) {
			points, err := experiments.FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(5), opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderSweep(points), nil
		},
		"x3": func() (string, error) {
			points, err := experiments.TimerResolutionSweepCtx(ctx, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderResolution(points), nil
		},
		"x4": func() (string, error) {
			points, err := experiments.BaselineComparisonCtx(ctx, vtime.Millis(50), 6*vtime.Second, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderBaselines(points), nil
		},
		"x5": func() (string, error) {
			points, err := experiments.AcceptanceSweepCtx(ctx,
				[]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 200, 5, 11, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderAcceptance(points), nil
		},
	}
	for name, fn := range direct {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			e, ok := LookupExperiment(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			res, err := e.Run(ctx, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Text != want {
				t.Errorf("registry output differs from direct call:\n--- registry ---\n%s\n--- direct ---\n%s", res.Text, want)
			}
			if res.Data == nil {
				t.Error("registry result has no structured data")
			}
		})
	}
}

// TestRegistryCoversRtexpArtefacts pins the experiment table's
// inventory and its order (the order cmd/rtexp prints): unique names,
// each with a description and a Run, each found by LookupExperiment.
func TestRegistryCoversRtexpArtefacts(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
		"x1", "x2", "x3", "x9", "x5", "x4", "x10", "x11", "x12", "x13", "x14", "x15"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("table has %d experiments, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Name, want[i])
		}
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q has no description or no Run", e.Name)
		}
		if l, ok := LookupExperiment(e.Name); !ok || l.Description != e.Description {
			t.Errorf("LookupExperiment(%q) = %q, %v", e.Name, l.Name, ok)
		}
	}
	if _, ok := LookupExperiment("x6"); ok {
		t.Error("LookupExperiment found an experiment that is not in the table")
	}
}

// TestScenarioFigure5MatchesRunFigure: the declarative figure5
// scenario produces the very trace of the hard-coded experiment.
func TestScenarioFigure5MatchesRunFigure(t *testing.T) {
	sys, err := Load(scenarioPath("figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunFigure(experiments.Figure5)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Log.EncodeString(), want.Log.EncodeString(); g != w {
		t.Errorf("scenario trace differs from RunFigure(Figure5):\n--- scenario ---\n%s\n--- direct ---\n%s", g, w)
	}
	if got.Detections != want.Detections {
		t.Errorf("detections = %d, want %d", got.Detections, want.Detections)
	}
	if got.Admission == nil || !got.Admission.Feasible {
		t.Error("admission report missing or infeasible")
	}
}

func TestOverloadScenarioRuns(t *testing.T) {
	sys, err := Load(scenarioPath("edf-overload.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != nil || res.Allowance != nil {
		t.Error("skip_admission run must not carry admission artifacts")
	}
	if r := res.SuccessRatio(); r <= 0 || r >= 1 {
		t.Errorf("overloaded EDF success ratio = %v, want strictly between 0 and 1", r)
	}
}

func TestAperiodicScenarioServesRequests(t *testing.T) {
	sys, err := Load(scenarioPath("aperiodic-server.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	served, ok := res.Served["server"]
	if !ok {
		t.Fatalf("no served results for the server task; Served = %v", res.Served)
	}
	if len(served) != 5 {
		t.Fatalf("served %d requests, want 5", len(served))
	}
	done := 0
	for _, s := range served {
		if s.Done {
			done++
		}
	}
	if done == 0 {
		t.Error("no aperiodic request completed within the horizon")
	}
	if failed := res.Report.Tasks["control"].Failed; failed != 0 {
		t.Errorf("periodic task failed %d jobs during the burst, want 0", failed)
	}
}

func TestSystemIsRerunnable(t *testing.T) {
	sys, err := Load(scenarioPath("jitter-stop.json"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f, s := first.Log.EncodeString(), second.Log.EncodeString(); f != s {
		t.Error("two runs of one System differ; runs must be deterministic")
	}
}

// TestNewValidates: FromScenario refuses an empty scenario, names an
// unknown policy, and refuses a treatment without admission control.
func TestNewValidates(t *testing.T) {
	if _, err := FromScenario(Scenario{}); err == nil {
		t.Error("empty scenario must be rejected")
	}
	tasks := []Task{{Name: "a", Priority: 1, Period: Millis(10), Deadline: Millis(10), Cost: Millis(1)}}
	if _, err := FromScenario(Scenario{Tasks: tasks, Horizon: Millis(100), Policy: "no-such-policy"}); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Errorf("unknown policy must be named in the error, got %v", err)
	}
	if _, err := FromScenario(Scenario{Tasks: tasks, Horizon: Millis(100), Treatment: "stop", SkipAdmission: true}); err == nil {
		t.Error("skip_admission with a treatment must be rejected")
	}
}

func TestPoliciesRegistry(t *testing.T) {
	names := Policies()
	want := map[string]bool{"fixed-priority": false, "edf": false, "best-effort": false, "red": false, "d-over": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("policy %q not registered (got %v)", n, names)
		}
	}
}

// TestLongDeadlineScenarioRunsUnderEveryTreatment pins a feasible
// system whose allowance is far larger than 2^50 ns: b's period and
// deadline are 3 000 000 s, so b may overrun by 2 699 999 999 ms. It
// is admitted and runs under every treatment.
func TestLongDeadlineScenarioRunsUnderEveryTreatment(t *testing.T) {
	tasks := []scenario.Task{
		scenario.FromTask(taskset.Task{Name: "a", Priority: 2, Period: vtime.Millis(20), Deadline: vtime.Millis(20), Cost: vtime.Millis(2)}),
		scenario.FromTask(taskset.Task{Name: "b", Priority: 1, Period: vtime.Millis(3_000_000_000), Deadline: vtime.Millis(3_000_000_000), Cost: vtime.Millis(1)}),
	}
	for _, tr := range []string{"none", "detect", "stop", "equitable", "system"} {
		sys, err := FromScenario(Scenario{
			Name:      "long-deadline",
			Treatment: tr,
			Horizon:   scenario.Duration(vtime.Millis(100)),
			Tasks:     tasks,
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if got, want := res.Allowance.MaxOverrun()[1], vtime.Millis(2_699_999_999); got != want {
			t.Errorf("%s: maxOverrun(b) = %v, want %v", tr, got, want)
		}
	}
}
