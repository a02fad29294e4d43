package baselines

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func feasibleSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "a", Priority: 3, Period: ms(100), Deadline: ms(100), Cost: ms(30), Value: 10},
		taskset.Task{Name: "b", Priority: 2, Period: ms(150), Deadline: ms(150), Cost: ms(30), Value: 5},
		taskset.Task{Name: "c", Priority: 1, Period: ms(300), Deadline: ms(300), Cost: ms(60), Value: 1},
	)
}

// overloadedSet has U = 1.4: sustained overload.
func overloadedSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 3, Period: ms(100), Deadline: ms(100), Cost: ms(60), Value: 10},
		taskset.Task{Name: "mid", Priority: 2, Period: ms(100), Deadline: ms(100), Cost: ms(50), Value: 5},
		taskset.Task{Name: "lo", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(30), Value: 1},
	)
}

// runLog runs cfg to the horizon and returns the events it recorded.
func runLog(t *testing.T, cfg engine.Config) *trace.Log {
	t.Helper()
	log := trace.NewLog()
	cfg.Sink = log
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return log
}

func runPolicy(t *testing.T, s *taskset.Set, p engine.Policy, horizon int64) *metrics.Report {
	t.Helper()
	return metrics.Analyze(runLog(t, engine.Config{Tasks: s, Policy: p, End: at(horizon)}))
}

func TestEDFSchedulesFeasibleSetPerfectly(t *testing.T) {
	// EDF is optimal on a uniprocessor: U ≈ 0.7 → zero failures.
	rep := runPolicy(t, feasibleSet(), EDF{}, 3000)
	if rep.TotalFailed() != 0 {
		t.Fatalf("EDF failed %d jobs on a feasible set\n%s", rep.TotalFailed(), rep.Render())
	}
}

func TestEDFOrdering(t *testing.T) {
	s := feasibleSet()
	e, err := engine.New(engine.Config{Tasks: s, Policy: EDF{}, End: at(100)})
	if err != nil {
		t.Fatal(err)
	}
	_ = e // ordering is exercised through Better below on synthetic jobs
	p := EDF{}
	if p.Name() != "edf" {
		t.Errorf("Name = %q", p.Name())
	}
	// Construct jobs via a run and compare orderings indirectly: the
	// earliest-deadline ready job must run first. c has the latest
	// deadline (300) so a and b finish strictly earlier.
	rep := runPolicy(t, s, EDF{}, 300)
	ja, _ := rep.Job("a", 0)
	jc, _ := rep.Job("c", 0)
	if !ja.End.Before(jc.End) {
		t.Errorf("EDF must finish a (D=100) before c (D=300): %v vs %v", ja.End, jc.End)
	}
}

func TestEDFDominoUnderOverload(t *testing.T) {
	// Plain EDF under 140% load thrashes: many tasks miss.
	rep := runPolicy(t, overloadedSet(), EDF{}, 2000)
	if rep.TotalFailed() == 0 {
		t.Fatal("overloaded EDF cannot meet everything")
	}
}

func TestBestEffortPrefersHighValueUnderOverload(t *testing.T) {
	be := runPolicy(t, overloadedSet(), BestEffort{}, 2000)
	edf := runPolicy(t, overloadedSet(), EDF{}, 2000)
	// The high-value task must do at least as well under best-effort
	// as under blind EDF, and the shedding must keep hi mostly
	// successful (its utilization alone is 0.6).
	if be.Tasks["hi"].Failed > edf.Tasks["hi"].Failed {
		t.Errorf("best-effort hurt the high-value task: %d vs EDF's %d failures",
			be.Tasks["hi"].Failed, edf.Tasks["hi"].Failed)
	}
	if be.Tasks["hi"].SuccessRatio() < 0.8 {
		t.Errorf("hi success ratio %.2f under best-effort, want >= 0.8\n%s",
			be.Tasks["hi"].SuccessRatio(), be.Render())
	}
}

func TestBestEffortNoSheddingWhenFeasible(t *testing.T) {
	rep := runPolicy(t, feasibleSet(), BestEffort{}, 3000)
	if rep.TotalFailed() != 0 {
		t.Fatalf("best-effort shed jobs in an underloaded system\n%s", rep.Render())
	}
}

func TestREDRejectsAtAdmission(t *testing.T) {
	rep := runPolicy(t, overloadedSet(), RED{}, 2000)
	// RED must keep the guaranteed (admitted) jobs successful: every
	// job that was not dropped at admission meets its deadline.
	for name, s := range rep.Tasks {
		// failures among *admitted* jobs: Stopped counts shed ones;
		// deadline misses of admitted jobs should be rare. We accept
		// stops (recovery shedding) but not plain misses for "hi".
		if name == "hi" && s.Missed > s.Stopped {
			t.Errorf("RED let admitted hi jobs miss: %+v", s)
		}
	}
	if rep.Tasks["hi"].SuccessRatio() < 0.8 {
		t.Errorf("hi success %.2f under RED, want >= 0.8\n%s", rep.Tasks["hi"].SuccessRatio(), rep.Render())
	}
}

func TestREDAcceptsEverythingWhenFeasible(t *testing.T) {
	rep := runPolicy(t, feasibleSet(), RED{}, 3000)
	if rep.TotalFailed() != 0 {
		t.Fatalf("RED rejected jobs in an underloaded system\n%s", rep.Render())
	}
}

func TestDOverProtectsValueUnderOverload(t *testing.T) {
	do := runPolicy(t, overloadedSet(), DOver{}, 2000)
	if do.Tasks["hi"].SuccessRatio() < 0.5 {
		t.Errorf("hi success %.2f under d-over, want >= 0.5\n%s", do.Tasks["hi"].SuccessRatio(), do.Render())
	}
}

func TestDOverFeasibleNoInterference(t *testing.T) {
	rep := runPolicy(t, feasibleSet(), DOver{}, 3000)
	if rep.TotalFailed() != 0 {
		t.Fatalf("d-over interfered with a feasible set\n%s", rep.Render())
	}
}

func TestPolicyNames(t *testing.T) {
	if (BestEffort{}).Name() != "best-effort" || (RED{}).Name() != "red" || (DOver{}).Name() != "d-over" {
		t.Error("policy names wrong")
	}
}

// TestValueOrderingUnderFaults: with a fault inflating the mid task,
// the value-aware policies keep the high-value task above EDF.
func TestValueOrderingUnderFaults(t *testing.T) {
	faults := fault.Plan{"mid": fault.OverrunEvery{K: 1, Extra: ms(40)}}
	run := func(p engine.Policy) *metrics.Report {
		return metrics.Analyze(runLog(t, engine.Config{Tasks: feasibleSet(), Policy: p, Faults: faults, End: at(3000)}))
	}
	edf := run(EDF{})
	be := run(BestEffort{})
	if be.Tasks["a"].Failed > edf.Tasks["a"].Failed {
		t.Errorf("best-effort hurt the high-value task under faults: %d vs %d",
			be.Tasks["a"].Failed, edf.Tasks["a"].Failed)
	}
}

// TestDeterministicBaselineRuns: value policies make runs no less
// deterministic.
func TestDeterministicBaselineRuns(t *testing.T) {
	run := func() string {
		return runLog(t, engine.Config{Tasks: overloadedSet(), Policy: BestEffort{}, End: at(1000)}).EncodeString()
	}
	if run() != run() {
		t.Fatal("best-effort runs differ between executions")
	}
}
