package core

import (
	"errors"
	"testing"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/verify"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func figureSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{Horizon: ms(10)}); err == nil {
		t.Error("nil tasks must fail")
	}
	if _, err := NewSystem(Config{Tasks: figureSet()}); err == nil {
		t.Error("zero horizon must fail")
	}
	bad := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	if _, err := NewSystem(Config{Tasks: bad, Horizon: ms(100)}); err == nil {
		t.Error("infeasible system must be rejected by admission control")
	}
}

func TestRunProducesFullResult(t *testing.T) {
	sys, err := NewSystem(Config{
		Tasks:           figureSet(),
		Treatment:       detect.SystemAllowance,
		Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		Horizon:         ms(1500),
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Admission() == nil || !sys.Admission().Feasible {
		t.Fatal("admission report missing")
	}
	if sys.Allowance().Equitable != ms(11) {
		t.Fatalf("allowance = %v, want 11ms", sys.Allowance().Equitable)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.Len() == 0 || res.Report == nil || res.Allowance == nil {
		t.Fatal("result incomplete")
	}
	if res.Detections == 0 {
		t.Error("the injected fault must be detected")
	}
	if res.Switches == 0 {
		t.Error("switches must be counted")
	}
	j, ok := res.Report.Job("tau1", 5)
	if !ok || !j.Stopped || j.End != vtime.AtMillis(1062) {
		t.Errorf("tau1#5 = %+v, want stopped at 1062ms", j)
	}
}

func TestRunWithDynamicSetup(t *testing.T) {
	sys, err := NewSystem(Config{
		Tasks:     figureSet(),
		Treatment: detect.Stop,
		Horizon:   ms(3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWith(func(e *engine.Engine, sup *detect.Supervisor) {
		e.Schedule(vtime.AtMillis(500), func(now vtime.Time) {
			err := sup.AdmitTask(e, taskset.Task{
				Name: "late", Priority: 10, Period: ms(500), Deadline: ms(500), Cost: ms(20),
			})
			if err != nil {
				t.Errorf("AdmitTask: %v", err)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.Report.Tasks["late"]
	if !ok || s.Released == 0 {
		t.Fatal("dynamically admitted task never ran")
	}
	if s.Failed != 0 {
		t.Errorf("late task failed %d jobs", s.Failed)
	}
}

func TestSupervisorAccessor(t *testing.T) {
	sys, err := NewSystem(Config{Tasks: figureSet(), Horizon: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Supervisor() == nil {
		t.Fatal("supervisor must be exposed")
	}
}

// TestSkipAdmission: an infeasible set runs when admission control is
// skipped, with no admission report, allowance table or supervisor; a
// treatment is refused (detectors arm on admitted WCRTs), and CPUs > 1
// implies the skip.
func TestSkipAdmission(t *testing.T) {
	bad := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	sys, err := NewSystem(Config{Tasks: bad, Horizon: ms(100), SkipAdmission: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Admission() != nil || sys.Allowance() != nil || sys.Supervisor() != nil {
		t.Error("a skip-admission system must carry no admission report, allowance or supervisor")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != nil || res.Allowance != nil || res.Report.SuccessRatio() == 1 {
		t.Errorf("overloaded run: admission %v, allowance %v, success %v", res.Admission, res.Allowance, res.Report.SuccessRatio())
	}
	if _, err := NewSystem(Config{Tasks: bad, Horizon: ms(100), SkipAdmission: true, Treatment: detect.Stop}); err == nil {
		t.Error("a treatment without admission control must be refused")
	}
	multi, err := NewSystem(Config{Tasks: bad, Horizon: ms(100), CPUs: 2})
	if err != nil {
		t.Fatalf("cpus > 1 must skip admission control: %v", err)
	}
	if res, err := multi.Run(); err != nil || res.Report.SuccessRatio() != 1 {
		t.Errorf("two cores: err %v, success %v", err, res.Report.SuccessRatio())
	}
}

// TestOracleFailsRun: the Oracle sees every event, and a violation
// fails the run with a wrapped *verify.Error. The oracle here is built
// for a τ1 released twice as often as the one the engine runs, so the
// releases it expects at 100, 300, ... ms never come.
func TestOracleFailsRun(t *testing.T) {
	declared := figureSet()
	declared.Tasks[0].Period = ms(100)
	chk, err := verify.New(verify.Config{Tasks: declared, Horizon: vtime.AtMillis(1000)})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Tasks: figureSet(), Horizon: ms(1000), Oracle: chk})
	if err != nil {
		t.Fatal(err)
	}
	var verr *verify.Error
	if _, err := sys.Run(); !errors.As(err, &verr) {
		t.Fatalf("Run error %v, want a *verify.Error", err)
	}
}

// TestRunFromRetainFails: a Retain config has no accumulator to
// restore a checkpoint into, so RunFrom must refuse it with an error,
// not a nil-pointer panic.
func TestRunFromRetainFails(t *testing.T) {
	cfg := Config{Tasks: figureSet(), Horizon: ms(1500), Collect: engine.Stream}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.RunToCheckpoint(ms(700))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collect = engine.Retain
	retained, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retained.RunFrom(cp); err == nil {
		t.Fatal("RunFrom on a Retain config succeeded")
	}
}
