package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
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
	if sys.Allowance().Equitable() != ms(11) {
		t.Fatalf("allowance = %v, want 11ms", sys.Allowance().Equitable())
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

// TestRunFromRetainFails: a retained config has no accumulator to
// restore a checkpoint into, so RunFrom must refuse it with an error,
// not a nil-pointer panic, and before the engine runs.
func TestRunFromRetainFails(t *testing.T) {
	cfg := Config{Tasks: figureSet(), Horizon: ms(1500), Stream: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.RunToCheckpoint(ms(700))
	if err != nil {
		t.Fatal(err)
	}
	seen := trace.NewLog()
	cfg.Stream, cfg.TraceSink = false, seen
	retained, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retained.RunFrom(cp); err == nil {
		t.Fatal("RunFrom on a retained config succeeded")
	}
	if seen.Len() != 0 {
		t.Errorf("the refused RunFrom recorded %d events", seen.Len())
	}
}

// TestRunToCheckpointRetainFails: a checkpoint cannot carry a retained
// log, so RunToCheckpoint refuses a retained config before running —
// its sink sees no event — instead of reaching the missing
// accumulator.
func TestRunToCheckpointRetainFails(t *testing.T) {
	seen := trace.NewLog()
	sys, err := NewSystem(Config{Tasks: figureSet(), Horizon: ms(1500), TraceSink: seen})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToCheckpoint(ms(700)); err == nil {
		t.Fatal("RunToCheckpoint on a retained config succeeded")
	}
	if seen.Len() != 0 {
		t.Errorf("the refused RunToCheckpoint recorded %d events", seen.Len())
	}
}

// TestRetainedFastForwardRefused: a retained log would miss the
// extrapolated cycles, so NewSystem refuses FastForward unless the run
// streams.
func TestRetainedFastForwardRefused(t *testing.T) {
	cfg := Config{Tasks: figureSet(), Horizon: ms(30_000), FastForward: true}
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "Stream") {
		t.Fatalf("retained FastForward: err = %v, want a refusal naming Stream", err)
	}
	cfg.Stream = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedCycles == 0 {
		t.Error("the streamed run never fast-forwarded")
	}
}

// TestTraceSinkSeesTheRetainedLog: a retained run hands its TraceSink
// exactly the events of Result.Log, and a streamed run of the same
// system hands its TraceSink the same events while its Result.Log
// stays empty.
func TestTraceSinkSeesTheRetainedLog(t *testing.T) {
	run := func(stream bool) (*Result, *trace.Log) {
		t.Helper()
		sink := trace.NewLog()
		sys, err := NewSystem(Config{
			Tasks:           figureSet(),
			Treatment:       detect.Stop,
			Faults:          fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
			Horizon:         ms(6000),
			TimerResolution: detect.DefaultTimerResolution,
			Stream:          stream,
			TraceSink:       sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, sink
	}
	retained, sink := run(false)
	want := retained.Log.EncodeString()
	if retained.Log.Len() == 0 || retained.Report.Tasks["tau1"].Failed == 0 {
		t.Fatal("the retained run recorded no events or no tau1 failure")
	}
	if sink.EncodeString() != want {
		t.Error("a retained run's TraceSink saw different events than Result.Log")
	}
	streamed, sink := run(true)
	if streamed.Log == nil || streamed.Log.Len() != 0 {
		t.Errorf("a streamed run must return an empty log, got %v", streamed.Log)
	}
	if sink.EncodeString() != want {
		t.Error("a streamed run's TraceSink saw different events than the retained Result.Log")
	}
}

// TestAdmittedRunLeavesUnreadColumnsLazy pins that an admitted run
// under treatment none carries an allowance table, computes none of
// its allowance columns, and computes them on first read.
func TestAdmittedRunLeavesUnreadColumnsLazy(t *testing.T) {
	sys, err := NewSystem(Config{Tasks: figureSet(), Horizon: ms(1500)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowance == nil || res.Allowance != sys.Allowance() {
		t.Fatal("an admitted none run must carry its allowance table")
	}
	if eq, maxo := res.Allowance.Computed(); eq || maxo {
		t.Fatalf("treatment none computed (equitable %v, maxOverrun %v)", eq, maxo)
	}
	if got := res.Allowance.MaxOverrun()[0]; got != ms(33) {
		t.Errorf("maxOverrun(tau1) read after the run = %v, want 33ms", got)
	}
	if eq, maxo := res.Allowance.Computed(); eq || !maxo {
		t.Errorf("after reading MaxOverrun: computed (equitable %v, maxOverrun %v)", eq, maxo)
	}
}
