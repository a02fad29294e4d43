package detect

import (
	"slices"
	"testing"

	"repro/internal/allowance"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func figureSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
}

// runFigure builds supervisor+engine for the paper's §6 scenario with
// the given treatment and returns both after the run.
func runFigure(t *testing.T, tr Treatment) (*engine.Engine, *Supervisor, *trace.Log) {
	t.Helper()
	sup, err := NewSupervisor(figureSet(), Config{Treatment: tr, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	e, err := engine.New(engine.Config{
		Tasks:  figureSet(),
		Faults: fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		End:    at(1500),
		Sink:   log,
		Hooks:  sup.Hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	return e, sup, log
}

// figureJobs returns the log's records of the three jobs released at
// the 1000 ms critical instant: tau1#5, tau2#4 and tau3#0.
func figureJobs(t *testing.T, log *trace.Log) (j1, j2, j3 metrics.JobRecord) {
	t.Helper()
	rep := metrics.Analyze(log)
	var ok [3]bool
	j1, ok[0] = rep.Job("tau1", 5)
	j2, ok[1] = rep.Job("tau2", 4)
	j3, ok[2] = rep.Job("tau3", 0)
	if ok != [3]bool{true, true, true} {
		t.Fatalf("critical-instant jobs in the log: %v", ok)
	}
	return j1, j2, j3
}

// taskJobs returns the log's records of one task's jobs, failing the
// test unless there are exactly want of them.
func taskJobs(t *testing.T, log *trace.Log, task string, want int) []metrics.JobRecord {
	t.Helper()
	var out []metrics.JobRecord
	for _, j := range metrics.Analyze(log).Jobs {
		if j.Task == task {
			out = append(out, j)
		}
	}
	if len(out) != want {
		t.Fatalf("log holds %d jobs of %s, want %d", len(out), task, want)
	}
	return out
}

func TestSupervisorRejectsInfeasibleSystem(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	if _, err := NewSupervisor(s, Config{Treatment: Stop}); err == nil {
		t.Fatal("supervisor must reject a system that fails admission control")
	}
}

// TestDetectorOffsetsQuantized reproduces the paper's §6.2 numbers:
// with jRate's 10 ms PeriodicTimer the detectors of WCRTs 29/58/87 ms
// release at 30/60/90 ms (delays 1/2/3 ms).
func TestDetectorOffsetsQuantized(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]vtime.Duration{"tau1": ms(30), "tau2": ms(60), "tau3": ms(90)}
	for task, w := range want {
		got, ok := sup.DetectorOffset(task)
		if !ok || got != w {
			t.Errorf("detector offset of %s = %v, want %v", task, got, w)
		}
	}
	if _, ok := sup.DetectorOffset("nope"); ok {
		t.Error("unknown task must have no detector offset")
	}
}

// TestEquitableDetectorOffsets: under the equitable treatment the
// detectors move to the Table 3 shifted WCRTs (40/80/120), which are
// multiples of 10 already.
func TestEquitableDetectorOffsets(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Equitable, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]vtime.Duration{"tau1": ms(40), "tau2": ms(80), "tau3": ms(120)}
	for task, w := range want {
		if got, _ := sup.DetectorOffset(task); got != w {
			t.Errorf("equitable detector offset of %s = %v, want %v", task, got, w)
		}
	}
}

// TestFigure4DetectOnly: detection without treatment does not alter
// the execution (same completions as Figure 3) but records detector
// releases and the faults.
func TestFigure4DetectOnly(t *testing.T) {
	_, sup, log := runFigure(t, DetectOnly)
	j1, _, j3 := figureJobs(t, log)
	if j1.End != at(1069) || j3.End != at(1127) || !j3.Failed() {
		t.Errorf("detect-only must not change the schedule: tau1 %v, tau3 %v failed=%v",
			j1.End, j3.End, j3.Failed())
	}
	if sup.Detections() == 0 {
		t.Fatal("the overrun must be detected")
	}
	// τ1's detector for job 5 releases at 1000+30 = 1030 and flags it.
	var sawFault bool
	for _, ev := range log.Events() {
		if ev.Kind == trace.FaultDetected && ev.Task == "tau1" && ev.Job == 5 {
			if ev.At != at(1030) {
				t.Errorf("tau1 fault detected at %v, want 1030ms", ev.At)
			}
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no FaultDetected event for tau1#5")
	}
}

// TestFigure5Stop: "the only task to miss its deadline is task τ1";
// τ1 is stopped at its (quantized) WCRT and the processor is free
// before the expiries of τ2 and τ3.
func TestFigure5Stop(t *testing.T) {
	_, _, log := runFigure(t, Stop)
	j1, j2, j3 := figureJobs(t, log)
	if !j1.Stopped || j1.End != at(1030) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1030ms", j1.Stopped, j1.End)
	}
	if j2.Failed() || j2.End != at(1059) {
		t.Errorf("tau2#4 at %v failed=%v, want 1059ms met", j2.End, j2.Failed())
	}
	if j3.Failed() || j3.End != at(1088) {
		t.Errorf("tau3#0 at %v failed=%v, want 1088ms met", j3.End, j3.Failed())
	}
}

// TestFigure6Equitable: τ1 is stopped after its allowance-shifted
// WCRT (release + 40 ms), later than under Stop; τ2 and τ3 meet
// their deadlines with CPU time left unused.
func TestFigure6Equitable(t *testing.T) {
	_, _, log := runFigure(t, Equitable)
	j1, j2, j3 := figureJobs(t, log)
	if !j1.Stopped || j1.End != at(1040) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1040ms (WCRT+11 quantized)", j1.Stopped, j1.End)
	}
	if j2.Failed() || j2.End != at(1069) {
		t.Errorf("tau2#4 at %v failed=%v, want 1069ms met", j2.End, j2.Failed())
	}
	if j3.Failed() || j3.End != at(1098) {
		t.Errorf("tau3#0 at %v failed=%v, want 1098ms met", j3.End, j3.Failed())
	}
}

// TestFigure7SystemAllowance: τ1 is stopped thirty-three milliseconds
// after its worst case response time (1062 ms); τ2 and τ3 finish just
// before their deadlines (1091 and exactly 1120).
func TestFigure7SystemAllowance(t *testing.T) {
	_, _, log := runFigure(t, SystemAllowance)
	j1, j2, j3 := figureJobs(t, log)
	if !j1.Stopped || j1.End != at(1062) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1062ms (WCRT+33)", j1.Stopped, j1.End)
	}
	if j2.Failed() || j2.Stopped || j2.End != at(1091) {
		t.Errorf("tau2#4 at %v failed=%v stopped=%v, want completed 1091ms", j2.End, j2.Failed(), j2.Stopped)
	}
	if j3.Failed() || j3.Stopped || j3.End != at(1120) {
		t.Errorf("tau3#0 at %v failed=%v stopped=%v, want completed exactly at its 1120ms deadline", j3.End, j3.Failed(), j3.Stopped)
	}
	// An allowance grant of 33 ms is recorded for τ1.
	var sawGrant bool
	for _, ev := range log.Events() {
		if ev.Kind == trace.AllowanceGrant && ev.Task == "tau1" && ev.Job == 5 {
			if vtime.Duration(ev.Arg) != ms(33) {
				t.Errorf("grant = %v, want 33ms", vtime.Duration(ev.Arg))
			}
			sawGrant = true
		}
	}
	if !sawGrant {
		t.Error("no AllowanceGrant recorded for tau1#5")
	}
}

// TestNoDetectionInstallsNothing: with NoDetection the trace contains
// no detector events at all (Figure 3).
func TestNoDetectionInstallsNothing(t *testing.T) {
	_, sup, log := runFigure(t, NoDetection)
	if sup.Detections() != 0 {
		t.Error("no detections expected")
	}
	n := len(log.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.DetectorRelease || ev.Kind == trace.FaultDetected
	}))
	if n != 0 {
		t.Errorf("%d detector events recorded under NoDetection", n)
	}
}

// TestFaultFreeRunNoDetections: detectors stay silent when every job
// meets its WCRT.
func TestFaultFreeRunNoDetections(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Tasks: figureSet(), End: at(3000), Hooks: sup.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() != 0 {
		t.Fatalf("fault-free run produced %d detections", sup.Detections())
	}
}

// TestExactTimersNoFalsePositive: with exact (unquantized) timers a
// job finishing exactly at its WCRT is not flagged — completions are
// observed before detector checks at the same instant.
func TestExactTimersNoFalsePositive(t *testing.T) {
	// Single task, cost = WCRT: every job finishes exactly at the
	// detector's release instant.
	s := taskset.MustNew(
		taskset.Task{Name: "solo", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(5)},
	)
	sup, err := NewSupervisor(s, Config{Treatment: Stop, TimerResolution: 0})
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := sup.DetectorOffset("solo"); off != ms(5) {
		t.Fatalf("exact detector offset = %v, want 5ms", off)
	}
	e, err := engine.New(engine.Config{Tasks: s, End: at(100), Hooks: sup.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() != 0 {
		t.Fatalf("job finishing exactly at WCRT flagged %d times", sup.Detections())
	}
}

// TestRecurringFaultsStopEveryOccurrence: an every-other-job overrun
// under Stop is contained every time; lower tasks never fail.
func TestRecurringFaultsStopEveryOccurrence(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	e, err := engine.New(engine.Config{
		Tasks:  figureSet(),
		Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 2, Extra: ms(50)}},
		End:    at(3000),
		Sink:   log,
		Hooks:  sup.Hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() < 5 {
		t.Fatalf("expected at least 5 detections, got %d", sup.Detections())
	}
	// Releases up to 3000 ms: tau2 at 0, 250, ..., 3000; tau3 at 1000
	// and 2500.
	for name, n := range map[string]int{"tau2": 13, "tau3": 2} {
		for _, j := range taskJobs(t, log, name, n) {
			if j.Failed() {
				t.Errorf("%s#%d failed despite the stop treatment", name, j.Q)
			}
		}
	}
}

// TestDynamicAdmission (paper §7): a task added at runtime passes
// admission control, gets a detector, and is protected like the rest;
// an inadmissible task is rejected.
func TestDynamicAdmission(t *testing.T) {
	base := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(20)},
	)
	sup, err := NewSupervisor(base, Config{Treatment: Stop, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	e, err := engine.New(engine.Config{
		Tasks:  base,
		Faults: fault.Plan{"b": fault.OverrunEvery{First: 0, K: 1, Extra: ms(100)}},
		End:    at(2000),
		Sink:   log,
		Hooks:  sup.Hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Schedule(at(250), func(now vtime.Time) {
		// Admissible: C=30, T=200 at priority 5 → WCRT = 30+2*20=70.
		if err := sup.AdmitTask(e, taskset.Task{Name: "b", Priority: 5, Period: ms(200), Deadline: ms(200), Cost: ms(30)}); err != nil {
			t.Errorf("AdmitTask(b): %v", err)
		}
		// Inadmissible: would need 150ms every 100ms alongside a.
		if err := sup.AdmitTask(e, taskset.Task{Name: "c", Priority: 4, Period: ms(100), Deadline: ms(100), Cost: ms(90)}); err == nil {
			t.Error("AdmitTask(c) must be rejected by admission control")
		}
	})
	e.Run()
	// Every faulty job of b must have been stopped; a never fails. b
	// releases at 250, 450, ..., 1850 ms, a at 0, 100, ..., 2000 ms.
	var stopped int
	for _, j := range taskJobs(t, log, "b", 9) {
		if j.Stopped {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("dynamically added faulty task was never stopped by its detector")
	}
	for _, j := range taskJobs(t, log, "a", 21) {
		if j.Failed() {
			t.Errorf("a#%d failed despite detectors", j.Q)
		}
	}
}

// TestRemoveTaskFreesAllowance: removing a task recomputes a larger
// (or equal) equitable allowance.
func TestRemoveTaskFreesAllowance(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	before := sup.Table().Equitable()
	e, err := engine.New(engine.Config{Tasks: figureSet(), End: at(5000), Hooks: sup.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Schedule(at(100), func(now vtime.Time) {
		if err := sup.RemoveTask(e, "tau3"); err != nil {
			t.Errorf("RemoveTask: %v", err)
		}
		if err := sup.RemoveTask(e, "ghost"); err == nil {
			t.Error("removing an unknown task must fail")
		}
	})
	e.Run()
	after := sup.Table().Equitable()
	if after < before {
		t.Errorf("allowance shrank after removing a task: %v -> %v", before, after)
	}
	if after <= before {
		// With τ3 (the binding constraint, D=120 at lowest priority)
		// gone, the allowance must strictly grow: R2 = 58+2A ≤ 120.
		t.Errorf("removing the binding task must grow the allowance: %v -> %v", before, after)
	}
}

func TestTreatmentStrings(t *testing.T) {
	want := map[Treatment]string{
		NoDetection:     "no-detection",
		DetectOnly:      "detect-only",
		Stop:            "stop",
		Equitable:       "equitable-allowance",
		SystemAllowance: "system-allowance",
	}
	for tr, w := range want {
		if tr.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(tr), tr.String(), w)
		}
	}
}

// TestCostUnderrunObservation (paper §7): a task whose jobs complete
// well under the declared cost is observed, and the reclaimed
// allowance grows accordingly.
func TestCostUnderrunObservation(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: DetectOnly, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Tasks: figureSet(),
		// tau1's jobs actually take 9ms, not the declared 29.
		Faults: fault.Plan{"tau1": fault.UnderrunEvery{Early: ms(20)}},
		End:    at(3000),
		Hooks:  sup.Hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	got, n := sup.ObservedCost("tau1")
	if n == 0 || got != ms(9) {
		t.Fatalf("observed tau1 cost = %v over %d jobs, want 9ms", got, n)
	}
	// tau2/tau3 run at their declared 29ms.
	if got, _ := sup.ObservedCost("tau2"); got != ms(29) {
		t.Fatalf("observed tau2 cost = %v, want 29ms", got)
	}
	// Reclaiming with tau1 at 9ms: equitable allowance from
	// 3·(29+A) ≤ 120 becomes (9+A) + ... recompute: tau3's bound is
	// R3 = (9+A)+(29+A)+(29+A) ≤ 120 → A ≤ 17.67 → 17ms.
	tab, err := sup.ReclaimTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Equitable() <= sup.Table().Equitable() {
		t.Fatalf("reclaimed allowance %v must exceed nominal %v", tab.Equitable(), sup.Table().Equitable())
	}
	if tab.Equitable() != ms(17) {
		t.Fatalf("reclaimed allowance = %v, want 17ms", tab.Equitable())
	}
	// Demanding more evidence than exists keeps the declaration.
	tab, err = sup.ReclaimTable(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Equitable() != sup.Table().Equitable() {
		t.Fatalf("insufficient evidence must keep the nominal allowance, got %v", tab.Equitable())
	}
}

// TestObservedCostIgnoresStoppedJobs: a stopped job's truncated
// execution must not masquerade as an observed (smaller) cost.
func TestObservedCostIgnoresStoppedJobs(t *testing.T) {
	_, sup, _ := runFigure(t, Stop)
	got, n := sup.ObservedCost("tau1")
	// Jobs 0-4 and 6, 7 complete at 29ms; the stopped job 5 (ran
	// ~30ms before the stop) is excluded.
	if got != ms(29) {
		t.Fatalf("observed tau1 cost = %v over %d completions, want 29ms", got, n)
	}
}

// TestSupervisorComputesOnlyWhatItsTreatmentReads pins the lazy
// allowance columns: none, detect and stop arm on the WCRTs alone and
// compute neither the equitable columns nor MaxOverrun, equitable
// computes only the former and system only the latter. Reading the
// table afterwards yields allowance.Compute's values, and under every
// treatment the detector offsets and grants equal those an eager table
// gives.
func TestSupervisorComputesOnlyWhatItsTreatmentReads(t *testing.T) {
	sets := []*taskset.Set{figureSet()}
	gen := taskset.NewGenerator(11)
	gen.DeadlineFactor = 0.8
	for len(sets) < 6 {
		s, err := gen.Generate(3+len(sets), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSupervisor(s, Config{}); err == nil {
			sets = append(sets, s)
		}
	}
	wantComputed := [][2]bool{
		NoDetection:     {false, false},
		DetectOnly:      {false, false},
		Stop:            {false, false},
		Equitable:       {true, false},
		SystemAllowance: {false, true},
	}
	for k, s := range sets {
		eager, err := allowance.Compute(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		for tr, want := range wantComputed {
			tr := Treatment(tr)
			for _, res := range []vtime.Duration{0, DefaultTimerResolution} {
				sup, err := NewSupervisor(s, Config{Treatment: tr, TimerResolution: res})
				if err != nil {
					t.Fatal(err)
				}
				tab := sup.Table()
				if eq, maxo := tab.Computed(); eq != want[0] || maxo != want[1] {
					t.Errorf("set %d %v: computed (equitable %v, maxOverrun %v), want %v", k, tr, eq, maxo, want)
				}
				for i, task := range s.Tasks {
					off := eager.WCRT[i]
					if tr == Equitable {
						off = eager.EquitableWCRT()[i]
					}
					if got, _ := sup.DetectorOffset(task.Name); got != off.Ceil(res) {
						t.Errorf("set %d %v res %v: %s offset %v, want %v", k, tr, res, task.Name, got, off.Ceil(res))
					}
					if p := sup.plans[task.Name]; tr == SystemAllowance && p.maxOverrun != eager.MaxOverrun()[i] {
						t.Errorf("set %d: %s grant %v, want %v", k, task.Name, p.maxOverrun, eager.MaxOverrun()[i])
					}
				}
				if !sameTable(tab, eager) {
					t.Errorf("set %d %v: read-back table differs from allowance.Compute", k, tr)
				}
			}
		}
	}
}

func sameTable(a, b *allowance.Table) bool {
	return slices.Equal(a.WCRT, b.WCRT) && a.Equitable() == b.Equitable() &&
		slices.Equal(a.EquitableWCRT(), b.EquitableWCRT()) && slices.Equal(a.MaxOverrun(), b.MaxOverrun())
}

// TestReclaimAndRemoveBuildLazyTables pins that dynamic admission,
// removal and reclamation compute no allowance column up front either.
func TestReclaimAndRemoveBuildLazyTables(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Tasks: figureSet(), End: at(1500), Hooks: sup.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	lazy := func(what string, tab *allowance.Table) {
		t.Helper()
		if eq, maxo := tab.Computed(); eq || maxo {
			t.Errorf("%s: computed (equitable %v, maxOverrun %v), want neither", what, eq, maxo)
		}
	}
	reclaimed, err := sup.ReclaimTable(1)
	if err != nil {
		t.Fatal(err)
	}
	lazy("ReclaimTable", reclaimed)
	if err := sup.AdmitTask(e, taskset.Task{Name: "late", Priority: 10, Period: ms(2000), Deadline: ms(500), Cost: ms(5)}); err != nil {
		t.Fatal(err)
	}
	lazy("AdmitTask", sup.Table())
	if err := sup.RemoveTask(e, "tau2"); err != nil {
		t.Fatal(err)
	}
	lazy("RemoveTask", sup.Table())
	want, err := allowance.Compute(sup.set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(sup.Table(), want) {
		t.Error("table after RemoveTask differs from allowance.Compute")
	}
}

// TestParseTreatment: the short command-line names and the paper's
// long forms map to their constants, the empty name means
// NoDetection, and an unknown name errors.
func TestParseTreatment(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Treatment
	}{
		{"", NoDetection}, {"none", NoDetection}, {"no-detection", NoDetection},
		{"detect", DetectOnly}, {"detect-only", DetectOnly},
		{"stop", Stop},
		{"equitable", Equitable}, {"stop-equitable", Equitable}, {"equitable-allowance", Equitable},
		{"system", SystemAllowance}, {"system-allowance", SystemAllowance},
	} {
		if got, err := ParseTreatment(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseTreatment(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseTreatment("explode"); err == nil {
		t.Error("unknown treatment must error")
	}
}
