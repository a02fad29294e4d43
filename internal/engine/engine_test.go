package engine

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// wcrtOf bridges to the analytic WCRT for cross-validation tests.
func wcrtOf(s *taskset.Set, i int) (vtime.Duration, error) {
	return analysis.WCResponseTime(s, i, 0)
}

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func table2WithOffset() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
}

// logged builds an engine for cfg whose events are also teed into a
// fresh log, beside any sink cfg names.
func logged(t *testing.T, cfg Config) (*Engine, *trace.Log) {
	t.Helper()
	log := trace.NewLog()
	cfg.Sink = trace.Tee(log, cfg.Sink)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, log
}

// run runs a logged engine for cfg to the horizon.
func run(t *testing.T, cfg Config) (*Engine, *trace.Log) {
	t.Helper()
	e, log := logged(t, cfg)
	e.Run()
	return e, log
}

// runJobs runs a retained configuration and rebuilds its jobs from the
// log: the engine keeps a Job only while it is live.
func runJobs(t *testing.T, cfg Config) (*Engine, *trace.Log, *metrics.Report) {
	t.Helper()
	e, log := run(t, cfg)
	return e, log, metrics.Analyze(log)
}

// job returns the log's record of task's job q, failing the test when
// the log has none.
func job(t *testing.T, rep *metrics.Report, task string, q int64) metrics.JobRecord {
	t.Helper()
	j, ok := rep.Job(task, q)
	if !ok {
		t.Fatalf("%s#%d not in the log", task, q)
	}
	return j
}

// ended reports whether the log shows the job terminating: a
// completion, or a stop (a refused job stops at its release instant,
// which may be 0).
func ended(j metrics.JobRecord) bool { return j.Stopped || j.End != 0 }

func TestFaultFreeTable2MeetsAllDeadlines(t *testing.T) {
	_, _, rep := runJobs(t, Config{Tasks: table2WithOffset(), End: at(3000)})
	// Releases up to and including 3000 ms: tau1 at 0, 200, ..., 3000
	// (16), tau2 at 0, 250, ..., 3000 (13), tau3 at 1000 and 2500.
	if len(rep.Jobs) != 31 {
		t.Fatalf("log holds %d jobs, want 31", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Failed() {
			t.Errorf("%s#%d failed in a fault-free feasible system (end %v)", j.Task, j.Q, j.End)
		}
	}
}

// TestCriticalInstantResponseTimes: at the synchronous release
// (t = 1000 for all three tasks), completions chain exactly as the
// response-time analysis predicts: 29, 58, 87 ms.
func TestCriticalInstantResponseTimes(t *testing.T) {
	_, _, rep := runJobs(t, Config{Tasks: table2WithOffset(), End: at(1500)})
	wantEnd := map[string]vtime.Time{"tau1": at(1029), "tau2": at(1058), "tau3": at(1087)}
	wantQ := map[string]int64{"tau1": 5, "tau2": 4, "tau3": 0}
	for name, end := range wantEnd {
		j := job(t, rep, name, wantQ[name])
		if !ended(j) {
			t.Fatalf("%s#%d did not finish", name, wantQ[name])
		}
		if j.End != end {
			t.Errorf("%s#%d finished at %v, want %v", name, wantQ[name], j.End, end)
		}
	}
}

// TestFigure3Execution: the 40 ms overrun on τ1's job 5 without any
// detection: τ1 and τ2 meet their deadlines, τ3 misses (paper §6.1).
func TestFigure3Execution(t *testing.T) {
	_, log, rep := runJobs(t, Config{
		Tasks:  table2WithOffset(),
		Faults: fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		End:    at(1500),
	})
	j1 := job(t, rep, "tau1", 5)
	j2 := job(t, rep, "tau2", 4)
	j3 := job(t, rep, "tau3", 0)
	if j1.End != at(1069) || j1.Failed() {
		t.Errorf("tau1#5: finished %v failed=%v, want 1069ms met", j1.End, j1.Failed())
	}
	if j2.End != at(1098) || j2.Failed() {
		t.Errorf("tau2#4: finished %v failed=%v, want 1098ms met", j2.End, j2.Failed())
	}
	if j3.End != at(1127) || !j3.Failed() {
		t.Errorf("tau3#0: finished %v failed=%v, want 1127ms MISSED", j3.End, j3.Failed())
	}
	// The miss event is recorded at the deadline instant, 1120 ms.
	misses := log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.DeadlineMiss })
	if len(misses) != 1 || misses[0].At != at(1120) || misses[0].Task != "tau3" {
		t.Errorf("miss events = %+v, want single tau3 miss at 1120ms", misses)
	}
}

func TestPreemptionByHigherPriority(t *testing.T) {
	// low releases at 0 and runs 10ms of work; high releases at 3ms
	// and preempts immediately; low resumes at 8ms and ends at 15ms.
	s := taskset.MustNew(
		taskset.Task{Name: "high", Priority: 2, Period: ms(100), Deadline: ms(100), Cost: ms(5), Offset: ms(3)},
		taskset.Task{Name: "low", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(10)},
	)
	_, log, rep := runJobs(t, Config{Tasks: s, End: at(50)})
	if jh := job(t, rep, "high", 0); jh.End != at(8) {
		t.Errorf("high finished %v, want 8ms", jh.End)
	}
	if jl := job(t, rep, "low", 0); jl.End != at(15) {
		t.Errorf("low finished %v, want 15ms", jl.End)
	}
	var kinds []trace.Kind
	for _, ev := range log.TaskEvents("low") {
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{trace.JobRelease, trace.JobBegin, trace.JobPreempt, trace.JobResume, trace.JobEnd}
	if len(kinds) < len(want) {
		t.Fatalf("low events: %v", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("low event %d = %v, want %v (all: %v)", i, kinds[i], k, kinds)
		}
	}
}

func TestBackToBackJobsQueue(t *testing.T) {
	// A task whose response exceeds its period queues jobs in FIFO
	// order (the RTSJ thread is sequential) — Table 1's τ2.
	s := taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(6), Deadline: ms(6), Cost: ms(3)},
		taskset.Task{Name: "tau2", Priority: 15, Period: ms(4), Deadline: ms(6), Cost: ms(2)},
	)
	_, _, rep := runJobs(t, Config{Tasks: s, End: at(24)})
	// Expected completions of tau2 jobs (releases 0,4,8,12,...):
	// q0: [3,5] → 5; q1: [5,6]+[9,10] → 10; q2: [10,12] → 12;
	// q3 (rel 12): [15,17] → 17; q4 (rel 16): [17,18]+[21,22] → 22.
	want := []vtime.Time{at(5), at(10), at(12), at(17), at(22)}
	// Per-job responses 5,6,4,5,6 — max 6 = the analysis WCRT.
	wantResp := []vtime.Duration{ms(5), ms(6), ms(4), ms(5), ms(6)}
	for i, w := range want {
		j := job(t, rep, "tau2", int64(i))
		if !ended(j) || j.End != w {
			t.Errorf("tau2#%d finished %v (ended=%v), want %v", i, j.End, ended(j), w)
		}
		if j.Response() != wantResp[i] {
			t.Errorf("tau2#%d response %v, want %v", i, j.Response(), wantResp[i])
		}
	}
}

func TestStopJobPollSemantics(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(50)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(100), StopPoll: ms(4)})
	// Request a stop at t=10: the job has executed 10ms, next 4ms
	// poll boundary is 12ms of executed work → stops at t=12.
	e.Schedule(at(10), func(now vtime.Time) { e.StopJob("a", 0, now) })
	e.Run()
	j := job(t, metrics.Analyze(log), "a", 0)
	if !j.Stopped || j.End != at(12) {
		t.Errorf("job stopped=%v at %v, want stopped at 12ms", j.Stopped, j.End)
	}
	if !j.Failed() {
		t.Error("a stopped incomplete job counts as failed")
	}
}

func TestStopExactlyAtBoundaryIsImmediate(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(50)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(100), StopPoll: ms(5)})
	e.Schedule(at(10), func(now vtime.Time) { e.StopJob("a", 0, now) })
	e.Run()
	if j := job(t, metrics.Analyze(log), "a", 0); !j.Stopped || j.End != at(10) {
		t.Errorf("stop at a poll boundary must be immediate, got stopped=%v at %v", j.Stopped, j.End)
	}
}

func TestStopJitterAddsBoundedCost(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(50)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(100), StopPoll: ms(1), StopJitterMax: ms(3), Seed: 7})
	e.Schedule(at(10), func(now vtime.Time) { e.StopJob("a", 0, now) })
	e.Run()
	if j := job(t, metrics.Analyze(log), "a", 0); !j.Stopped || j.End < at(10) || j.End > at(13) {
		t.Errorf("jittered stop: stopped=%v at %v, want within [10ms,13ms]", j.Stopped, j.End)
	}
}

func TestStopFinishedJobIsNoOp(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(5)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(100)})
	e.Schedule(at(50), func(now vtime.Time) { e.StopJob("a", 0, now) })
	e.Run()
	if j := job(t, metrics.Analyze(log), "a", 0); j.Stopped || j.Failed() || j.End != at(5) {
		t.Errorf("stop after completion must be a no-op: %+v", j)
	}
	if n := len(log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.StopRequest })); n != 0 {
		t.Errorf("no StopRequest should be recorded for a done job, got %d", n)
	}
}

func TestStopPreemptedJob(t *testing.T) {
	// The low job is preempted when the stop arrives; it terminates
	// upon its next dispatch (executed time already past boundary?
	// no: executed 5ms, limit ceil(5/2)=6ms → runs 1ms more).
	s := taskset.MustNew(
		taskset.Task{Name: "high", Priority: 2, Period: ms(100), Deadline: ms(100), Cost: ms(10), Offset: ms(5)},
		taskset.Task{Name: "low", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(30)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(100), StopPoll: ms(2)})
	e.Schedule(at(8), func(now vtime.Time) { e.StopJob("low", 0, now) }) // low preempted since t=5
	e.Run()
	j := job(t, metrics.Analyze(log), "low", 0)
	// low executed [0,5] = 5ms; limit = 6ms; resumes at 15, stops at 16.
	if !j.Stopped || j.End != at(16) {
		t.Errorf("preempted stop: stopped=%v at %v, want 16ms", j.Stopped, j.End)
	}
}

func TestDeterministicTraces(t *testing.T) {
	cfg := Config{
		Tasks:  table2WithOffset(),
		Faults: fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		End:    at(3000),
		Seed:   42,
	}
	_, log1 := run(t, cfg)
	_, log2 := run(t, cfg)
	if log1.EncodeString() != log2.EncodeString() {
		t.Fatal("identical configurations must produce byte-identical traces")
	}
}

func TestContextSwitchOverheadCharged(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(10)},
	)
	_, _, rep := runJobs(t, Config{Tasks: s, End: at(50), ContextSwitch: ms(1)})
	if j := job(t, rep, "a", 0); j.End != at(11) {
		t.Errorf("with 1ms dispatch overhead the job ends at %v, want 11ms", j.End)
	}
}

func TestSwitchesCounted(t *testing.T) {
	e, _ := run(t, Config{Tasks: table2WithOffset(), End: at(3000)})
	if e.Switches() == 0 {
		t.Error("dispatch switches must be counted")
	}
}

func TestDynamicAddAndRemove(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(100), Deadline: ms(100), Cost: ms(10)},
	)
	e, log := logged(t, Config{Tasks: s, End: at(1000)})
	e.Schedule(at(150), func(now vtime.Time) {
		if err := e.AddTask(taskset.Task{Name: "b", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(5), Offset: ms(10)}, nil, now); err != nil {
			t.Errorf("AddTask: %v", err)
		}
	})
	e.Schedule(at(500), func(now vtime.Time) { e.RemoveTask("b", now) })
	e.Run()
	rep := metrics.Analyze(log)
	// b releases at 160, 260, 360, 460 then is removed before 560.
	b := rep.Tasks["b"]
	if b == nil || b.Released != 4 {
		t.Fatalf("b summary %+v, want 4 released", b)
	}
	if j := job(t, rep, "b", 0); j.Release != at(160) {
		t.Errorf("b first release %v, want 160ms", j.Release)
	}
	for q := int64(0); q < 4; q++ {
		if j := job(t, rep, "b", q); !ended(j) || j.Failed() {
			t.Errorf("b#%d should finish cleanly: %+v", q, j)
		}
	}
	added := log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.TaskAdded })
	removed := log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.TaskRemoved })
	if len(added) != 1 || len(removed) != 1 {
		t.Errorf("add/remove events: %d/%d, want 1/1", len(added), len(removed))
	}
}

func TestAddTaskRejectsDuplicatesAndInvalid(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(100), Deadline: ms(100), Cost: ms(10)},
	)
	e, _ := New(Config{Tasks: s, End: at(1000)})
	if err := e.AddTask(taskset.Task{Name: "a", Priority: 1, Period: ms(100), Deadline: ms(100), Cost: ms(1)}, nil, 0); err == nil {
		t.Error("duplicate task name must be rejected")
	}
	if err := e.AddTask(taskset.Task{Name: "bad", Priority: 1, Period: 0, Deadline: ms(10), Cost: ms(1)}, nil, 0); err == nil {
		t.Error("invalid task must be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{End: at(10)}); err == nil {
		t.Error("nil task set must be rejected")
	}
	s := taskset.MustNew(taskset.Task{Name: "a", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(1)})
	if _, err := New(Config{Tasks: s}); err == nil {
		t.Error("zero horizon must be rejected")
	}
}

func TestIdleTimeBetweenBursts(t *testing.T) {
	// Cost 1ms, period 10ms: the processor idles 9ms per period; job
	// k finishes exactly at 10k+1.
	s := taskset.MustNew(taskset.Task{Name: "a", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(1)})
	_, _, rep := runJobs(t, Config{Tasks: s, End: at(100)})
	finished := 0
	for _, j := range rep.Jobs {
		if !ended(j) {
			continue // the release at 100 ms is cut off by the horizon
		}
		finished++
		if want := j.Release.Add(ms(1)); j.End != want {
			t.Errorf("a#%d finished %v, want %v", j.Q, j.End, want)
		}
	}
	if finished != 10 {
		t.Errorf("checked %d finished jobs, want 10 (releases 0..90 ms)", finished)
	}
}

func TestFixedPriorityPolicyOrdering(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "hi", Priority: 9, Period: ms(10), Deadline: ms(10), Cost: ms(1)},
		taskset.Task{Name: "lo", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(1)},
	)
	e, _ := New(Config{Tasks: s, End: at(10)})
	a := &Job{task: e.byName["hi"], Release: at(5)}
	b := &Job{task: e.byName["lo"], Release: at(0)}
	p := FixedPriority{}
	if !p.Better(a, b) || p.Better(b, a) {
		t.Error("higher priority must win regardless of release order")
	}
	c := &Job{task: e.byName["hi"], Release: at(0)}
	if !p.Better(c, a) {
		t.Error("same priority: earlier release wins")
	}
	if p.Name() == "" || !p.Admit(e, a) {
		t.Error("FixedPriority must have a name and admit everything")
	}
}

func TestJobAccessors(t *testing.T) {
	finished := 0
	e, err := New(Config{Tasks: table2WithOffset(), End: at(100), Hooks: Hooks{
		OnFinish: func(_ *Engine, j *Job) {
			finished++
			if j.Remaining() != 0 || !j.Done() {
				t.Errorf("%s#%d finishing: remaining %v, done=%v", j.TaskName(), j.Q, j.Remaining(), j.Done())
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	e.Schedule(at(10), func(vtime.Time) {
		j, ok := e.JobAt("tau1", 0)
		if !ok {
			t.Fatal("live tau1#0 missing")
		}
		if j.TaskName() != "tau1" || j.Task().Priority != 20 {
			t.Error("job accessors wrong")
		}
		if j.Remaining() != ms(19) || j.Executed != ms(10) || j.Done() {
			t.Errorf("tau1#0 at 10ms: remaining %v, executed %v, done=%v; want 19ms, 10ms, false", j.Remaining(), j.Executed, j.Done())
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("the live-job check never ran")
	}
	// tau1#0 ends at 29, tau2#0 at 58, tau1#0's successor is released
	// at 200: two jobs finish within the horizon.
	if finished != 2 {
		t.Errorf("OnFinish fired %d times, want 2", finished)
	}
	if _, ok := e.JobAt("tau1", 0); ok {
		t.Error("a finished job must not resolve")
	}
	if _, ok := e.JobAt("nope", 0); ok {
		t.Error("unknown task lookup must fail")
	}
	if _, ok := e.JobAt("tau1", 9999); ok {
		t.Error("unknown job lookup must fail")
	}
}

// shedding policy for testing Admit: drops every job of "shed".
type shedPolicy struct{ FixedPriority }

func (shedPolicy) Name() string { return "shed-test" }
func (shedPolicy) Admit(_ *Engine, j *Job) bool {
	return j.TaskName() != "shed"
}

func TestPolicyAdmitDropsJobs(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "keep", Priority: 2, Period: ms(10), Deadline: ms(10), Cost: ms(1)},
		taskset.Task{Name: "shed", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(1)},
	)
	e, log, rep := runJobs(t, Config{Tasks: s, End: at(50), Policy: shedPolicy{}})
	// Both tasks release at 0, 10, ..., 50 ms. A refused job stops at
	// its release instant and never begins.
	for _, name := range []string{"keep", "shed"} {
		if sum := rep.Tasks[name]; sum == nil || sum.Released != 6 {
			t.Fatalf("%s summary %+v, want 6 released", name, sum)
		}
	}
	for q := int64(0); q < 6; q++ {
		if j := job(t, rep, "shed", q); !j.Stopped || j.End != j.Release || !j.Failed() {
			t.Errorf("shed#%d should be refused at its release and counted failed: %+v", q, j)
		}
		if j := job(t, rep, "keep", q); j.Stopped || j.Failed() {
			t.Errorf("keep#%d wrongly refused: %+v", q, j)
		}
	}
	for _, ev := range log.TaskEvents("shed") {
		if ev.Kind == trace.JobBegin {
			t.Errorf("refused job shed#%d began at %v", ev.Job, ev.At)
		}
	}
	if _, ok := e.JobAt("shed", 5); ok {
		t.Error("a refused job must not resolve")
	}
	if e.PolicyName() != "shed-test" {
		t.Errorf("PolicyName = %q", e.PolicyName())
	}
}

// TestConservationOfCPU: in any run, the total executed time across
// jobs never exceeds the horizon (uniprocessor conservation).
func TestConservationOfCPU(t *testing.T) {
	gen := taskset.NewGenerator(11)
	for trial := 0; trial < 25; trial++ {
		s, err := gen.Generate(4, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		horizon := ms(2000)
		var total vtime.Duration
		terminated := 0
		count := func(_ *Engine, j *Job) {
			terminated++
			total += j.Executed
		}
		e, log := run(t, Config{Tasks: s, End: vtime.Time(horizon), Hooks: Hooks{OnFinish: count, OnStopped: count}})
		// Only a task's head job has executed; the rest of a backlog
		// has not begun.
		for _, j := range e.ReadyJobs() {
			total += j.Executed
		}
		ends := log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.JobEnd || ev.Kind == trace.JobStopped })
		releases := log.Filter(func(ev trace.Event) bool { return ev.Kind == trace.JobRelease })
		live := 0
		for _, ts := range e.tasks {
			live += ts.live()
		}
		if terminated == 0 || terminated != len(ends) || terminated+live != len(releases) {
			t.Fatalf("trial %d: hooks saw %d terminations and %d jobs are live; log has %d terminations of %d releases",
				trial, terminated, live, len(ends), len(releases))
		}
		if total > horizon {
			t.Fatalf("trial %d: executed %v exceeds horizon %v", trial, total, horizon)
		}
	}
}

// TestSimulationMatchesAnalysis: for random feasible sets released
// synchronously, the simulated maximum response of each task never
// exceeds the analytic WCRT, and the critical-instant job achieves
// exactly the q=0 completion. This cross-validates the Figure 2
// algorithm against the executing engine.
func TestSimulationMatchesAnalysis(t *testing.T) {
	gen := taskset.NewGenerator(5)
	tested := 0
	for trial := 0; trial < 400 && tested < 30; trial++ {
		s, err := gen.Generate(4, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		hyper, err := s.Hyperperiod()
		if err != nil || hyper > ms(60_000) {
			continue
		}
		feasible := true
		wcrts := make([]vtime.Duration, s.Len())
		for i := range s.Tasks {
			w, err := wcrtOf(s, i)
			if err != nil || w > s.Tasks[i].Deadline {
				feasible = false
				break
			}
			wcrts[i] = w
		}
		if !feasible {
			continue
		}
		tested++
		_, _, rep := runJobs(t, Config{Tasks: s, End: vtime.Time(2 * hyper)})
		finished := make([]int, s.Len())
		for _, j := range rep.Jobs {
			if !ended(j) {
				continue
			}
			i := s.IndexByName(j.Task)
			finished[i]++
			if j.Response() > wcrts[i] {
				t.Fatalf("trial %d: %s#%d response %v exceeds analytic WCRT %v",
					trial, j.Task, j.Q, j.Response(), wcrts[i])
			}
		}
		for i, task := range s.Tasks {
			// The horizon spans two hyperperiods, so every task finishes
			// at least two jobs.
			if finished[i] < 2 {
				t.Fatalf("trial %d: checked %d finished jobs of %s, want at least 2", trial, finished[i], task.Name)
			}
		}
	}
	if tested < 10 {
		t.Fatalf("only %d feasible sets exercised; generator parameters too tight", tested)
	}
}

// TestWorkConservation: the scheduler never idles while a ready job
// has remaining work. Verified by replaying the trace: between any
// job's release and its completion, every instant is covered either
// by some task executing or by nothing being ready — equivalently,
// total busy time up to each completion equals total demand completed
// plus in-progress work. We check the simpler invariant that in a
// saturated system (U = 1, synchronous release) the processor never
// idles within the hyperperiod.
func TestWorkConservation(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(6), Deadline: ms(12), Cost: ms(3)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(4), Deadline: ms(12), Cost: ms(2)},
	)
	e, log := run(t, Config{Tasks: s, End: at(120)})
	// Build the busy intervals from begin/resume..preempt/end pairs.
	type iv struct{ from, to vtime.Time }
	var busy []iv
	open := map[string]vtime.Time{}
	for _, ev := range log.Events() {
		switch ev.Kind {
		case trace.JobBegin, trace.JobResume:
			open[ev.Task] = ev.At
		case trace.JobPreempt, trace.JobEnd, trace.JobStopped:
			if s, ok := open[ev.Task]; ok {
				if ev.At > s {
					busy = append(busy, iv{s, ev.At})
				}
				delete(open, ev.Task)
			}
		}
	}
	var total vtime.Duration
	for _, b := range busy {
		total += b.to.Sub(b.from)
	}
	// U = 1 with synchronous release: the processor is busy the
	// whole horizon (minus any final open burst, closed at End by
	// the engine's bookkeeping — jobs still running contribute via
	// Executed instead).
	// Only a task's head job has executed; both tasks release their
	// next jobs at the horizon.
	var running vtime.Duration
	heads := e.ReadyJobs()
	if len(heads) != 2 {
		t.Fatalf("%d live head jobs at the horizon, want 2", len(heads))
	}
	for _, j := range heads {
		running += j.Executed
	}
	got := total + running
	if got < ms(119) {
		t.Fatalf("saturated system idled: busy %v of 120ms", got)
	}
}

// TestTraceWellFormed: every job's events are properly bracketed —
// release before begin, begin before end, preempts and resumes
// alternate.
func TestTraceWellFormed(t *testing.T) {
	gen := taskset.NewGenerator(77)
	for trial := 0; trial < 10; trial++ {
		s, err := gen.Generate(4, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		_, log := run(t, Config{Tasks: s, End: at(2000)})
		type key struct {
			task string
			q    int64
		}
		state := map[key]string{} // "", "released", "running", "paused", "done"
		for _, ev := range log.Events() {
			k := key{ev.Task, ev.Job}
			st := state[k]
			switch ev.Kind {
			case trace.JobRelease:
				if st != "" {
					t.Fatalf("trial %d: %v released twice", trial, k)
				}
				state[k] = "released"
			case trace.JobBegin:
				if st != "released" {
					t.Fatalf("trial %d: %v began from state %q", trial, k, st)
				}
				state[k] = "running"
			case trace.JobResume:
				if st != "paused" {
					t.Fatalf("trial %d: %v resumed from state %q", trial, k, st)
				}
				state[k] = "running"
			case trace.JobPreempt:
				if st != "running" {
					t.Fatalf("trial %d: %v preempted from state %q", trial, k, st)
				}
				state[k] = "paused"
			case trace.JobEnd, trace.JobStopped:
				if st != "running" {
					t.Fatalf("trial %d: %v ended from state %q", trial, k, st)
				}
				state[k] = "done"
			}
		}
	}
}
