package aperiodic

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func periodicSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "hard", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(30)},
	)
}

func server(prio int) *PollingServer {
	return &PollingServer{
		Task: taskset.Task{Name: "server", Priority: prio, Period: ms(50), Deadline: ms(50), Cost: ms(10)},
	}
}

func TestValidate(t *testing.T) {
	ps := server(5)
	ps.Requests = []Request{{ID: "bad", Arrival: at(10), Cost: 0}}
	if err := ps.Validate(); err == nil {
		t.Error("zero-cost request must be rejected")
	}
	ps.Requests = []Request{{ID: "neg", Arrival: -1, Cost: ms(1)}}
	if err := ps.Validate(); err == nil {
		t.Error("negative arrival must be rejected")
	}
	ps.Requests = nil
	if err := ps.Validate(); err != nil {
		t.Errorf("valid server rejected: %v", err)
	}
}

func TestServerIsAdmissionControllable(t *testing.T) {
	// The server joins the analysed set like any periodic task — the
	// §7 point: the paper's machinery applies unchanged.
	ps := server(5)
	set, _, err := ps.Attach(periodicSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Feasible(set)
	if err != nil || !rep.Feasible {
		t.Fatalf("set with server must be feasible: %v %v", rep, err)
	}
}

func TestSingleRequestServedAtFirstPoll(t *testing.T) {
	ps := server(5)
	ps.Requests = []Request{{ID: "r1", Arrival: at(10), Cost: ms(8), Deadline: ms(200)}}
	_, served, err := ps.Run(periodicSet(), nil, ms(500))
	if err != nil {
		t.Fatal(err)
	}
	r := served[0]
	if !r.Done {
		t.Fatal("request unserved")
	}
	// Arrival 10 is after the poll at 0 (empty queue) and before the
	// poll at 50; the hard task runs [0,30] and [100,130]; the server
	// job at 50 has the CPU free → serves [50,58].
	if r.Completion != at(58) {
		t.Errorf("completion %v, want 58ms", r.Completion)
	}
	if r.Response != ms(48) {
		t.Errorf("response %v, want 48ms", r.Response)
	}
	if r.MissedSoftDeadline() {
		t.Error("soft deadline 200ms not missed at response 48ms")
	}
}

func TestRequestSpanningMultiplePolls(t *testing.T) {
	// A 25ms request at capacity 10 needs three server jobs.
	ps := server(5)
	ps.Requests = []Request{{ID: "big", Arrival: at(0), Cost: ms(25)}}
	_, served, err := ps.Run(periodicSet(), nil, ms(500))
	if err != nil {
		t.Fatal(err)
	}
	r := served[0]
	if !r.Done {
		t.Fatal("request unserved")
	}
	// Poll at 0: demand 10, but the hard task (prio 10 > 5) runs
	// first: server [30,40]. Poll at 50: [50,60]. Poll at 100:
	// demand 5; hard runs [100,130], server [130,135].
	if r.Completion != at(135) {
		t.Errorf("completion %v, want 135ms", r.Completion)
	}
}

func TestFIFOOrderAcrossRequests(t *testing.T) {
	ps := server(5)
	ps.Requests = []Request{
		{ID: "first", Arrival: at(5), Cost: ms(6)},
		{ID: "second", Arrival: at(6), Cost: ms(6)},
	}
	_, served, err := ps.Run(periodicSet(), nil, ms(500))
	if err != nil {
		t.Fatal(err)
	}
	if !served[0].Done || !served[1].Done {
		t.Fatal("both requests must complete")
	}
	if !served[0].Completion.Before(served[1].Completion) {
		t.Errorf("FIFO violated: %v vs %v", served[0].Completion, served[1].Completion)
	}
	// Poll at 50 serves first fully (6) and second partially (4);
	// poll at 100 finishes second after the hard task: [130,132].
	if served[0].Completion != at(56) || served[1].Completion != at(132) {
		t.Errorf("completions %v/%v, want 56ms/132ms", served[0].Completion, served[1].Completion)
	}
}

// TestBurstCannotHurtPeriodicTasks is the §7 headline: a huge
// aperiodic burst saturates the server but every periodic deadline
// still holds, because the server's demand is capped at its declared
// capacity — which admission control already accounted for.
func TestBurstCannotHurtPeriodicTasks(t *testing.T) {
	ps := server(20) // even at the highest priority
	for i := 0; i < 50; i++ {
		ps.Requests = append(ps.Requests, Request{
			ID: "burst", Arrival: at(100), Cost: ms(20),
		})
	}
	e, served, err := ps.Run(periodicSet(), nil, ms(3000))
	if err != nil {
		t.Fatal(err)
	}
	// hard releases at 0, 100, ..., 3000 ms.
	if hard := metrics.Analyze(e.Log()).Tasks["hard"]; hard == nil || hard.Released != 31 || hard.Failed != 0 {
		t.Fatalf("hard under aperiodic burst: %+v, want 31 released, none failed", hard)
	}
	// The server drains at most 10ms per 50ms: in 2900ms after the
	// burst it serves at most ~580ms of the 1000ms backlog.
	var done int
	for _, r := range served {
		if r.Done {
			done++
		}
	}
	if done == 0 || done >= len(served) {
		t.Fatalf("burst should be partially served, got %d/%d", done, len(served))
	}
}

func TestDetectorsApplyToServer(t *testing.T) {
	// The server task carries a detector like any periodic task; a
	// misdeclared (overrunning) server is stopped, protecting lower
	// tasks — fault tolerance for the aperiodic subsystem.
	low := taskset.MustNew(
		taskset.Task{Name: "victim", Priority: 1, Period: ms(100), Deadline: ms(60), Cost: ms(20)},
	)
	srv := &PollingServer{
		Task: taskset.Task{Name: "server", Priority: 9, Period: ms(50), Deadline: ms(50), Cost: ms(10)},
	}
	set, plan, err := srv.Attach(low, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: wrap the polling model so every job overruns by 30ms
	// (a buggy server exceeding its declared capacity).
	plan["server"] = fault.Chain{plan["server"], fault.OverrunEvery{K: 1, Extra: ms(30)}}
	sup, err := detect.NewSupervisor(set, detect.Config{Treatment: detect.Stop, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Tasks: set, Faults: plan, End: at(1000), Hooks: sup.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	log := e.Run()
	if sup.Detections() == 0 {
		t.Fatal("the overrunning server must be detected")
	}
	// victim releases at 0, 100, ..., 1000 ms.
	if victim := metrics.Analyze(log).Tasks["victim"]; victim == nil || victim.Released != 11 || victim.Failed != 0 {
		t.Fatalf("victim despite server detectors: %+v, want 11 released, none failed", victim)
	}
}

func TestEmptyPollsAreCheap(t *testing.T) {
	ps := server(5)
	set, plan, err := ps.Attach(periodicSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	e, err := engine.New(engine.Config{Tasks: set, Faults: plan, End: at(1000), Hooks: engine.Hooks{
		OnFinish: func(_ *engine.Engine, j *engine.Job) {
			if j.TaskName() != "server" {
				return
			}
			polls++
			if j.Executed > ms(1) {
				t.Errorf("idle poll server#%d consumed %v", j.Q, j.Executed)
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// The server releases at 0, 50, ..., 1000 ms; the poll at 1000 ms
	// waits behind hard past the horizon.
	if polls != 20 {
		t.Errorf("checked %d finished polls, want 20", polls)
	}
}

func TestAnalyzeUnservedRequests(t *testing.T) {
	ps := server(5)
	ps.Requests = []Request{{ID: "late", Arrival: at(900), Cost: ms(50)}}
	_, served, err := ps.Run(periodicSet(), nil, ms(1000))
	if err != nil {
		t.Fatal(err)
	}
	if served[0].Done {
		t.Fatal("a 50ms request arriving at 900 cannot finish by 1000 at 10ms/50ms")
	}
	if served[0].MissedSoftDeadline() {
		t.Error("unserved requests must not count as soft misses")
	}
}

func TestModelOutOfOrderPanics(t *testing.T) {
	ps := server(5)
	m := ps.Model()
	m.ActualCost(3, ms(10))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order query must panic")
		}
	}()
	m.ActualCost(1, ms(10))
}
