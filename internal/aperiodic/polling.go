// Package aperiodic implements the paper's §7 outlook — "studying the
// faults detection and tolerance in the case of aperiodic tasks" —
// with the classical fixed-priority vehicle for aperiodic load: a
// polling server. The server is a periodic task (period Ts, capacity
// Cs) that admission control treats exactly like any other task, so
// the paper's detectors and allowances apply unchanged; aperiodic
// requests are served FIFO from the server's budget, and a burst of
// arrivals can never endanger the periodic tasks because the per-job
// demand is capped at the declared capacity.
package aperiodic

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Request is one aperiodic arrival.
type Request struct {
	// ID names the request in results.
	ID string
	// Arrival is the absolute arrival instant.
	Arrival vtime.Time
	// Cost is the service demand.
	Cost vtime.Duration
	// Deadline is the (soft) relative deadline used for reporting;
	// zero means none.
	Deadline vtime.Duration
}

// PollingServer models the server task and its request queue.
type PollingServer struct {
	// Task is the server's periodic parameters: Cost is the capacity
	// Cs, Period the polling period Ts. Admission control sees
	// exactly this task.
	Task taskset.Task
	// Requests is the arrival schedule, sorted by Analyze if needed.
	Requests []Request
}

// Validate checks the server parameters and arrival schedule.
func (ps *PollingServer) Validate() error {
	if err := ps.Task.Validate(); err != nil {
		return err
	}
	for i, r := range ps.Requests {
		if r.Cost <= 0 {
			return fmt.Errorf("aperiodic: request %d (%s) has non-positive cost", i, r.ID)
		}
		if r.Arrival < 0 {
			return fmt.Errorf("aperiodic: request %d (%s) has negative arrival", i, r.ID)
		}
	}
	return nil
}

// Model returns the fault.Model that drives the server's per-job
// demand: at each release the server polls its queue and takes
// min(capacity, backlog). The model is stateful and assumes releases
// are queried in order, which the engine guarantees (one release
// event per job, ascending). A zero-backlog poll yields the minimum
// representable demand (the engine requires positive costs; the
// polling itself is not free).
func (ps *PollingServer) Model() fault.Model {
	arr := append([]Request(nil), ps.Requests...)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Arrival < arr[j].Arrival })
	return &pollModel{server: ps.Task, arrivals: arr}
}

type pollModel struct {
	server   taskset.Task
	arrivals []Request

	next    int            // first arrival not yet enqueued
	backlog vtime.Duration // queued but unserved work
	lastQ   int64
}

// ActualCost computes the server's demand for job q.
func (m *pollModel) ActualCost(q int64, nominal vtime.Duration) vtime.Duration {
	if q < m.lastQ {
		// Re-query of an old job (defensive): demands are a function
		// of history, so recomputation is not supported.
		panic("aperiodic: polling model queried out of order")
	}
	m.lastQ = q
	release := vtime.Time(m.server.Offset) + vtime.Time(vtime.Duration(q)*m.server.Period)
	for m.next < len(m.arrivals) && m.arrivals[m.next].Arrival <= release {
		m.backlog += m.arrivals[m.next].Cost
		m.next++
	}
	demand := m.backlog
	if demand > nominal {
		demand = nominal // capacity cap: bursts cannot exceed Cs
	}
	if demand <= 0 {
		demand = vtime.Microsecond // the poll itself
	} else {
		m.backlog -= demand
	}
	return demand
}

// Served is the outcome of one request.
type Served struct {
	Request
	// Completion is when its last unit of service finished
	// (zero Time if unserved within the horizon).
	Completion vtime.Time
	// Response = Completion − Arrival.
	Response vtime.Duration
	// Done reports full service.
	Done bool
}

// MissedSoftDeadline reports whether a served request exceeded its
// (soft) deadline.
func (s Served) MissedSoftDeadline() bool {
	return s.Done && s.Deadline > 0 && s.Response > s.Deadline
}

// Analyze replays the server's execution from the trace and
// attributes service to requests FIFO, yielding per-request response
// times. It reconstructs the exact per-job allocation the polling
// model made (min(capacity, backlog at release)), so the 1 µs
// demands of empty polls are never misattributed to a request that
// arrived after the poll's queue snapshot.
func (ps *PollingServer) Analyze(log *trace.Log) []Served {
	reqs := append([]Request(nil), ps.Requests...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	out := make([]Served, len(reqs))
	for i, r := range reqs {
		out[i] = Served{Request: r}
	}
	// Per-job execution bursts, keyed by job index.
	type burst struct{ from, to vtime.Time }
	bursts := map[int64][]burst{}
	var jobs []int64
	var open vtime.Time
	openJob := int64(-1)
	running := false
	for _, e := range log.TaskEvents(ps.Task.Name) {
		switch e.Kind {
		case trace.JobRelease:
			jobs = append(jobs, e.Job)
		case trace.JobBegin, trace.JobResume, trace.JobMigrate:
			open, openJob, running = e.At, e.Job, true
		case trace.JobPreempt, trace.JobEnd, trace.JobStopped:
			if running && e.At > open {
				bursts[openJob] = append(bursts[openJob], burst{open, e.At})
			}
			running = false
		}
	}
	// Replay the allocation and pay requests FIFO from each job's
	// allocated demand, at the job's actual burst times.
	next, i := 0, 0
	var backlog vtime.Duration
	for _, q := range jobs {
		release := vtime.Time(ps.Task.Offset) + vtime.Time(vtime.Duration(q)*ps.Task.Period)
		for next < len(reqs) && reqs[next].Arrival <= release {
			backlog += reqs[next].Cost
			next++
		}
		allocated := backlog
		if allocated > ps.Task.Cost {
			allocated = ps.Task.Cost
		}
		if allocated <= 0 {
			continue // empty poll: its µs demand serves nobody
		}
		backlog -= allocated
		for _, b := range bursts[q] {
			t := b.from
			for i < len(out) && t < b.to && allocated > 0 {
				r := &out[i]
				need := r.Cost - r.Response // Response doubles as paid-so-far
				pay := vtime.MinDur(vtime.MinDur(need, b.to.Sub(t)), allocated)
				r.Response += pay
				allocated -= pay
				t = t.Add(pay)
				if r.Response >= r.Cost {
					r.Completion = t
					r.Done = true
					r.Response = r.Completion.Sub(r.Arrival)
					i++
				}
			}
		}
	}
	// Unfinished requests keep Done=false; normalize partial pay.
	for j := i; j < len(out); j++ {
		out[j].Response = 0
	}
	return out
}

// Attach wires the server into an engine configuration: it appends
// the server task to the set and registers the polling model in the
// plan. Call before engine.New.
func (ps *PollingServer) Attach(set *taskset.Set, plan fault.Plan) (*taskset.Set, fault.Plan, error) {
	if err := ps.Validate(); err != nil {
		return nil, nil, err
	}
	out := set.Clone()
	out.Tasks = append(out.Tasks, ps.Task)
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	if plan == nil {
		plan = fault.Plan{}
	} else {
		np := fault.Plan{}
		for k, v := range plan { // order-independent: copies a map
			np[k] = v
		}
		plan = np
	}
	plan[ps.Task.Name] = ps.Model()
	return out, plan, nil
}

// Run is a convenience: simulate the set plus server to the horizon
// and return the recorded log plus the served requests.
func (ps *PollingServer) Run(set *taskset.Set, plan fault.Plan, horizon vtime.Duration) (*trace.Log, []Served, error) {
	full, fullPlan, err := ps.Attach(set, plan)
	if err != nil {
		return nil, nil, err
	}
	log := trace.NewLog()
	e, err := engine.New(engine.Config{Tasks: full, Faults: fullPlan, End: vtime.Time(horizon), Sink: log})
	if err != nil {
		return nil, nil, err
	}
	e.Run()
	return log, ps.Analyze(log), nil
}
