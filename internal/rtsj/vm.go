// Package rtsj emulates the slice of the Real-Time Specification for
// Java that the paper builds on, over the repository's virtual clock:
// RealtimeThread with WaitForNextPeriod, periodic release parameters,
// the PriorityScheduler with a *working* feasibility test (the
// methods the paper found deficient in RI and missing in jRate), the
// PeriodicTimer used by the detectors, and the paper's
// RealtimeThreadExtended with its overloaded start() and
// waitForNextPeriod() (§3.1).
//
// Threads are real goroutines scheduled cooperatively in virtual
// time: the VM resumes exactly one goroutine at a time and a resumed
// goroutine always returns control by calling Compute,
// WaitForNextPeriod or returning — a synchronous handoff that makes
// runs fully deterministic despite true concurrency. Go's garbage
// collector never pauses the *virtual* clock, which is precisely why
// the reproduction simulates time instead of using wall time (see
// the repro package doc).
package rtsj

import (
	"fmt"
	"sync"

	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// VMConfig parameterizes the virtual machine.
type VMConfig struct {
	// Horizon ends the run; threads blocked at the horizon are
	// released with a false WaitForNextPeriod result so their run
	// loops exit.
	Horizon vtime.Duration
	// StopPoll is the §4.1 stop-flag polling granularity (0 = 1 ms).
	StopPoll vtime.Duration
	// TimerResolution quantizes PeriodicTimer first releases upward,
	// like jRate's 10 ms timer (0 = exact).
	TimerResolution vtime.Duration
	// Log receives trace events (fresh log if nil).
	Log *trace.Log
}

// request is a thread → VM transition.
type request struct {
	th   *RealtimeThread
	kind reqKind
	d    vtime.Duration // Compute amount
}

type reqKind uint8

const (
	reqCompute reqKind = iota
	reqWait
	reqExit
)

// resumeMsg is a VM → thread transition.
type resumeMsg struct {
	// ok is false when the VM is shutting down (WaitForNextPeriod
	// returns false / Compute aborts).
	ok bool
}

// VM is the virtual machine instance.
type VM struct {
	cfg VMConfig
	log *trace.Log

	threads []*RealtimeThread
	timers  []*PeriodicTimer
	req     chan request

	heap []vmEvent
	seq  uint64
	now  vtime.Time

	running bool
	wg      sync.WaitGroup
}

type vmEvent struct {
	at  vtime.Time
	seq uint64
	fn  func(now vtime.Time)
}

// NewVM builds a virtual machine.
func NewVM(cfg VMConfig) *VM {
	if cfg.StopPoll <= 0 {
		cfg.StopPoll = vtime.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = trace.NewLog()
	}
	return &VM{cfg: cfg, log: cfg.Log, req: make(chan request)}
}

// Log returns the VM's trace log.
func (vm *VM) Log() *trace.Log { return vm.log }

// Now returns the current virtual instant (the RTSJ Clock).
func (vm *VM) Now() vtime.Time { return vm.now }

// schedule enqueues a VM event.
func (vm *VM) schedule(at vtime.Time, fn func(now vtime.Time)) {
	if at < vm.now {
		at = vm.now
	}
	vm.seq++
	vm.heap = append(vm.heap, vmEvent{at, vm.seq, fn})
	i := len(vm.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !vm.lessEv(i, p) {
			break
		}
		vm.heap[i], vm.heap[p] = vm.heap[p], vm.heap[i]
		i = p
	}
}

func (vm *VM) lessEv(i, j int) bool {
	if vm.heap[i].at != vm.heap[j].at {
		return vm.heap[i].at < vm.heap[j].at
	}
	return vm.heap[i].seq < vm.heap[j].seq
}

func (vm *VM) popEv() (vmEvent, bool) {
	if len(vm.heap) == 0 {
		return vmEvent{}, false
	}
	top := vm.heap[0]
	last := len(vm.heap) - 1
	vm.heap[0] = vm.heap[last]
	vm.heap = vm.heap[:last]
	n := last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && vm.lessEv(l, s) {
			s = l
		}
		if r < n && vm.lessEv(r, s) {
			s = r
		}
		if s == i {
			break
		}
		vm.heap[i], vm.heap[s] = vm.heap[s], vm.heap[i]
		i = s
	}
	return top, true
}

// TaskSet derives the analytic task set from the started threads, for
// the PriorityScheduler feasibility methods.
func (vm *VM) TaskSet() (*taskset.Set, error) {
	tasks := make([]taskset.Task, 0, len(vm.threads))
	for _, th := range vm.threads {
		if !th.started {
			continue
		}
		tasks = append(tasks, th.task())
	}
	return taskset.New(tasks...)
}

// Run executes the virtual machine until the horizon. Every started
// thread's goroutine is guaranteed to have exited when Run returns.
func (vm *VM) Run() error {
	if vm.running {
		return fmt.Errorf("rtsj: VM already ran")
	}
	vm.running = true
	horizon := vtime.Time(vm.cfg.Horizon)
	if horizon <= 0 {
		return fmt.Errorf("rtsj: horizon must be positive")
	}
	for _, tm := range vm.timers {
		tm.arm(vm)
	}
	for _, th := range vm.threads {
		th.armReleases(vm)
	}
	for {
		vm.drainTruncated()
		run := vm.pickRunnable()
		var nextEv vtime.Time = vtime.Forever
		if len(vm.heap) > 0 {
			nextEv = vm.heap[0].at
		}
		if run == nil {
			// Idle: jump to the next event.
			if nextEv == vtime.Forever || nextEv > horizon {
				break
			}
			ev, _ := vm.popEv()
			vm.now = ev.at
			ev.fn(ev.at)
			continue
		}
		// Advance until the running thread's compute completes or an
		// event intervenes (possibly preempting it).
		done := vm.now.Add(run.remaining)
		if nextEv < done {
			if nextEv > horizon {
				break
			}
			ev, _ := vm.popEv()
			elapsed := ev.at.Sub(vm.now)
			vm.burst(run, vm.now, ev.at)
			run.remaining -= elapsed
			run.consumed += elapsed
			vm.now = ev.at
			ev.fn(ev.at)
			continue
		}
		if done > horizon {
			break
		}
		vm.burst(run, vm.now, done)
		run.consumed += run.remaining
		run.remaining = 0
		run.computing = false
		vm.now = done
		// Resume the thread and wait for its next call.
		vm.dispatch(run, resumeMsg{ok: !run.stopTruncated})
	}
	vm.shutdown(horizon)
	return nil
}

// burst records an execution interval in the trace as begin/resume +
// preempt pairs reconstructed by the chart package.
func (vm *VM) burst(th *RealtimeThread, from, to vtime.Time) {
	if to <= from {
		return
	}
	kind := trace.JobResume
	if !th.begunJob {
		th.begunJob = true
		kind = trace.JobBegin
	}
	vm.log.Append(trace.Event{At: from, Kind: kind, Task: th.name, Job: th.jobIndex})
	vm.log.Append(trace.Event{At: to, Kind: trace.JobPreempt, Task: th.name, Job: th.jobIndex})
}

// dispatch resumes a thread goroutine and processes its next request,
// returning once the thread has blocked again (or exited).
func (vm *VM) dispatch(th *RealtimeThread, msg resumeMsg) {
	th.gate <- msg
	r := <-vm.req
	vm.handle(r)
}

// handle processes one thread request.
func (vm *VM) handle(r request) {
	th := r.th
	switch r.kind {
	case reqCompute:
		th.remaining = r.d
		th.computeStart = th.consumed
		th.stopTruncated = false
		th.computing = true
		if th.stopFlag && r.d > 0 {
			// Stop already requested: the poll at the loop top sees
			// it after at most one poll granule.
			vm.truncateForStop(th)
		}
		if th.remaining <= 0 {
			// Nothing to execute (zero compute, or truncated at the
			// call boundary): resume immediately.
			th.computing = false
			vm.dispatch(th, resumeMsg{ok: !th.stopTruncated})
		}
	case reqWait:
		vm.completeJob(th)
		if th.pendingReleases > 0 {
			th.pendingReleases--
			vm.beginJob(th)
			// Release already pending: return immediately.
			vm.dispatch(th, resumeMsg{ok: true})
			return
		}
		th.waiting = true
	case reqExit:
		th.dead = true
	}
}

// drainTruncated resumes any thread whose in-flight compute was
// truncated to zero by a stop request raised from an event handler —
// the thread's poll observed the flag with no work left to burn.
func (vm *VM) drainTruncated() {
	for {
		var hit *RealtimeThread
		for _, th := range vm.threads {
			if th.started && !th.dead && !th.waiting && th.computing && th.remaining <= 0 {
				hit = th
				break
			}
		}
		if hit == nil {
			return
		}
		hit.computing = false
		vm.dispatch(hit, resumeMsg{ok: !hit.stopTruncated})
	}
}

// pickRunnable returns the highest-priority thread with pending
// compute (RTSJ PriorityScheduler: larger value first; FIFO within a
// priority by start order).
func (vm *VM) pickRunnable() *RealtimeThread {
	var best *RealtimeThread
	for _, th := range vm.threads {
		if !th.started || th.dead || th.waiting || th.remaining <= 0 {
			continue
		}
		if best == nil || th.priority > best.priority {
			best = th
		}
	}
	return best
}

// completeJob marks the current job finished (computeAfterPeriodic).
func (vm *VM) completeJob(th *RealtimeThread) {
	if !th.inJob {
		return
	}
	th.inJob = false
	kind := trace.JobEnd
	if th.stopFlag && th.stopJob == th.jobIndex && th.stopTruncated {
		kind = trace.JobStopped
	}
	vm.log.Append(trace.Event{At: vm.now, Kind: kind, Task: th.name, Job: th.jobIndex})
	th.finishedJobs++
	if th.onJobEnd != nil {
		th.onJobEnd(vm.now, th.jobIndex, kind == trace.JobStopped)
	}
}

// beginJob starts the next job (computeBeforePeriodic).
func (vm *VM) beginJob(th *RealtimeThread) {
	th.jobIndex++
	th.inJob = true
	th.begunJob = false
	th.stopTruncated = false
	if th.stopJob != th.jobIndex {
		th.stopFlag = false
	}
	if th.onJobBegin != nil {
		th.onJobBegin(vm.now, th.jobIndex)
	}
}

// truncateForStop shortens the thread's current compute to the next
// poll boundary relative to the compute call's start.
func (vm *VM) truncateForStop(th *RealtimeThread) {
	sinceCall := th.consumed - th.computeStart
	boundary := sinceCall.Ceil(vm.cfg.StopPoll)
	if boundary < th.remaining+sinceCall {
		th.remaining = boundary - sinceCall
		th.stopTruncated = true
	}
}

// shutdown releases every blocked or live goroutine so Run can join
// them deterministically.
func (vm *VM) shutdown(horizon vtime.Time) {
	vm.now = horizon
	for {
		progressed := false
		for _, th := range vm.threads {
			if !th.started || th.dead {
				continue
			}
			progressed = true
			th.waiting = false
			th.remaining = 0
			th.computing = false
			vm.dispatch(th, resumeMsg{ok: false})
			break // handle may have changed states; rescan
		}
		if !progressed {
			break
		}
	}
	vm.wg.Wait()
}
