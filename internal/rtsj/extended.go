package rtsj

import (
	"fmt"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Scheduler mirrors the RTSJ PriorityScheduler with the feasibility
// methods the paper implements (its javax.realtime.extended package):
// addToFeasibility/removeFromFeasibility maintain the analysed set
// and IsFeasible runs the exact Figure 2 test — the "deficient
// methods of RI and missing ones in jRate".
type Scheduler struct {
	threads []*RealtimeThread
}

// NewScheduler returns an empty feasibility context.
func NewScheduler() *Scheduler { return &Scheduler{} }

// AddToFeasibility adds a schedulable to the analysed set.
func (s *Scheduler) AddToFeasibility(th *RealtimeThread) {
	for _, t := range s.threads {
		if t == th {
			return
		}
	}
	s.threads = append(s.threads, th)
}

// RemoveFromFeasibility removes a schedulable from the analysed set.
func (s *Scheduler) RemoveFromFeasibility(th *RealtimeThread) {
	for i, t := range s.threads {
		if t == th {
			s.threads = append(s.threads[:i], s.threads[i+1:]...)
			return
		}
	}
}

// taskSet converts the feasibility set to the analytic model.
func (s *Scheduler) taskSet() (*taskset.Set, error) {
	if len(s.threads) == 0 {
		return nil, fmt.Errorf("rtsj: empty feasibility set")
	}
	tasks := make([]taskset.Task, len(s.threads))
	for i, th := range s.threads {
		tasks[i] = th.task()
	}
	return taskset.New(tasks...)
}

// IsFeasible runs the exact response-time admission control (paper
// Section 2) over the registered schedulables.
func (s *Scheduler) IsFeasible() (bool, error) {
	set, err := s.taskSet()
	if err != nil {
		return false, err
	}
	rep, err := analysis.Feasible(set)
	if err != nil {
		return false, err
	}
	return rep.Feasible, nil
}

// ResponseTimes returns the WCRT of each registered schedulable, in
// registration order.
func (s *Scheduler) ResponseTimes() ([]vtime.Duration, error) {
	set, err := s.taskSet()
	if err != nil {
		return nil, err
	}
	return analysis.ResponseTimes(set)
}

// ExtendedTreatment selects the RealtimeThreadExtended behaviour on
// detection, matching package detect's treatments.
type ExtendedTreatment int

// Extended treatments.
const (
	// ExtDetectOnly records faults without intervening.
	ExtDetectOnly ExtendedTreatment = iota
	// ExtStop raises the stop flag at the WCRT.
	ExtStop
	// ExtEquitable raises it at the allowance-shifted WCRT.
	ExtEquitable
	// ExtSystemAllowance raises it at WCRT + the task's maximum
	// single-task overrun.
	ExtSystemAllowance
)

// RealtimeThreadExtended is the paper's §3.1 class: it overloads
// start() to install a periodic detector with an offset equal to the
// worst case response time, and waitForNextPeriod() to maintain the
// job counter and finished flag through computeBeforePeriodic /
// computeAfterPeriodic.
type RealtimeThreadExtended struct {
	*RealtimeThread
	vm        *VM
	sched     *Scheduler
	treatment ExtendedTreatment

	// derived at StartAll time
	wcrt     vtime.Duration
	stopOff  vtime.Duration
	detected int64
}

// NewRealtimeThreadExtended wraps a thread with the paper's detector
// machinery. The scheduler accumulates the feasibility set shared by
// all extended threads of the VM.
func (vm *VM) NewRealtimeThreadExtended(name string, prio PriorityParameters, rel PeriodicParameters, sched *Scheduler, treatment ExtendedTreatment, logic func(t *RealtimeThreadExtended)) *RealtimeThreadExtended {
	ext := &RealtimeThreadExtended{vm: vm, sched: sched, treatment: treatment}
	ext.RealtimeThread = vm.NewRealtimeThread(name, prio, rel, func(t *RealtimeThread) {
		logic(ext)
	})
	sched.AddToFeasibility(ext.RealtimeThread)
	return ext
}

// Detections returns how many times this thread's detector flagged an
// unfinished job.
func (ext *RealtimeThreadExtended) Detections() int64 { return ext.detected }

// WCRT returns the worst case response time computed at Start.
func (ext *RealtimeThreadExtended) WCRT() vtime.Duration { return ext.wcrt }

// Start overloads RealtimeThread.Start: after starting the thread it
// computes the WCRT over the scheduler's feasibility set and installs
// the periodic detector (period = task period, offset = WCRT,
// quantized up to the VM timer resolution).
func (ext *RealtimeThreadExtended) Start() error {
	if err := ext.RealtimeThread.Start(); err != nil {
		return err
	}
	set, err := ext.sched.taskSet()
	if err != nil {
		return err
	}
	rep, err := analysis.Feasible(set)
	if err != nil {
		return err
	}
	if !rep.Feasible {
		return fmt.Errorf("rtsj: admission control rejects the system (misses: %v)", rep.Misses)
	}
	idx := set.IndexByName(ext.name)
	ext.wcrt = rep.WCRT[idx]
	ext.stopOff = ext.wcrt
	// Detector placement mirrors package detect: the timer sits at
	// the (quantized) WCRT — shifted to the Table 3 bound under the
	// equitable treatment — and the system-allowance treatment
	// schedules the actual stop separately at the exact instant
	// release + WCRT + MaxOverrun (Figure 7's "thirty-three
	// milliseconds after its worst case response time").
	detBase := ext.wcrt
	switch ext.treatment {
	case ExtEquitable:
		detBase = allowance.NewTable(set, rep.WCRT, 0).EquitableWCRT()[idx]
		ext.stopOff = detBase
	case ExtSystemAllowance:
		maxo, err := allowance.MaxOverrun(set, idx, 0)
		if err != nil {
			return err
		}
		ext.stopOff = ext.wcrt + maxo
	}
	detOff := detBase.Ceil(ext.vm.cfg.TimerResolution)
	ext.vm.NewPeriodicTimer(ext.release.Start+detOff, ext.release.Period, func(now vtime.Time) {
		// Which job does this firing watch? Releases are periodic
		// from Start; firing k watches job k.
		q := int64((vtime.Duration(now) - ext.release.Start - detOff) / ext.release.Period)
		ext.vm.log.Append(trace.Event{At: now, Kind: trace.DetectorRelease, Task: ext.name, Job: q})
		if ext.finishedJobs > q {
			return // job completed in time
		}
		ext.detected++
		ext.vm.log.Append(trace.Event{At: now, Kind: trace.FaultDetected, Task: ext.name, Job: q})
		switch ext.treatment {
		case ExtStop, ExtEquitable:
			ext.requestStop(ext.vm, q, now)
		case ExtSystemAllowance:
			release := vtime.Time(ext.release.Start + vtime.Duration(q)*ext.release.Period)
			stopAt := release.Add(ext.stopOff)
			if stopAt < now {
				stopAt = now
			}
			ext.vm.log.Append(trace.Event{At: now, Kind: trace.AllowanceGrant, Task: ext.name, Job: q, Arg: int64(ext.stopOff - ext.wcrt)})
			ext.vm.schedule(stopAt, func(at vtime.Time) {
				if ext.finishedJobs <= q {
					ext.requestStop(ext.vm, q, at)
				}
			})
		}
	})
	return nil
}

// WaitForNextPeriod overloads the RTSJ method exactly as the paper's
// listing does:
//
//	computeAfterPeriodic();
//	boolean r = super.waitForNextPeriod();
//	computeBeforePeriodic();
//	return r;
//
// In this emulation the before/after bookkeeping (job counter and
// finished flag) lives in the VM's completeJob/beginJob, invoked
// around the blocking wait; the overload is therefore behaviourally
// identical and kept for API fidelity.
func (ext *RealtimeThreadExtended) WaitForNextPeriod() bool {
	return ext.RealtimeThread.WaitForNextPeriod()
}
