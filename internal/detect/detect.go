// Package detect implements the paper's fault detection and treatment
// mechanisms (Sections 3 and 4). A detector is a periodic timer per
// task — period equal to the task period, offset equal to the task's
// worst-case response time — that checks whether the current job has
// finished; an unfinished job at its WCRT has necessarily overrun its
// cost. Treatments decide what to do with the faulty task: nothing,
// stop it at once, stop it after an equitable allowance, or grant it
// the whole system allowance (redistributing any leftover to later
// faulty tasks).
package detect

import (
	"fmt"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Treatment selects the paper's §4 fault response.
type Treatment int

// Treatments, in the order of the paper's §6 comparison.
const (
	// NoDetection disables detectors entirely (Figure 3).
	NoDetection Treatment = iota
	// DetectOnly installs detectors but treats nothing (Figure 4).
	DetectOnly
	// Stop stops faulty tasks at their WCRT (Figure 5, §4.1).
	Stop
	// Equitable stops faulty tasks after the equitable allowance
	// (Figure 6, §4.2): detectors fire at the Table 3 shifted WCRTs.
	Equitable
	// SystemAllowance grants the whole system slack to the first
	// faulty task, leftover to later ones (Figure 7, §4.3).
	SystemAllowance
)

// String names the treatment as in the paper's section titles.
func (t Treatment) String() string {
	switch t {
	case NoDetection:
		return "no-detection"
	case DetectOnly:
		return "detect-only"
	case Stop:
		return "stop"
	case Equitable:
		return "equitable-allowance"
	case SystemAllowance:
		return "system-allowance"
	default:
		return fmt.Sprintf("treatment(%d)", int(t))
	}
}

// ParseTreatment maps a treatment name to its constant. It accepts
// the short command-line vocabulary (none, detect, stop, equitable,
// system) and the paper's long forms (no-detection, detect-only,
// stop-equitable, equitable-allowance, system-allowance); the empty
// string means NoDetection. It is the single mapping behind
// sim.ParseTreatment and the verify oracle's scenario bridge.
func ParseTreatment(name string) (Treatment, error) {
	switch name {
	case "", "none", "no-detection":
		return NoDetection, nil
	case "detect", "detect-only":
		return DetectOnly, nil
	case "stop":
		return Stop, nil
	case "equitable", "stop-equitable", "equitable-allowance":
		return Equitable, nil
	case "system", "system-allowance":
		return SystemAllowance, nil
	}
	return 0, fmt.Errorf("detect: unknown treatment %q (want none|detect|stop|equitable|system)", name)
}

// Config parameterizes a Supervisor.
type Config struct {
	// Treatment is the fault response policy.
	Treatment Treatment
	// TimerResolution quantizes detector releases upward, modelling
	// jRate's PeriodicTimer whose releases are only accurate at
	// multiples of 10 ms (paper §6.2). Zero means exact timers.
	TimerResolution vtime.Duration
	// Granularity is the allowance search resolution (0 = 1 ms).
	Granularity vtime.Duration
}

// DefaultTimerResolution reproduces jRate's 10 ms PeriodicTimer.
const DefaultTimerResolution = 10 * vtime.Millisecond

// taskPlan is the per-task detection parameterization derived from
// admission control, plus the per-task runtime statistics. Keeping
// the mutable counters here — one plan lookup per completion instead
// of a map operation per counter — keeps the supervisor off the
// engine's hot path.
type taskPlan struct {
	task taskset.Task
	// wcrt is the nominal worst-case response time.
	wcrt vtime.Duration
	// detectOffset is the (quantized) offset of the detector within
	// each period.
	detectOffset vtime.Duration
	// maxOverrun is the §4.3 single-task bound.
	maxOverrun vtime.Duration

	// faultyQ is the job index flagged by the detector's most recent
	// detection, -1 while no flagged job is outstanding.
	faultyQ int64
	// maxExecuted is the largest CPU time any completed job actually
	// consumed — the §7 cost under-run observation ("if the cost of a
	// task can be underestimated, it is also possible to overestimate
	// it").
	maxExecuted vtime.Duration
	// completedJobs counts completions, so reclamation only trusts
	// tasks with evidence.
	completedJobs int64
}

// Supervisor owns the detectors and treatments for one run. Build it
// with NewSupervisor (which performs the paper's admission control and
// allowance analysis), then Attach it to an engine before Run.
type Supervisor struct {
	cfg   Config
	table *allowance.Table
	plans map[string]*taskPlan
	set   *taskset.Set

	// detections counts FaultDetected events.
	detections int64
}

// NewSupervisor runs admission control on the set and derives every
// detector offset and allowance. It fails if the system is not
// theoretically feasible — the paper's premise is a system accepted by
// admission control that faults at runtime anyway.
func NewSupervisor(s *taskset.Set, cfg Config) (*Supervisor, error) {
	rep, err := analysis.Feasible(s)
	if err != nil {
		return nil, err
	}
	if !rep.Feasible {
		return nil, fmt.Errorf("detect: admission control rejects the system (misses: %v)", rep.Misses)
	}
	tab, err := allowance.Compute(s, cfg.Granularity)
	if err != nil {
		return nil, err
	}
	sup := &Supervisor{
		cfg:   cfg,
		table: tab,
		plans: make(map[string]*taskPlan, s.Len()),
		set:   s.Clone(),
	}
	for i, t := range s.Tasks {
		off := tab.WCRT[i]
		if cfg.Treatment == Equitable {
			// §4.2: tasks are stopped after the new worst case
			// response times which take the allowance into account.
			off = tab.EquitableWCRT[i]
		}
		sup.plans[t.Name] = &taskPlan{
			task:         t,
			wcrt:         tab.WCRT[i],
			detectOffset: off.Ceil(cfg.TimerResolution),
			maxOverrun:   tab.MaxOverrun[i],
			faultyQ:      -1,
		}
	}
	return sup, nil
}

// Table exposes the allowance analysis backing the detectors.
func (s *Supervisor) Table() *allowance.Table { return s.table }

// Detections returns the number of faults detected so far.
func (s *Supervisor) Detections() int64 { return s.detections }

// DetectorOffset returns the quantized detector offset of a task, as
// observable in the paper's Figure 4 (30/60/90 for WCRTs 29/58/87).
func (s *Supervisor) DetectorOffset(task string) (vtime.Duration, bool) {
	p, ok := s.plans[task]
	if !ok {
		return 0, false
	}
	return p.detectOffset, true
}

// Attach installs the detectors on the engine. With NoDetection it
// installs nothing. Call exactly once, before engine.Run. Detectors
// are armed in task-set order (as AdmitTask arms one task at a time):
// detectors due at the same instant then fire in a fixed order, so
// the stop treatment's jitter draws land on the same tasks every run.
func (s *Supervisor) Attach(e *engine.Engine) {
	if s.cfg.Treatment == NoDetection {
		return
	}
	for _, t := range s.set.Tasks {
		s.scheduleDetector(e, t.Name, 0)
	}
}

// scheduleDetector arms the detector for job q of the task. The
// detector is periodic (one real-time timer per task, §3: "This
// periodic approach enables us to avoid the creation of an instance
// of a detector for each job"); we model it as a self-rescheduling
// timer, which also supports dynamic task addition (§7). The timer
// state and its callback are allocated once per task and reused at
// every re-arm, so a steady-state detector fire costs no allocation.
func (s *Supervisor) scheduleDetector(e *engine.Engine, name string, q int64) {
	dt := &detectorTimer{s: s, e: e, name: name, tid: e.TaskID(name), q: q}
	dt.fn = func(now vtime.Time) {
		dt.s.fire(dt, now)
		dt.q++
		dt.arm()
	}
	dt.arm()
}

// detectorTimer is one task's periodic detector: a self-rescheduling
// timer whose single closure survives across fires. tid caches the
// engine's task handle so a fire resolves the checked job without a
// name lookup.
type detectorTimer struct {
	s    *Supervisor
	e    *engine.Engine
	name string
	tid  int
	q    int64
	fn   func(now vtime.Time)
}

// arm schedules the check of job q; a removed task (no plan) lets the
// chain end.
func (dt *detectorTimer) arm() {
	p, ok := dt.s.plans[dt.name]
	if !ok {
		return
	}
	at := vtime.Time(p.task.Offset).
		Add(vtime.Duration(dt.q) * p.task.Period).
		Add(p.detectOffset)
	dt.e.ScheduleDetector(at, dt.fn)
}

// fire is the detector body: check the job counter and finished flag
// kept up to date by waitForNextPeriod (§3.1) and start a treatment
// when the job is late.
func (s *Supervisor) fire(dt *detectorTimer, now vtime.Time) {
	e, name, q := dt.e, dt.name, dt.q
	p, ok := s.plans[name]
	if !ok {
		return // task removed since the timer was armed
	}
	e.Record(trace.Event{At: now, Kind: trace.DetectorRelease, Task: name, Job: q})
	j, exists := e.JobAtID(dt.tid, q)
	if !exists || j.Done() {
		// Job finished in time (or was dropped): if it was flagged
		// faulty by an earlier detector and completed since,
		// ObserveCompletion already cleared the flag.
		return
	}
	s.detections++
	p.faultyQ = q
	e.Record(trace.Event{At: now, Kind: trace.FaultDetected, Task: name, Job: q})
	switch s.cfg.Treatment {
	case DetectOnly:
		// Observation only (Figure 4).
	case Stop, Equitable:
		// The detector offset already encodes the allowance for the
		// equitable treatment; in both cases the task is stopped as
		// soon as the (possibly shifted) WCRT passes.
		e.StopJob(name, q, now)
	case SystemAllowance:
		// §4.3 and Figure 7: the faulty task is stopped after a WCRT
		// overrun equal to the maximum free time in the system, i.e.
		// at release + WCRT_i + MaxOverrun_i. The paper's leftover
		// redistribution ("if the first faulty task finishes before
		// having consumed all its allowance, the remainder is
		// allocated to the other faulty tasks" and conversely each
		// task's allowance subtracts "the more priority tasks
		// overrun") is emergent in the time domain: an earlier faulty
		// task that consumed X ms pushes this task's start right by
		// X, so within the fixed window [release+WCRT_i,
		// release+WCRT_i+MaxOverrun_i] exactly MaxOverrun_i − X of
		// own overrun remains. Figure 7 exhibits this: τ1 is stopped
		// at +33, τ2 and τ3 then complete exactly at their shifted
		// bounds 1091 and 1120 with zero residual allowance.
		grant := p.maxOverrun
		e.Record(trace.Event{At: now, Kind: trace.AllowanceGrant, Task: name, Job: q, Arg: int64(grant)})
		stopAt := j.Release.Add(p.wcrt).Add(grant)
		if stopAt < now {
			stopAt = now
		}
		e.Schedule(stopAt, func(at vtime.Time) {
			if jj, ok := e.JobAt(name, q); ok && !jj.Done() {
				e.StopJob(name, q, at)
			}
		})
	}
}

// ObserveCompletion must be wired to the engine's OnFinish and
// OnStopped hooks: it clears the faulty flag once the flagged job
// terminates (the paper's leftover redistribution is emergent in the
// time domain, see the SystemAllowance case in fire) and maintains
// the §7 cost under-run statistics for every completed job.
func (s *Supervisor) ObserveCompletion(e *engine.Engine, j *engine.Job) {
	p, ok := s.plans[j.TaskName()]
	if !ok {
		return
	}
	if !j.Stopped() {
		p.completedJobs++
		if j.Executed > p.maxExecuted {
			p.maxExecuted = j.Executed
		}
	}
	if p.faultyQ == j.Q {
		p.faultyQ = -1
	}
}

// Hooks returns engine hooks pre-wired to the supervisor. Compose
// with any caller hooks before building the engine config.
func (s *Supervisor) Hooks() engine.Hooks {
	return engine.Hooks{
		OnFinish:  s.ObserveCompletion,
		OnStopped: s.ObserveCompletion,
	}
}

// ObservedCost returns the largest CPU consumption seen across the
// task's completed jobs and how many completions back it. A value
// well under the declared cost is the paper's §7 cost under-run: the
// declaration was pessimistic and resources can be reassigned.
func (s *Supervisor) ObservedCost(task string) (vtime.Duration, int64) {
	p, ok := s.plans[task]
	if !ok {
		return 0, 0
	}
	return p.maxExecuted, p.completedJobs
}

// ReclaimTable recomputes the allowance analysis with every declared
// cost replaced by the observed maximum (for tasks with at least
// minJobs completions; others keep their declaration) — the §7
// "reassign resources" step. The reclaimed allowances are at least
// the nominal ones, strictly larger when some task under-runs.
func (s *Supervisor) ReclaimTable(minJobs int64) (*allowance.Table, error) {
	observed := s.set.Clone()
	for i := range observed.Tasks {
		p, ok := s.plans[observed.Tasks[i].Name]
		if ok && p.completedJobs >= minJobs && p.maxExecuted > 0 &&
			p.maxExecuted < observed.Tasks[i].Cost {
			observed.Tasks[i].Cost = p.maxExecuted
		}
	}
	return allowance.Compute(observed, s.cfg.Granularity)
}

// AdmitTask implements dynamic admission (paper §7): it re-runs
// feasibility on the current set plus the candidate; on success it
// recomputes every allowance and detector offset (existing detectors
// pick the new offsets up at their next arming) and adds the task to
// the engine.
func (s *Supervisor) AdmitTask(e *engine.Engine, t taskset.Task) error {
	cand := s.set.Clone()
	cand.Tasks = append(cand.Tasks, t)
	if err := cand.Validate(); err != nil {
		return err
	}
	rep, err := analysis.Feasible(cand)
	if err != nil {
		return err
	}
	if !rep.Feasible {
		return fmt.Errorf("detect: admission control rejects task %s (misses: %v)", t.Name, rep.Misses)
	}
	tab, err := allowance.Compute(cand, s.cfg.Granularity)
	if err != nil {
		return err
	}
	now := e.Now()
	if err := e.AddTask(t, nil, now); err != nil {
		return err
	}
	// The engine interprets the offset relative to now; record the
	// absolute first release so detector arming matches (offsets do
	// not affect the critical-instant feasibility analysis above).
	cand.Tasks[len(cand.Tasks)-1].Offset += vtime.Duration(now)
	s.set = cand
	s.table = tab
	s.rebuildPlans()
	if s.cfg.Treatment != NoDetection {
		s.scheduleDetector(e, t.Name, 0)
	}
	return nil
}

// RemoveTask removes a task from the system and the supervision plan;
// the freed capacity enlarges every allowance (recomputed here).
func (s *Supervisor) RemoveTask(e *engine.Engine, name string) error {
	idx := s.set.IndexByName(name)
	if idx < 0 {
		return fmt.Errorf("detect: unknown task %q", name)
	}
	e.RemoveTask(name, e.Now())
	s.set.Tasks = append(s.set.Tasks[:idx], s.set.Tasks[idx+1:]...)
	delete(s.plans, name)
	tab, err := allowance.Compute(s.set, s.cfg.Granularity)
	if err != nil {
		return err
	}
	s.table = tab
	s.rebuildPlans()
	return nil
}

// rebuildPlans refreshes detector offsets and allowances from the
// current table, preserving unknown tasks untouched.
func (s *Supervisor) rebuildPlans() {
	for i, t := range s.set.Tasks {
		off := s.table.WCRT[i]
		if s.cfg.Treatment == Equitable {
			off = s.table.EquitableWCRT[i]
		}
		p, ok := s.plans[t.Name]
		if !ok {
			p = &taskPlan{faultyQ: -1}
			s.plans[t.Name] = p
		}
		p.task = t
		p.wcrt = s.table.WCRT[i]
		p.detectOffset = off.Ceil(s.cfg.TimerResolution)
		p.maxOverrun = s.table.MaxOverrun[i]
	}
}
