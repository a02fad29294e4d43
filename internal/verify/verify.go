// Package verify is the online invariant oracle of the reproduction:
// a trace.Sink that validates, event by event, the scheduling axioms
// every correct run must satisfy — regardless of workload. Where the
// golden traces pin known scenarios byte for byte, the checker turns
// *every* run (including fuzzed ones, see the gen subpackage) into a
// self-verifying experiment: feed it the event stream, then ask Err
// for the violations.
//
// The axioms checked, per event:
//
//   - timestamps are monotone (non-decreasing);
//   - at most one job runs per core at any instant, and a dispatch
//     switch is always bracketed by the displaced job's
//     preempt/end/stop;
//   - on multiprocessor runs (CPUs > 1): a resume stays on the job's
//     last core — a cross-core dispatch must be a JobMigrate, which
//     in turn must change core; under partitioned placement every
//     dispatch lands on the task's pinned core and nothing ever
//     migrates; and at every settled instant (all events of that
//     time processed) no core idles while an eligible job waits
//     (work conservation — per core under partitioned placement);
//   - jobs of one task are released exactly per the task's declared
//     release law — strictly periodically (offset + q·T) by default,
//     or, for a task driven by an arrival source (Config.Sources),
//     record for record against a fresh replay of that source: the
//     same seeded stochastic process or trace yields the same arrival
//     instants, so even "random" releases are checked exactly — and
//     dispatched in release order (only the head of a task's backlog
//     may run — the arbitrary-deadline model);
//   - every released job is resolved by its absolute deadline: it
//     completes, is stopped, or a DeadlineMiss is recorded exactly at
//     release + D (a job finishing exactly at its deadline is not a
//     miss, matching the paper's closed inequalities);
//   - each dispatch picks the policy-best ready head — fixed-priority
//     order exactly; EDF and the EDF-ordered overload baselines (RED,
//     best-effort, D-over) via recomputed deadline keys;
//   - at every settled instant, on any core count, no job that became
//     waiting at that instant (released as its task's head, exposed by
//     its predecessor's termination, or preempted) outranks a running
//     job it competes with — every running job under global dispatch,
//     the job on its own core under partitioned placement — so a
//     missed preemption fails;
//   - detector releases fire exactly at release_q + detector offset,
//     the paper's latest-detection bound (WCRT, or the equitable
//     shifted WCRT, quantized to the timer resolution), and flag only
//     live unfinished jobs;
//   - per-task conservation: releases = completions + stops + jobs
//     still live at the horizon, with every live job either unexpired
//     or flagged as a miss;
//   - a polling server's per-job execution never overdraws its
//     declared capacity (plus charged context-switch overhead).
//
// The checker is pure bookkeeping over the public trace vocabulary —
// it never peeks at engine internals — so it can equally replay a
// decoded log from disk (the golden-trace semantic validation) or run
// live inside a streaming-collection pipeline via trace.Tee.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Violation is one invariant breach, anchored at the offending event.
type Violation struct {
	// At is the instant of the event that exposed the breach.
	At vtime.Time
	// Rule is the short stable identifier of the violated axiom
	// (e.g. "monotone-time", "dispatch-order", "server-budget").
	Rule string
	// Msg is the human-readable account.
	Msg string
}

// String renders the violation one-per-line style.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v [%s] %s", v.At, v.Rule, v.Msg)
}

// Error aggregates a run's violations; core.Run and sim return it
// (wrapped) when the oracle is enabled and an axiom is broken.
type Error struct {
	// Violations holds the first MaxViolations breaches in event order.
	Violations []Violation
	// Total counts every breach, including ones dropped past the cap.
	Total int
}

// Error summarizes the breaches, newline-separated.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d invariant violation(s)", e.Total)
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if e.Total > len(e.Violations) {
		fmt.Fprintf(&b, "\n  ... %d more", e.Total-len(e.Violations))
	}
	return b.String()
}

// DefaultMaxViolations caps how many violations a checker records
// verbatim; the total keeps counting past it.
const DefaultMaxViolations = 16

// Config parameterizes a Checker with the run's declared ground truth.
type Config struct {
	// Tasks is the declared task system in engine order (declaration
	// index = engine task id, the dispatch tie-breaker). Required.
	Tasks *taskset.Set
	// Policy names the scheduling policy whose priority order
	// dispatches must follow: "" or "fixed-priority" for the paper's
	// scheduler; "edf", "best-effort", "red" and "d-over" share the
	// EDF key. An unrecognized name disables the dispatch-order check
	// (the other axioms still apply).
	Policy string
	// Sources maps task names to a fresh arrival-source iterator for
	// tasks whose releases are source-driven rather than periodic.
	// Each must be a reconstruction (same kind, parameters and seed —
	// never the engine's own instance, which is already consumed): the
	// checker replays it release by release and demands exact arrival
	// instants, per-record deadline overrides applied to the deadline
	// axiom, and no releases past exhaustion. Nil or absent entries
	// keep the periodic offset + q·T law.
	Sources map[string]taskset.Source
	// DetectorOffsets maps task names to the expected detector offset
	// within each period — the latest-detection bound (WCRT or
	// equitable WCRT, quantized). Nil skips detector-timing checks.
	DetectorOffsets map[string]vtime.Duration
	// ServerBudgets maps polling-server task names to their per-job
	// capacity; a server job executing past it (plus charged
	// context-switch overhead) is a violation. Nil skips the check.
	ServerBudgets map[string]vtime.Duration
	// ContextSwitch is the per-dispatch overhead charged by the run,
	// admitted on top of each server budget.
	ContextSwitch vtime.Duration
	// CPUs is the number of processors of the run (0 means 1). The
	// multiprocessor axioms — migration legality, work conservation —
	// arm only when CPUs > 1; per-core occupancy degenerates to the
	// classic single-running-job rule at 1.
	CPUs int
	// Assignment pins task names to cores under partitioned
	// placement; nil means global dispatch. A pinned task dispatched
	// on any other core, or migrating at all, is a violation.
	Assignment map[string]int
	// Horizon is the run's end instant, used by Finish to decide
	// which live jobs legitimately outlast the simulation.
	Horizon vtime.Time
	// MaxViolations caps recorded breaches (0 = DefaultMaxViolations).
	MaxViolations int
}

// dispatch orders the checker can recompute.
type dispatchOrder uint8

const (
	orderUnknown dispatchOrder = iota
	orderFixedPriority
	orderEDF
)

func orderFor(policy string) dispatchOrder {
	switch policy {
	case "", "fixed-priority":
		return orderFixedPriority
	case "edf", "best-effort", "red", "d-over":
		return orderEDF
	default:
		return orderUnknown
	}
}

// jobState is the checker's reconstruction of one job from its events.
type jobState struct {
	tc          *taskCheck
	q           int64
	release     vtime.Time
	absDeadline vtime.Time
	begun       bool
	running     bool
	terminated  bool
	missed      bool
	runSince    vtime.Time
	executed    vtime.Duration
	dispatches  int64
	cpu         int // core the job is running on (or last ran on)
}

func (j *jobState) name() string { return fmt.Sprintf("%s#%d", j.tc.name, j.q) }

// taskCheck is the checker's per-task state.
type taskCheck struct {
	name    string
	id      int
	task    taskset.Task
	known   bool // declared in Config.Tasks (dynamic tasks are not)
	removed bool
	budget  vtime.Duration // server capacity (0 = unchecked)
	core    int            // pinned core under partitioned placement
	pinned  bool           // set when Config.Assignment names the task

	nextQ    int64 // next expected release index
	nextDetQ int64 // next expected detector check index

	// src replays the task's declared arrival source (nil = periodic);
	// srcNext/srcOK stage its next expected release.
	src     taskset.Source
	srcNext taskset.Release
	srcOK   bool

	// queue holds the live (released, unterminated) jobs in release
	// order; queue[head] is the only job of the task allowed to run.
	queue []*jobState
	head  int

	released, completed, stopped, misses int64
}

func (tc *taskCheck) live() int { return len(tc.queue) - tc.head }

func (tc *taskCheck) headJob() *jobState {
	if tc.head < len(tc.queue) {
		return tc.queue[tc.head]
	}
	return nil
}

// jobAt finds a live job by index (binary search over ascending q).
func (tc *taskCheck) jobAt(q int64) *jobState {
	lo, hi := tc.head, len(tc.queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tc.queue[mid].q < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(tc.queue) && tc.queue[lo].q == q {
		return tc.queue[lo]
	}
	return nil
}

// consume removes a terminated job from the live queue. Like the
// engine's own pending queue, the consumed prefix is nil'd at once
// and compacted away amortizedly once it dominates the array, so the
// oracle's memory stays proportional to the live backlog — not the
// total releases — and composes with Stream mode's bounded-memory
// guarantee even for tasks that never go idle.
func (tc *taskCheck) consume(j *jobState) {
	if tc.headJob() == j {
		tc.queue[tc.head] = nil
		tc.head++
		if tc.head == len(tc.queue) {
			tc.queue = tc.queue[:0]
			tc.head = 0
		} else if tc.head >= 32 && tc.head*2 >= len(tc.queue) {
			n := copy(tc.queue, tc.queue[tc.head:])
			for i := n; i < len(tc.queue); i++ {
				tc.queue[i] = nil
			}
			tc.queue = tc.queue[:n]
			tc.head = 0
		}
		return
	}
	for i := tc.head; i < len(tc.queue); i++ {
		if tc.queue[i] == j {
			tc.queue = append(tc.queue[:i], tc.queue[i+1:]...)
			return
		}
	}
}

// Checker consumes a run's trace events (it implements trace.Sink)
// and records every invariant violation. Drive it with Append, close
// with Finish, then read Err.
type Checker struct {
	cfg   Config
	order dispatchOrder

	tasks  []*taskCheck
	byName map[string]*taskCheck

	lastAt vtime.Time
	seen   bool
	// running[c] is the job currently occupying core c (nil = idle);
	// length 1 on uniprocessor runs.
	running []*jobState

	// dlheap is a min-heap of live, not-yet-expired jobs by absolute
	// deadline: once the clock passes a deadline, the job there must
	// have terminated or carry a recorded miss.
	dlheap []*jobState
	// waiting collects the heads that became waiting at the current
	// instant, for waitingRank once the instant settles.
	waiting []*jobState

	violations []Violation
	total      int
	finished   bool
}

// New builds a checker from the run's declared configuration.
func New(cfg Config) (*Checker, error) {
	if cfg.Tasks == nil || cfg.Tasks.Len() == 0 {
		return nil, fmt.Errorf("verify: Config.Tasks is required")
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	if cfg.CPUs < 0 {
		return nil, fmt.Errorf("verify: Config.CPUs must be non-negative, got %d", cfg.CPUs)
	}
	cpus := cfg.CPUs
	if cpus == 0 {
		cpus = 1
	}
	c := &Checker{
		cfg:     cfg,
		order:   orderFor(cfg.Policy),
		byName:  make(map[string]*taskCheck, cfg.Tasks.Len()),
		running: make([]*jobState, cpus),
	}
	for i, t := range cfg.Tasks.Tasks {
		tc := &taskCheck{name: t.Name, id: i, task: t, known: true}
		if cfg.ServerBudgets != nil {
			tc.budget = cfg.ServerBudgets[t.Name]
		}
		if core, ok := cfg.Assignment[t.Name]; ok {
			if core < 0 || core >= cpus {
				return nil, fmt.Errorf("verify: task %q assigned to core %d of %d", t.Name, core, cpus)
			}
			tc.core, tc.pinned = core, true
		}
		if src := cfg.Sources[t.Name]; src != nil {
			tc.src = src
			tc.srcNext, tc.srcOK = src.Next()
		}
		c.tasks = append(c.tasks, tc)
		c.byName[t.Name] = tc
	}
	return c, nil
}

// violate records one breach.
func (c *Checker) violate(at vtime.Time, rule, format string, args ...any) {
	c.total++
	if len(c.violations) < c.cfg.MaxViolations {
		c.violations = append(c.violations, Violation{At: at, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}
}

// Violations returns the recorded breaches in event order.
func (c *Checker) Violations() []Violation { return c.violations }

// FinishErr closes the run and returns the aggregate violation error
// (nil when every axiom held): Finish, then Err. core.System, the one
// place a run arms the oracle, calls it after the engine stops, as do
// the trace-replay checks.
func (c *Checker) FinishErr() error {
	c.Finish()
	return c.Err()
}

// Err returns nil when every axiom held, else the aggregate *Error.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return &Error{Violations: c.violations, Total: c.total}
}

// task resolves (or lazily creates, for dynamic additions and
// malformed traces) the per-task state behind an event.
func (c *Checker) task(e trace.Event) *taskCheck {
	tc, ok := c.byName[e.Task]
	if !ok {
		if e.Kind != trace.TaskAdded {
			c.violate(e.At, "unknown-task", "event %v for undeclared task %q", e.Kind, e.Task)
		}
		// Track it leniently from here on: conservation still applies,
		// parameter-dependent checks (release times, deadlines,
		// dispatch order) cannot.
		tc = &taskCheck{name: e.Task, id: len(c.tasks), known: false}
		c.tasks = append(c.tasks, tc)
		c.byName[e.Task] = tc
	}
	return tc
}

// better reports whether job a would be dispatched in preference to
// job b by the configured policy — the engine's ready-queue order,
// including its task-id tie-break.
func (c *Checker) better(a, b *jobState) bool {
	switch c.order {
	case orderFixedPriority:
		if a.tc.task.Priority != b.tc.task.Priority {
			return a.tc.task.Priority > b.tc.task.Priority
		}
		if a.release != b.release {
			return a.release.Before(b.release)
		}
	case orderEDF:
		if a.absDeadline != b.absDeadline {
			return a.absDeadline.Before(b.absDeadline)
		}
		if a.release != b.release {
			return a.release.Before(b.release)
		}
		if a.tc.name != b.tc.name {
			return a.tc.name < b.tc.name
		}
	}
	return a.tc.id < b.tc.id
}

// Deadline-heap primitives (min-heap on absDeadline, FIFO seq implicit
// in push order — only "earliest" matters here).

func (c *Checker) dlPush(j *jobState) {
	c.dlheap = append(c.dlheap, j)
	i := len(c.dlheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.dlheap[i].absDeadline.Before(c.dlheap[p].absDeadline) {
			break
		}
		c.dlheap[i], c.dlheap[p] = c.dlheap[p], c.dlheap[i]
		i = p
	}
}

func (c *Checker) dlPop() *jobState {
	top := c.dlheap[0]
	last := len(c.dlheap) - 1
	c.dlheap[0] = c.dlheap[last]
	c.dlheap = c.dlheap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && c.dlheap[l].absDeadline.Before(c.dlheap[small].absDeadline) {
			small = l
		}
		if r < last && c.dlheap[r].absDeadline.Before(c.dlheap[small].absDeadline) {
			small = r
		}
		if small == i {
			break
		}
		c.dlheap[i], c.dlheap[small] = c.dlheap[small], c.dlheap[i]
		i = small
	}
	return top
}

// expireDeadlines enforces the release-resolution axiom up to instant
// now (exclusive): any job whose deadline strictly precedes now must
// have terminated or carry a recorded miss — the engine records the
// miss exactly at the deadline instant, after completions at that
// same instant (closed inequality).
func (c *Checker) expireDeadlines(now vtime.Time) {
	for len(c.dlheap) > 0 && c.dlheap[0].absDeadline.Before(now) {
		j := c.dlPop()
		if !j.terminated && !j.missed {
			c.violate(j.absDeadline, "deadline-unresolved",
				"job %s passed its deadline %v without completion, stop, or recorded miss", j.name(), j.absDeadline)
		}
	}
}

// core validates an event's core index against the configured CPU
// count, clamping out-of-range values to 0 after flagging them so
// the remaining bookkeeping can proceed.
func (c *Checker) core(e trace.Event) int {
	cpu := int(e.Arg)
	if cpu < 0 || cpu >= len(c.running) {
		c.violate(e.At, "cpu-index", "event %v of %s#%d names core %d of a %d-core run", e.Kind, e.Task, e.Job, cpu, len(c.running))
		return 0
	}
	return cpu
}

// checkDispatch validates one begin/resume/migrate: the job must be
// its task's backlog head and policy-best across the heads competing
// for the same dispatch slot.
func (c *Checker) checkDispatch(at vtime.Time, j *jobState, kind string, cpu int) {
	if other := c.running[cpu]; other != nil && other != j {
		c.violate(at, "double-run", "%s of %s while %s is still running", kind, j.name(), other.name())
	}
	if j.tc.pinned && j.tc.core != cpu {
		c.violate(at, "partition-placement", "%s of %s on core %d, but the task is pinned to core %d",
			kind, j.name(), cpu, j.tc.core)
	}
	if h := j.tc.headJob(); h != j {
		c.violate(at, "dispatch-non-head", "%s of %s but the task's oldest live job is %s (FIFO within a task)",
			kind, j.name(), h.name())
	}
	if c.order == orderUnknown || !j.tc.known {
		return
	}
	mcore := len(c.running) > 1
	for _, tc := range c.tasks {
		if tc == j.tc || !tc.known {
			continue
		}
		if tc.pinned && tc.core != cpu {
			// Partitioned placement: each core dispatches from its own
			// subset only, so cross-core heads never compete.
			continue
		}
		h := tc.headJob()
		if h == nil {
			continue
		}
		if mcore && h.running {
			// On M cores a better-ranked head already occupying
			// another core does not outrank this dispatch slot.
			continue
		}
		if c.better(h, j) {
			c.violate(at, "dispatch-order", "%s of %s while ready job %s is preferred by policy %q",
				kind, j.name(), h.name(), c.cfg.Policy)
		}
	}
}

// dispatched applies the shared bookkeeping of begin/resume/migrate.
func (c *Checker) dispatched(j *jobState, cpu int, at vtime.Time) {
	j.begun, j.running, j.runSince = true, true, at
	j.cpu = cpu
	j.dispatches++
	c.running[cpu] = j
}

// stopRun pauses j's execution accounting at instant now.
func (c *Checker) stopRun(j *jobState, now vtime.Time) {
	if j.running {
		j.executed += now.Sub(j.runSince)
		j.running = false
	}
	if c.running[j.cpu] == j {
		c.running[j.cpu] = nil
	}
}

// workConservation enforces, at a settled instant (every event of
// that time already processed), that no core idles while an eligible
// job waits: global dispatch fills every idle core from the union of
// ready heads; partitioned dispatch fills each core from its own
// subset. Armed only on multiprocessor runs. Polling servers, which
// legally idle on exhausted budget, are excluded.
func (c *Checker) workConservation(at vtime.Time) {
	idle := -1
	for cpu, j := range c.running {
		if j == nil {
			idle = cpu
			break
		}
	}
	if idle < 0 {
		return
	}
	for _, tc := range c.tasks {
		if tc.removed || tc.budget > 0 {
			continue
		}
		h := tc.headJob()
		if h == nil || h.running {
			continue
		}
		if tc.pinned {
			if c.running[tc.core] != nil {
				continue
			}
			c.violate(at, "work-conservation", "core %d idle at settled instant %v while %s waits on it", tc.core, at, h.name())
			return
		}
		c.violate(at, "work-conservation", "core %d idle at settled instant %v while %s is ready", idle, at, h.name())
		return
	}
}

// waitingRank enforces, at a settled instant, that no head that
// became waiting at that instant outranks a running job it competes
// with: every running job on a uniprocessor and under global dispatch,
// the job on the head's pinned core under partitioned placement.
// Checking only the newly waiting heads suffices, because a head that
// already waited at the previous settled instant is checked against
// every later dispatch by checkDispatch. Polling servers, which
// legally wait on an exhausted budget, are excluded as workConservation
// excludes them, as are tasks whose order cannot be recomputed.
func (c *Checker) waitingRank(at vtime.Time) {
	for _, w := range c.waiting {
		tc := w.tc
		if c.order == orderUnknown || w.running || w.terminated || !tc.known || tc.budget > 0 || tc.headJob() != w {
			continue
		}
		for cpu, r := range c.running {
			if r == nil || !r.tc.known || (tc.pinned && tc.core != cpu) {
				continue
			}
			if c.better(w, r) {
				c.violate(at, "waiting-outranks-running", "%s waits at settled instant %v while %s, which policy %q ranks below it, runs on core %d",
					w.name(), at, r.name(), c.cfg.Policy, cpu)
				break
			}
		}
	}
	c.waiting = c.waiting[:0]
}

// settled checks the axioms of an instant whose events have all been
// processed: the rank of the newly waiting heads and, on
// multiprocessor runs, work conservation.
func (c *Checker) settled(at vtime.Time) {
	c.waitingRank(at)
	if len(c.running) > 1 {
		c.workConservation(at)
	}
}

// Append consumes one trace event (trace.Sink).
func (c *Checker) Append(e trace.Event) {
	if c.finished {
		c.violate(e.At, "event-after-finish", "event %v after Finish", e.Kind)
		return
	}
	if c.seen && e.At.Before(c.lastAt) {
		c.violate(e.At, "monotone-time", "event %v at %v after an event at %v", e.Kind, e.At, c.lastAt)
	}
	if c.seen && e.At.After(c.lastAt) {
		// Time advanced: the state at lastAt is settled — check it.
		c.settled(c.lastAt)
	}
	c.seen = true
	if e.At.After(c.lastAt) {
		c.lastAt = e.At
	}
	c.expireDeadlines(e.At)

	switch e.Kind {
	case trace.TaskAdded:
		tc := c.task(e)
		// Dynamic admission: parameters are not in Config.Tasks, so
		// parameter-dependent checks stay off; releases and
		// conservation are still tracked.
		tc.known = false
		tc.removed = false
		return
	case trace.TaskRemoved:
		c.task(e).removed = true
		return
	}
	if e.Task == "" || e.Job < 0 {
		c.violate(e.At, "malformed-event", "event %v without task/job attribution", e.Kind)
		return
	}
	tc := c.task(e)

	switch e.Kind {
	case trace.JobRelease:
		c.release(e, tc)
	case trace.JobBegin:
		j := tc.jobAt(e.Job)
		if j == nil {
			c.violate(e.At, "dispatch-unknown-job", "begin of %s#%d which is not live", tc.name, e.Job)
			return
		}
		cpu := c.core(e)
		if j.begun {
			c.violate(e.At, "double-begin", "second begin of %s", j.name())
		}
		c.checkDispatch(e.At, j, "begin", cpu)
		c.dispatched(j, cpu, e.At)
	case trace.JobResume:
		j := tc.jobAt(e.Job)
		if j == nil {
			c.violate(e.At, "dispatch-unknown-job", "resume of %s#%d which is not live", tc.name, e.Job)
			return
		}
		cpu := c.core(e)
		if !j.begun {
			c.violate(e.At, "resume-before-begin", "resume of %s which never began", j.name())
		} else if cpu != j.cpu {
			c.violate(e.At, "resume-core", "resume of %s on core %d but it last ran on core %d (a cross-core dispatch must be a migrate)",
				j.name(), cpu, j.cpu)
		}
		if j.running {
			c.violate(e.At, "resume-running", "resume of %s which is already running", j.name())
		}
		c.checkDispatch(e.At, j, "resume", cpu)
		c.dispatched(j, cpu, e.At)
	case trace.JobMigrate:
		j := tc.jobAt(e.Job)
		if j == nil {
			c.violate(e.At, "dispatch-unknown-job", "migrate of %s#%d which is not live", tc.name, e.Job)
			return
		}
		cpu := c.core(e)
		if !j.begun {
			c.violate(e.At, "migrate-before-begin", "migrate of %s which never began", j.name())
		} else if cpu == j.cpu {
			c.violate(e.At, "migrate-same-core", "migrate of %s onto core %d where it already ran (a same-core dispatch is a resume)", j.name(), cpu)
		}
		if j.running {
			c.violate(e.At, "migrate-running", "migrate of %s which is already running", j.name())
		}
		if c.cfg.Assignment != nil {
			c.violate(e.At, "partition-migration", "migrate of %s under partitioned placement (pinned tasks never migrate)", j.name())
		}
		c.checkDispatch(e.At, j, "migrate", cpu)
		c.dispatched(j, cpu, e.At)
	case trace.JobPreempt:
		j := tc.jobAt(e.Job)
		if j == nil {
			c.violate(e.At, "preempt-not-running", "preempt of %s#%d which is not the running job", tc.name, e.Job)
			return
		}
		cpu := c.core(e)
		if !j.running || c.running[cpu] != j {
			c.violate(e.At, "preempt-not-running", "preempt of %s#%d which is not the job running on core %d", tc.name, e.Job, cpu)
		}
		c.stopRun(j, e.At)
		c.waiting = append(c.waiting, j)
	case trace.JobEnd:
		c.terminal(e, tc, false)
	case trace.JobStopped:
		c.terminal(e, tc, true)
	case trace.DeadlineMiss:
		j := tc.jobAt(e.Job)
		if j == nil {
			c.violate(e.At, "miss-after-end", "deadline miss for %s#%d which is not live (a terminated job cannot miss)", tc.name, e.Job)
			return
		}
		if j.missed {
			c.violate(e.At, "double-miss", "second deadline miss for %s", j.name())
		}
		if tc.known && e.At != j.absDeadline {
			c.violate(e.At, "miss-time", "deadline miss for %s at %v, want exactly its deadline %v", j.name(), e.At, j.absDeadline)
		}
		j.missed = true
		tc.misses++
	case trace.DetectorRelease:
		if c.cfg.DetectorOffsets == nil || !tc.known {
			return
		}
		off, ok := c.cfg.DetectorOffsets[tc.name]
		if !ok {
			return
		}
		if e.Job != tc.nextDetQ {
			c.violate(e.At, "detector-order", "detector check of %s#%d, want job %d (checks are periodic, in order)",
				tc.name, e.Job, tc.nextDetQ)
		}
		tc.nextDetQ = e.Job + 1
		want := vtime.Time(tc.task.Offset).Add(vtime.Duration(e.Job) * tc.task.Period).Add(off)
		if e.At != want {
			c.violate(e.At, "detector-time", "detector check of %s#%d at %v, want release+offset = %v (latest-detection bound)",
				tc.name, e.Job, e.At, want)
		}
	case trace.FaultDetected:
		if j := tc.jobAt(e.Job); j == nil {
			c.violate(e.At, "fault-on-terminated", "fault flagged on %s#%d which is not live (detectors only flag unfinished jobs)", tc.name, e.Job)
		}
	case trace.StopRequest:
		if j := tc.jobAt(e.Job); j == nil {
			c.violate(e.At, "stop-on-terminated", "stop requested for %s#%d which is not live", tc.name, e.Job)
		}
	case trace.AllowanceGrant:
		if j := tc.jobAt(e.Job); j == nil {
			c.violate(e.At, "grant-on-terminated", "allowance granted to %s#%d which is not live", tc.name, e.Job)
		}
		// A zero grant is legal: MaxOverrun is 0 on a tightly
		// utilized (yet feasible) system — only a negative grant is
		// nonsense.
		if e.Arg < 0 {
			c.violate(e.At, "grant-negative", "allowance grant of %d ns to %s#%d", e.Arg, tc.name, e.Job)
		}
	}
}

// release handles a JobRelease event.
func (c *Checker) release(e trace.Event, tc *taskCheck) {
	if tc.removed {
		c.violate(e.At, "release-after-removal", "release of %s#%d after the task was removed", tc.name, e.Job)
	}
	if e.Job != tc.nextQ {
		c.violate(e.At, "release-order", "release of %s#%d, want job %d (releases are sequential)", tc.name, e.Job, tc.nextQ)
	}
	tc.nextQ = e.Job + 1
	if tail := len(tc.queue); tail > tc.head && tc.queue[tail-1].q >= e.Job {
		// Keep the live queue strictly increasing in q so jobAt's
		// binary search stays sound even on malformed traces.
		c.violate(e.At, "release-order", "release of %s#%d does not extend the live backlog", tc.name, e.Job)
		return
	}
	j := &jobState{tc: tc, q: e.Job, release: e.At}
	if tc.known {
		deadline := tc.task.Deadline
		if tc.src != nil {
			// Source-driven release law: replay the reconstructed
			// source record for record. Seed-determinism makes even the
			// stochastic kinds exact; a per-record deadline override
			// narrows the deadline axiom for this job.
			if !tc.srcOK {
				c.violate(e.At, "release-source-exhausted", "release of %s#%d but its %s source is exhausted after %d release(s)",
					tc.name, e.Job, tc.src.Kind(), tc.released)
			} else {
				if e.At != tc.srcNext.At {
					c.violate(e.At, "release-time", "release of %s#%d at %v, want the %s source's next arrival %v",
						tc.name, e.Job, e.At, tc.src.Kind(), tc.srcNext.At)
				}
				if tc.srcNext.Deadline != 0 {
					deadline = tc.srcNext.Deadline
				}
				tc.srcNext, tc.srcOK = tc.src.Next()
			}
		} else {
			want := vtime.Time(tc.task.Offset).Add(vtime.Duration(e.Job) * tc.task.Period)
			if e.At != want {
				c.violate(e.At, "release-time", "release of %s#%d at %v, want offset+q·T = %v", tc.name, e.Job, e.At, want)
			}
		}
		j.absDeadline = e.At.Add(deadline)
		c.dlPush(j)
	}
	tc.released++
	tc.queue = append(tc.queue, j)
	if tc.live() == 1 {
		c.waiting = append(c.waiting, j)
	}
}

// terminal handles JobEnd and JobStopped.
func (c *Checker) terminal(e trace.Event, tc *taskCheck, stopped bool) {
	kind := "end"
	if stopped {
		kind = "stop"
	}
	j := tc.jobAt(e.Job)
	if j == nil {
		c.violate(e.At, "terminal-unknown-job", "%s of %s#%d which is not live", kind, tc.name, e.Job)
		return
	}
	if j.begun {
		if !j.running || c.running[j.cpu] != j {
			c.violate(e.At, "terminal-not-running", "%s of %s which is not the running job (only the running job can terminate)", kind, j.name())
		}
		if h := tc.headJob(); h != j {
			c.violate(e.At, "terminal-non-head", "%s of %s but the task's oldest live job is %s", kind, j.name(), h.name())
		}
	} else {
		// A job terminating without ever running is an admission-time
		// drop: the policy shed it at its release instant.
		if !stopped {
			c.violate(e.At, "end-before-begin", "completion of %s which never began", j.name())
		} else if e.At != j.release {
			c.violate(e.At, "stop-before-begin", "stop of %s at %v which never began (only admission drops at the release instant %v may)",
				j.name(), e.At, j.release)
		}
	}
	c.stopRun(j, e.At)
	j.terminated = true
	if stopped {
		tc.stopped++
	} else {
		tc.completed++
	}
	if tc.budget > 0 {
		allowed := tc.budget + vtime.Duration(j.dispatches)*c.cfg.ContextSwitch
		if j.executed > allowed {
			c.violate(e.At, "server-budget", "server job %s executed %v, overdrawing its capacity %v (+%v switch overhead)",
				j.name(), j.executed, tc.budget, allowed-tc.budget)
		}
	}
	tc.consume(j)
	if h := tc.headJob(); h != nil {
		c.waiting = append(c.waiting, h)
	}
}

// Finish closes the run at the configured horizon and enforces the
// end-of-run axioms: expired deadlines are resolved and every task's
// releases are conserved (completions + stops + live backlog).
func (c *Checker) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	end := c.cfg.Horizon
	if end < c.lastAt {
		end = c.lastAt
	}
	if c.seen {
		// The trace's final state is settled through the horizon.
		c.settled(c.lastAt)
	}
	// The engine processes events up to and including the horizon, so
	// a deadline exactly at the horizon has had its miss recorded.
	for len(c.dlheap) > 0 && !c.dlheap[0].absDeadline.After(end) {
		j := c.dlPop()
		if !j.terminated && !j.missed {
			c.violate(j.absDeadline, "deadline-unresolved",
				"job %s passed its deadline %v without completion, stop, or recorded miss", j.name(), j.absDeadline)
		}
	}
	for _, tc := range c.tasks {
		if got := tc.completed + tc.stopped + int64(tc.live()); got != tc.released {
			c.violate(end, "conservation", "task %s released %d jobs but accounts for %d (%d completed + %d stopped + %d live)",
				tc.name, tc.released, got, tc.completed, tc.stopped, tc.live())
		}
		// The other half of the source contract: every arrival due
		// within the horizon must have been released (the engine
		// processes events up to and including End, so the bound is
		// closed). A silently dropped trace suffix fails here.
		if tc.src != nil && tc.srcOK && !tc.srcNext.At.After(end) {
			c.violate(end, "release-missing", "task %s's %s source has an arrival due at %v within the horizon that was never released",
				tc.name, tc.src.Kind(), tc.srcNext.At)
		}
	}
}
