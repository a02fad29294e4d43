// Package engine simulates the paper's execution platform: a
// uniprocessor running a set of periodic real-time tasks under a
// preemptive scheduler, with nanosecond virtual time. It substitutes
// for the paper's jRate virtual machine on a TimeSys real-time kernel
// (see the repro package doc): the scheduling decisions — who runs
// when, who preempts whom, who misses a deadline — are identical in
// kind, while the clock is virtual and fully deterministic.
//
// Beyond the paper, the engine generalizes to M identical processors
// (Config.CPUs): global dispatch runs the M policy-best ready jobs,
// migrating preempted jobs freely between cores (trace.JobMigrate),
// while partitioned dispatch (Config.Partition) pins each task to one
// core and schedules every core independently. Global dispatch keeps
// its running set incrementally, as LITMUS^RT's global schedulers do:
// the shared ready queue holds only waiting heads, a free core takes
// the ready top, and the ready top displaces the policy-worst running
// job only when it beats it — usually zero or one comparison per
// event. CPUs=1 is the paper's model and stays byte-identical to the
// historical single-slot trace format: dispatch events carry the core
// in trace.Event.Arg, and core 0 encodes as an absent arg.
//
// The engine is event driven: job releases, deadline checks, timers
// (used by the detectors of package detect) and predicted completions
// are heap-ordered events; between events the running job consumes
// CPU linearly. The event loop is typed and allocation free in the
// steady state: releases, deadline checks and the completion
// prediction are fixed-size records dispatched through a switch, not
// heap-allocated closures (only external timers — detectors, the
// supervisor's allowance stops, test hooks — carry a callback).
// Deadline and completion events are cancelled eagerly: the heap
// tracks each cancellable event's position, a job's deadline check is
// removed the moment the job finishes, and each core's completion
// prediction is updated in place, and rekeyed only when its instant
// moves (a dispatch, a stop request, a context-switch charge), so the
// heap stays proportional to the live work (pending jobs + one
// release per task + one completion per core + external timers)
// instead of accumulating stale entries. Dispatch
// picks the next job from an incrementally maintained policy-ordered
// ready queue of task heads — O(log tasks) per update — rather than
// scanning every task. Stops follow the paper's §4.1 semantics: a
// task cannot be killed, it polls a boolean between instructions, so
// a stop request takes effect only at the job's next poll boundary,
// possibly inflated by an unbounded-cost jitter term.
package engine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Collect selects how much run data the engine retains.
type Collect uint8

// Collection modes. They differ only in where events go: a Job record
// lives from its release to its termination in both (see JobAt), and
// what happened to a job afterwards is read from the events, through
// metrics.Analyze on a retained log or a metrics.Accumulator sink.
const (
	// Retain is the default: every event is appended to the in-memory
	// log (and to Config.Sink, if set). Memory grows with the horizon.
	Retain Collect = iota
	// Stream bounds memory for long-horizon runs: events bypass the
	// in-memory log, going only to Config.Sink (a metrics.Accumulator,
	// a spill writer, or nothing).
	Stream
)

// Config parameterizes a run.
type Config struct {
	// Tasks is the static task system started at time zero.
	Tasks *taskset.Set
	// Faults maps task names to fault models (nil = fault free).
	Faults fault.Plan
	// Sources, when non-empty, must align index-for-index with
	// Tasks.Tasks: a non-nil Sources[i] replaces task i's periodic
	// release law (offset + q·T) with source-driven releases — the
	// engine pulls the next arrival lazily and a release may override
	// the task's nominal cost and relative deadline per job (trace
	// records do). nil entries keep the periodic law. Source-driven
	// tasks are statically ineligible for FastForward (no hyperperiod)
	// and for checkpointing (a Source carries hidden iterator state).
	Sources []taskset.Source
	// End is the simulation horizon; events strictly later are not
	// processed.
	End vtime.Time
	// Policy orders ready jobs; nil means fixed-priority preemptive,
	// the scheduler all RTSJ implementations must offer.
	Policy Policy
	// StopPoll is the granularity at which tasks poll their stop
	// flag (paper §4.1: the flag "is checked after each instruction
	// of the loop"). A stop request takes effect at the job's next
	// multiple of StopPoll of executed time. Zero means 1 ms.
	StopPoll vtime.Duration
	// StopJitterMax bounds the extra cost of the poll through
	// RealtimeThread.currentRealtimeThread(), "the cost of which is
	// not bounded" (§4.1). Each effective stop consumes an
	// additional uniform draw in [0, StopJitterMax]. Zero disables.
	StopJitterMax vtime.Duration
	// Seed drives the stop-jitter RNG.
	Seed uint64
	// ContextSwitch is charged to the incoming job at every dispatch
	// switch (zero by default; used by the detector-overhead sweep).
	ContextSwitch vtime.Duration
	// CPUs is the number of identical processors. Zero or one selects
	// the paper's uniprocessor model.
	CPUs int
	// Partition, when non-nil, pins task i of Tasks to core
	// Partition[i] and dispatches every core independently from its
	// own subset (partitioned multiprocessor scheduling; see
	// sched.FirstFitDecreasing / sched.BestFitDecreasing for packing
	// heuristics). nil with CPUs > 1 selects global dispatch: the M
	// policy-best ready jobs run, wherever a core is free. Dynamic
	// admission (AddTask) is global-only.
	Partition []int
	// Collect selects Retain (default) or Stream collection.
	Collect Collect
	// Sink, when non-nil, receives every trace event as it is
	// recorded — in addition to the log under Retain, instead of it
	// under Stream. Typical streaming sinks: metrics.Accumulator,
	// trace.WriterSink, or a trace.Tee of both.
	Sink trace.Sink
	// FastForward enables steady-state cycle detection: Run
	// fingerprints the state at every hyperperiod boundary and, once
	// two consecutive boundaries match, extrapolates the remaining
	// whole cycles analytically (see fastforward.go). Requires Stream
	// collection, an empty fault plan, no stop jitter and a computable
	// hyperperiod; New rejects ineligible configurations. Note the
	// extrapolated cycles emit no trace events — a Sink that records
	// events (rather than a CycleObserver-aware accumulator) would see
	// a hole, so combine FastForward only with Observer-style sinks.
	FastForward bool
	// Observer, with FastForward, receives hyperperiod-boundary marks
	// and the cycle extrapolation so streaming metrics stay exact
	// across the jump. Typically the same metrics.Accumulator as Sink.
	Observer CycleObserver
	// Hooks observe the run (all optional).
	Hooks Hooks
}

// Hooks are observation points used by the fault-tolerance supervisor
// and by tests. The *Job passed to a hook is recycled once it
// terminates (after OnFinish/OnStopped return): read what you need, do
// not keep the pointer. The job is already consumed from its task's
// queue when OnFinish/OnStopped run, so a JobAt for it inside the hook
// reports it missing (see JobAt's contract).
type Hooks struct {
	// OnRelease fires after a job is released and admitted.
	OnRelease func(e *Engine, j *Job)
	// OnFinish fires when a job completes its work.
	OnFinish func(e *Engine, j *Job)
	// OnStopped fires when a job terminates early on its stop flag.
	OnStopped func(e *Engine, j *Job)
	// OnTaskAdded fires when dynamic admission adds a task.
	OnTaskAdded func(e *Engine, task string)
}

// Policy orders the ready queue and admits released jobs. The
// fixed-priority policy admits everything; the overload baselines
// (package baselines) shed load here.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Better reports whether job a should run in preference to b.
	// It must be a strict weak ordering for determinism, and it must
	// be a fixed function of each job's release-time fields (task,
	// Q, Release, AbsDeadline, priority): the engine caches the
	// order in an incrementally maintained ready heap that is only
	// re-keyed when a task's head job changes, so an ordering that
	// depends on mutable state (Executed, Remaining, stop limits)
	// would dispatch from stale comparisons. Policies that need
	// dynamic state act through Admit and StopJob instead, as the
	// overload baselines do.
	Better(a, b *Job) bool
	// Admit is consulted at release; returning false drops the job
	// (it is recorded as released, then immediately stopped, and its
	// record is recycled).
	Admit(e *Engine, j *Job) bool
}

// FixedPriority is the preemptive fixed-priority policy of the paper:
// larger task priority wins; ties (impossible within a validated set)
// fall back to release order then task id.
type FixedPriority struct{}

// Name returns "fixed-priority".
func (FixedPriority) Name() string { return "fixed-priority" }

// Better prefers the higher-priority task.
func (FixedPriority) Better(a, b *Job) bool { return fpBetter(a, b) }

// fpBetter is the fixed-priority order, shared with the ready queue's
// interface-free fast path.
func fpBetter(a, b *Job) bool {
	if a.task.task.Priority != b.task.task.Priority {
		return a.task.task.Priority > b.task.task.Priority
	}
	if a.Release != b.Release {
		return a.Release.Before(b.Release)
	}
	return a.task.id < b.task.id
}

// Admit accepts every job.
func (FixedPriority) Admit(*Engine, *Job) bool { return true }

// Job is one activation of a periodic task.
type Job struct {
	task *taskState
	// Q is the 0-based job index.
	Q int64
	// Release is the activation instant.
	Release vtime.Time
	// AbsDeadline = Release + D.
	AbsDeadline vtime.Time
	// Actual is the job's true demand (nominal cost ± fault delta).
	Actual vtime.Duration
	// Executed is the CPU time consumed so far.
	Executed vtime.Duration

	overhead  vtime.Duration // charged context-switch cost
	workLimit vtime.Duration // executed-work bound from a stop request
	dlPos     int            // heap position of the deadline check (-1 = none)
	slot      int32          // jobSlots index backing the deadline event
	cpu       int32          // core the job runs (or last ran) on
	limited   bool
	begun     bool
	done      bool
	stopped   bool
	missed    bool
}

// TaskName returns the owning task's name.
func (j *Job) TaskName() string { return j.task.task.Name }

// Task returns a copy of the owning task's parameters.
func (j *Job) Task() taskset.Task { return j.task.task }

// Done reports whether the job has terminated (completed or stopped).
func (j *Job) Done() bool { return j.done }

// Stopped reports whether the job was terminated by a stop request
// before completing its work.
func (j *Job) Stopped() bool { return j.stopped }

// Missed reports whether the job failed: its deadline passed
// unfinished, or it was stopped incomplete.
func (j *Job) Missed() bool { return j.missed || j.stopped }

// Remaining returns the work still owed (zero once done).
func (j *Job) Remaining() vtime.Duration {
	d := j.demand() - j.Executed
	if d < 0 {
		return 0
	}
	return d
}

// demand is the effective work the job will perform before
// terminating: its actual demand plus charged overhead, truncated by
// any stop limit.
func (j *Job) demand() vtime.Duration {
	d := j.Actual + j.overhead
	if j.limited && j.workLimit < d {
		d = j.workLimit
	}
	return d
}

// taskState is the runtime record of one task.
type taskState struct {
	task  taskset.Task
	id    int
	model fault.Model
	nextQ int64
	// pending[phead:] are the released, unfinished jobs in FIFO
	// order; only the head can terminate (jobs of one task execute
	// in release order — the RTSJ thread is sequential, a late job
	// delays its successors, the arbitrary-deadline model). Consumed
	// slots are nil'd and compacted amortizedly so the backing array
	// stays proportional to the live backlog.
	pending []*Job
	phead   int
	// rdPos is the task's position in its dispatch domain's ready
	// queue (-1 when it has no live job).
	rdPos int
	// dom is the task's dispatch domain: 0 under global dispatch
	// (one domain feeds every core), the pinned core under
	// partitioned dispatch.
	dom     int32
	removed bool
	// src, when non-nil, drives releases instead of the periodic law;
	// srcNext holds the already-pulled release the next evRelease
	// event consumes (the 24-byte event record cannot carry per-
	// release cost/deadline overrides, so they stage here).
	src     taskset.Source
	srcNext taskset.Release
}

// live returns the number of released, unfinished jobs.
func (ts *taskState) live() int { return len(ts.pending) - ts.phead }

// head returns the task's earliest unfinished job, or nil.
func (ts *taskState) head() *Job {
	if ts.phead < len(ts.pending) {
		return ts.pending[ts.phead]
	}
	return nil
}

// popFront consumes the head job. The vacated slot is nil'd at once
// (so the record is collectible or poolable) and the consumed prefix
// is compacted away once it dominates the array — re-slicing it off
// instead would pin the backing array for the run's lifetime.
func (ts *taskState) popFront() *Job {
	j := ts.pending[ts.phead]
	ts.pending[ts.phead] = nil
	ts.phead++
	if ts.phead == len(ts.pending) {
		ts.pending = ts.pending[:0]
		ts.phead = 0
	} else if ts.phead >= 32 && ts.phead*2 >= len(ts.pending) {
		n := copy(ts.pending, ts.pending[ts.phead:])
		for i := n; i < len(ts.pending); i++ {
			ts.pending[i] = nil
		}
		ts.pending = ts.pending[:n]
		ts.phead = 0
	}
	return j
}

// eventKind discriminates the typed event records of the loop.
type eventKind uint8

const (
	// evCallback runs an arbitrary function: detector timers,
	// supervisor stop timers, test hooks. The only event kind that
	// costs an allocation to schedule.
	evCallback eventKind = iota
	// evRelease activates task ts's next job and re-arms itself one
	// period later.
	evRelease
	// evDeadline checks job at its absolute deadline; cancelled by
	// removal the moment the job finishes earlier.
	evDeadline
	// evCompletion is a running job's predicted completion (arg =
	// core). At most one exists per core; reschedule updates it in
	// place when its instant moves.
	evCompletion
)

// event is a typed heap entry. Events at the same instant run in
// class order: completions and releases (classNormal) are observed
// before detector checks (classDetector), which precede deadline
// checks (classDeadline). A job finishing exactly at its WCRT is
// therefore not flagged faulty, and a job finishing exactly at its
// deadline is not a miss — both matching the paper's closed
// inequalities. Within a class, completions run after every other
// kind, in core order; the rest run in insertion order (see less).
//
// The record is deliberately pointer free (24 bytes): arg is a handle
// into a side table — the task index for releases, a job slot for
// deadline checks, a callback slot for timers. Sift operations on a
// pointer-bearing struct spend most of their time in GC write
// barriers; with a flat record a swap is a plain copy and the event
// heap never needs scanning.
type event struct {
	at    vtime.Time
	seq   uint64
	arg   int32
	class uint8
	kind  eventKind
}

// Event classes, in same-instant execution order.
const (
	classNormal uint8 = iota
	classDetector
	classDeadline
)

// Engine is the simulation instance. Create with New, drive with Run.
type Engine struct {
	cfg    Config
	log    *trace.Log
	sink   trace.Sink // nil unless Config.Sink was set
	stream bool       // Config.Collect == Stream
	policy Policy
	fpFast bool // policy is the built-in FixedPriority: skip interface calls
	rng    *taskset.Rand

	tasks  []*taskState
	byName map[string]*taskState

	heap []event
	seq  uint64
	// cmplPos[c] is the heap position of core c's completion
	// prediction (-1 = none).
	cmplPos []int
	now     vtime.Time
	// running[c] is the job executing on core c (nil = idle).
	running []*Job
	// cpus and partitioned cache the Config topology. Under global
	// dispatch, sel and preempted are rescheduleGlobal's scratch (the
	// jobs it selects, in rank order, and the jobs it displaces, per
	// core), and worst caches the core running the policy-worst job
	// (-1 = unknown) until the running set changes.
	cpus        int
	partitioned bool
	sel         []*Job
	preempted   []*Job
	worst       int

	// jobSlots resolves a live deadline event's arg to its job; the
	// slot is allocated at admission and freed when the deadline
	// check fires or is cancelled.
	jobSlots  []*Job
	freeSlots []int32
	// fns resolves a callback event's arg; one entry per in-flight
	// timer, freed as the callback pops.
	fns     []func(now vtime.Time)
	freeFns []int32

	// ready[d] is dispatch domain d's policy-ordered min-heap of the
	// ids of tasks with at least one live job, keyed by their head
	// job; ties break on task id so dispatch picks exactly the job
	// the historical linear scan did. One domain per core on a
	// uniprocessor and under partitioned dispatch, where the running
	// task stays in its domain; one shared domain under global
	// dispatch, which holds only the tasks whose head job waits (the
	// running jobs are in running).
	ready [][]int32

	// scratch backs ReadyJobs between events.
	scratch []*Job
	// pool recycles terminated Job records.
	pool []*Job

	switches int64 // dispatch switches, for the overhead sweep

	// ff is the fast-forward state (nil unless Config.FastForward);
	// observer receives its cycle callbacks.
	ff       *ffState
	observer CycleObserver
}

// New validates the configuration and prepares a run.
func New(cfg Config) (*Engine, error) {
	if cfg.Tasks == nil || cfg.Tasks.Len() == 0 {
		return nil, fmt.Errorf("engine: no tasks")
	}
	if err := cfg.Tasks.Validate(); err != nil {
		return nil, err
	}
	if cfg.End <= 0 {
		return nil, fmt.Errorf("engine: End horizon must be positive")
	}
	if cfg.StopPoll <= 0 {
		cfg.StopPoll = vtime.Millisecond
	}
	switch cfg.Collect {
	case Retain, Stream:
	default:
		return nil, fmt.Errorf("engine: unknown collection mode %d", cfg.Collect)
	}
	if cfg.CPUs < 0 {
		return nil, fmt.Errorf("engine: CPUs must be non-negative, got %d", cfg.CPUs)
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Partition != nil {
		if len(cfg.Partition) != cfg.Tasks.Len() {
			return nil, fmt.Errorf("engine: Partition has %d entries for %d tasks", len(cfg.Partition), cfg.Tasks.Len())
		}
		for i, c := range cfg.Partition {
			if c < 0 || c >= cfg.CPUs {
				return nil, fmt.Errorf("engine: Partition[%d] = %d out of range for %d CPUs", i, c, cfg.CPUs)
			}
		}
	}
	if len(cfg.Sources) > 0 && len(cfg.Sources) != cfg.Tasks.Len() {
		return nil, fmt.Errorf("engine: Sources has %d entries for %d tasks (must align index-for-index, nil = periodic)", len(cfg.Sources), cfg.Tasks.Len())
	}
	hasSource := false
	for _, s := range cfg.Sources {
		if s != nil {
			hasSource = true
			break
		}
	}
	var ff *ffState
	if cfg.FastForward {
		if cfg.Collect != Stream {
			return nil, fmt.Errorf("engine: FastForward requires Stream collection")
		}
		if hasSource {
			return nil, fmt.Errorf("engine: FastForward cannot combine with arrival sources (source-driven releases have no hyperperiod)")
		}
		if len(cfg.Faults) > 0 {
			return nil, fmt.Errorf("engine: FastForward cannot combine with a fault plan (fault arrivals break hyperperiod periodicity)")
		}
		if cfg.StopJitterMax > 0 {
			return nil, fmt.Errorf("engine: FastForward cannot combine with stop jitter (random draws break hyperperiod periodicity)")
		}
		h, err := cfg.Tasks.Hyperperiod()
		if err != nil {
			return nil, fmt.Errorf("engine: FastForward needs a computable hyperperiod: %w", err)
		}
		ff = &ffState{h: h}
	}
	e := &Engine{
		cfg:         cfg,
		ff:          ff,
		observer:    cfg.Observer,
		sink:        cfg.Sink,
		stream:      cfg.Collect == Stream,
		policy:      cfg.Policy,
		rng:         taskset.NewRand(cfg.Seed),
		byName:      make(map[string]*taskState, cfg.Tasks.Len()),
		cpus:        cfg.CPUs,
		partitioned: cfg.Partition != nil,
		running:     make([]*Job, cfg.CPUs),
		preempted:   make([]*Job, cfg.CPUs),
		worst:       -1,
		cmplPos:     make([]int, cfg.CPUs),
	}
	for c := range e.cmplPos {
		e.cmplPos[c] = -1
	}
	domains := 1
	if e.partitioned {
		domains = e.cpus
	}
	e.ready = make([][]int32, domains)
	logCap := 4096
	if e.stream {
		logCap = 0 // stays empty: Run still returns a valid, empty log
	}
	e.log = trace.NewLog(logCap)
	if e.policy == nil {
		e.policy = FixedPriority{}
	}
	_, e.fpFast = e.policy.(FixedPriority)
	for i, t := range cfg.Tasks.Tasks {
		var src taskset.Source
		if i < len(cfg.Sources) {
			src = cfg.Sources[i]
		}
		ts := e.addSourcedTaskState(t, cfg.Faults.For(t.Name), src)
		if e.partitioned {
			ts.dom = int32(cfg.Partition[i])
		}
	}
	return e, nil
}

func (e *Engine) addTaskState(t taskset.Task, m fault.Model) *taskState {
	return e.addSourcedTaskState(t, m, nil)
}

func (e *Engine) addSourcedTaskState(t taskset.Task, m fault.Model, src taskset.Source) *taskState {
	ts := &taskState{task: t, id: len(e.tasks), model: m, rdPos: -1, src: src}
	e.tasks = append(e.tasks, ts)
	e.byName[t.Name] = ts
	if src != nil {
		// Source-driven: the first release is wherever the source says
		// (an exhausted source — e.g. an empty trace — releases
		// nothing at all). The task's Offset does not apply; the
		// source owns the whole release law.
		rel, ok := src.Next()
		if !ok {
			return ts
		}
		ts.srcNext = rel
		at := rel.At
		if at < e.now {
			at = e.now
		}
		e.push(event{at: at, class: classNormal, kind: evRelease, arg: int32(ts.id)})
		return ts
	}
	first := vtime.Time(t.Offset)
	if first < e.now {
		first = e.now
	}
	e.push(event{at: first, class: classNormal, kind: evRelease, arg: int32(ts.id)})
	return ts
}

// Now returns the current virtual instant.
func (e *Engine) Now() vtime.Time { return e.now }

// Log returns the trace log (empty under Stream collection).
func (e *Engine) Log() *trace.Log { return e.log }

// Switches returns the number of dispatch switches so far.
func (e *Engine) Switches() int64 { return e.switches }

// PolicyName returns the active policy's name.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// Record appends a trace event; exported for the supervisor. Under
// Retain collection the event lands in the in-memory log (plus the
// optional sink); under Stream it goes to the sink alone.
func (e *Engine) Record(ev trace.Event) {
	if !e.stream {
		e.log.Append(ev)
	}
	if e.sink != nil {
		e.sink.Append(ev)
	}
}

// Schedule enqueues fn to run at instant at (clamped to now). At
// equal instants fn runs after the events already scheduled there and
// before every running job's completion (see less), wherever it is
// scheduled from. From a hook or a callback inside the run loop that
// is the order completions have always been observed in, since every
// step re-predicts them; from outside the loop, between RunUntil and
// Run, at a pending completion's exact instant, fn now runs before
// that completion rather than after it. No caller schedules there.
func (e *Engine) Schedule(at vtime.Time, fn func(now vtime.Time)) {
	e.scheduleClass(at, classNormal, fn)
}

// ScheduleDetector enqueues a detector check at instant at: at equal
// instants it runs after completions but before deadline checks.
func (e *Engine) ScheduleDetector(at vtime.Time, fn func(now vtime.Time)) {
	e.scheduleClass(at, classDetector, fn)
}

func (e *Engine) scheduleClass(at vtime.Time, class uint8, fn func(now vtime.Time)) {
	if at < e.now {
		at = e.now
	}
	var slot int32
	if n := len(e.freeFns); n > 0 {
		slot = e.freeFns[n-1]
		e.freeFns = e.freeFns[:n-1]
		e.fns[slot] = fn
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.push(event{at: at, class: class, kind: evCallback, arg: slot})
}

// Event-heap primitives: a min-heap in less order that tracks the
// positions of cancellable entries (deadline checks through
// Job.dlPos, the per-core completion predictions through
// Engine.cmplPos) so they can be removed or rekeyed in O(log n)
// instead of lingering until their instant passes.

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	i := len(e.heap)
	e.heap = append(e.heap, ev)
	e.placed(i)
	e.up(i)
}

// placed records element i's new position in its owner's back-pointer.
func (e *Engine) placed(i int) {
	ev := &e.heap[i]
	switch ev.kind {
	case evDeadline:
		e.jobSlots[ev.arg].dlPos = i
	case evCompletion:
		e.cmplPos[ev.arg] = i
	}
}

// less orders the heap by instant, then class; within both, a
// completion sorts after every other kind and completions sort by
// core, and the rest sort by insertion (seq). Because every step ends
// by re-predicting the completions, a completion thus takes exactly
// the place it would take if it were pushed afresh, in core order,
// after each step's other events — the order the trace goldens pin.
// A completion therefore needs no seq, and setCompletion rekeys one
// only when its instant moves.
func (e *Engine) less(i, j int) bool { return before(&e.heap[i], &e.heap[j]) }

// before is less on two event records.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if ac, bc := a.kind == evCompletion, b.kind == evCompletion; ac || bc {
		if ac && bc {
			return a.arg < b.arg
		}
		return bc
	}
	return a.seq < b.seq
}

// up and down sift through a hole: the moving event is written (and
// its back-pointer recorded) once, at its final position, which
// leaves the heap exactly as pairwise swaps would.
func (e *Engine) up(i int) {
	ev := e.heap[i]
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !before(&ev, &e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.placed(i)
		i = p
	}
	if i != start {
		e.heap[i] = ev
		e.placed(i)
	}
}

// down sifts element i toward the leaves; it reports whether the
// element moved, so fix-style callers can fall back to up.
func (e *Engine) down(i int) bool {
	n := len(e.heap)
	ev := e.heap[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&e.heap[r], &e.heap[c]) {
			c = r
		}
		if !before(&e.heap[c], &ev) {
			break
		}
		e.heap[i] = e.heap[c]
		e.placed(i)
		i = c
	}
	if i == start {
		return false
	}
	e.heap[i] = ev
	e.placed(i)
	return true
}

// clearPos resets the back-pointer of the event at position i before
// it leaves the heap.
func (e *Engine) clearPos(i int) {
	ev := &e.heap[i]
	switch ev.kind {
	case evDeadline:
		e.jobSlots[ev.arg].dlPos = -1
	case evCompletion:
		e.cmplPos[ev.arg] = -1
	}
}

// removeAt cancels the event at heap position i.
func (e *Engine) removeAt(i int) {
	e.clearPos(i)
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.placed(i)
	}
	e.heap = e.heap[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
}

// freeSlot releases a job's deadline-event slot once the event left
// the heap.
func (e *Engine) freeSlot(s int32) {
	e.jobSlots[s] = nil
	e.freeSlots = append(e.freeSlots, s)
}

func (e *Engine) pop() (event, bool) {
	if len(e.heap) == 0 {
		return event{}, false
	}
	top := e.heap[0]
	e.clearPos(0)
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.placed(0)
	}
	e.heap = e.heap[:last]
	if last > 0 {
		e.down(0)
	}
	return top, true
}

// setCompletion predicts core c's running-job completion at instant
// at. A pending prediction is updated in place, and only when its
// instant moves: a job that keeps its core keeps its instant until a
// stop request or a context-switch charge changes its demand. The
// event carries no seq; less orders completions by kind and core.
func (e *Engine) setCompletion(c int, at vtime.Time) {
	if i := e.cmplPos[c]; i >= 0 {
		if e.heap[i].at != at {
			e.heap[i].at = at
			if !e.down(i) {
				e.up(i)
			}
		}
		return
	}
	i := len(e.heap)
	e.heap = append(e.heap, event{at: at, class: classNormal, kind: evCompletion, arg: int32(c)})
	e.placed(i)
	e.up(i)
}

// Run executes the simulation to the horizon and returns the log.
// After a RunUntil (or a Restore), Run picks up from the current
// instant and completes the remaining horizon.
func (e *Engine) Run() *trace.Log {
	if e.ff != nil && !e.ff.abandoned {
		// Fast-forward drives the run hyperperiod to hyperperiod and,
		// on detecting a repeated boundary state, jumps the remaining
		// whole cycles; the ordinary loop below finishes the tail.
		e.runFastForward()
	}
	for len(e.heap) > 0 && e.heap[0].at <= e.cfg.End {
		ev, _ := e.pop()
		e.advance(ev.at)
		e.step(ev)
	}
	e.advance(e.cfg.End)
	e.now = e.cfg.End
	return e.log
}

// RunUntil executes the simulation up to and including instant t:
// every event at t is fully processed, so t is a checkpoint boundary
// — a Snapshot taken here, restored into a fresh engine and Run to
// the horizon, reproduces the unsplit run's remaining trace byte for
// byte (the split merely divides the running job's linear CPU accrual
// at t, which Executed already accounts for).
func (e *Engine) RunUntil(t vtime.Time) error {
	if t < e.now {
		return fmt.Errorf("engine: RunUntil(%v) is in the past (now %v)", t, e.now)
	}
	if t > e.cfg.End {
		return fmt.Errorf("engine: RunUntil(%v) is past the horizon %v", t, e.cfg.End)
	}
	for len(e.heap) > 0 && e.heap[0].at <= t {
		ev, _ := e.pop()
		e.advance(ev.at)
		e.step(ev)
	}
	e.advance(t)
	e.now = t
	return nil
}

// step dispatches one popped event; the caller has advanced to its
// instant already.
func (e *Engine) step(ev event) {
	switch ev.kind {
	case evCallback:
		fn := e.fns[ev.arg]
		e.fns[ev.arg] = nil
		e.freeFns = append(e.freeFns, ev.arg)
		fn(ev.at)
	case evRelease:
		e.release(e.tasks[ev.arg], ev.at)
	case evDeadline:
		j := e.jobSlots[ev.arg]
		e.freeSlot(ev.arg)
		// Reached only while the job is unfinished — completion
		// cancels the check — but stay defensive: a stale miss
		// would corrupt the trace.
		if !j.done {
			j.missed = true
			e.Record(trace.Event{At: ev.at, Kind: trace.DeadlineMiss, Task: j.task.task.Name, Job: j.Q})
		}
	case evCompletion:
		// finishIfDone below observes the predicted completion.
	}
	e.finishIfDone(ev.at)
	e.reschedule(ev.at)
}

// advance accrues CPU time to every core's running job up to instant
// t.
func (e *Engine) advance(t vtime.Time) {
	if t < e.now {
		return
	}
	d := t.Sub(e.now)
	for _, j := range e.running {
		if j != nil && !j.done {
			j.Executed += d
			if j.Executed > j.demand() {
				// Events are placed exactly at predicted completions,
				// so overshoot indicates an engine bug, not a user
				// error.
				panic(fmt.Sprintf("engine: job %s#%d executed %v past demand %v",
					j.TaskName(), j.Q, j.Executed, j.demand()))
			}
		}
	}
	e.now = t
}

// newJob returns a Job record, recycled from the pool when one is free.
func (e *Engine) newJob() *Job {
	if n := len(e.pool); n > 0 {
		j := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return j
	}
	return &Job{}
}

// recycle returns a terminated, fully dereferenced job to the pool.
func (e *Engine) recycle(j *Job) {
	e.pool = append(e.pool, j)
}

// release activates job nextQ of ts and schedules the following one.
func (e *Engine) release(ts *taskState, now vtime.Time) {
	if ts.removed {
		return
	}
	q := ts.nextQ
	ts.nextQ++
	cost, deadline := ts.task.Cost, ts.task.Deadline
	if ts.src != nil {
		// Per-release overrides staged by the pull that scheduled this
		// event (trace records carry their own cost/deadline; the
		// stochastic sources leave both nominal).
		if ts.srcNext.Cost > 0 {
			cost = ts.srcNext.Cost
		}
		if ts.srcNext.Deadline > 0 {
			deadline = ts.srcNext.Deadline
		}
	}
	j := e.newJob()
	*j = Job{
		task:        ts,
		Q:           q,
		Release:     now,
		AbsDeadline: now.Add(deadline),
		Actual:      ts.model.ActualCost(q, cost),
		dlPos:       -1,
	}
	e.Record(trace.Event{At: now, Kind: trace.JobRelease, Task: ts.task.Name, Job: q})
	if !e.policy.Admit(e, j) {
		// A shed job terminates incomplete at its release: record it
		// as stopped so trace-based metrics count the failure.
		e.Record(trace.Event{At: now, Kind: trace.JobStopped, Task: ts.task.Name, Job: q})
		e.recycle(j)
	} else {
		wasIdle := ts.live() == 0
		ts.pending = append(ts.pending, j)
		// Deadline check: records a miss the instant the deadline
		// passes with the job unfinished, as the paper's charts do.
		// finishIfDone cancels it when the job terminates earlier.
		if n := len(e.freeSlots); n > 0 {
			j.slot = e.freeSlots[n-1]
			e.freeSlots = e.freeSlots[:n-1]
			e.jobSlots[j.slot] = j
		} else {
			j.slot = int32(len(e.jobSlots))
			e.jobSlots = append(e.jobSlots, j)
		}
		e.push(event{at: j.AbsDeadline, class: classDeadline, kind: evDeadline, arg: j.slot})
		if wasIdle {
			e.readyPush(ts)
		}
		if e.cfg.Hooks.OnRelease != nil {
			e.cfg.Hooks.OnRelease(e, j)
		}
	}
	if ts.src != nil {
		// Pull the next arrival lazily; exhaustion (a finite trace)
		// simply stops scheduling. Sources promise non-decreasing
		// times, so clamping to now only defends against a buggy
		// source, never reorders a correct one.
		rel, ok := ts.src.Next()
		if !ok {
			return
		}
		ts.srcNext = rel
		at := rel.At
		if at < now {
			at = now
		}
		e.push(event{at: at, class: classNormal, kind: evRelease, arg: int32(ts.id)})
		return
	}
	e.push(event{at: now.Add(ts.task.Period), class: classNormal, kind: evRelease, arg: int32(ts.id)})
}

// finishIfDone terminates every running job that has consumed its
// effective demand, in core order.
func (e *Engine) finishIfDone(now vtime.Time) {
	for c := range e.running {
		e.finishCore(c, now)
	}
}

// finishCore terminates core c's running job once it has consumed its
// effective demand: it cancels the pending deadline check, consumes
// the job from its task's queue, updates the ready queue, and recycles
// the record after the hooks ran. On a uniprocessor and under
// partitioned dispatch the running task sits in its domain's ready
// queue and is rekeyed or removed there; under global dispatch it was
// off the queue, and its next job, if any, now waits on it.
func (e *Engine) finishCore(c int, now vtime.Time) {
	j := e.running[c]
	if j == nil || j.done || j.Executed < j.demand() {
		return
	}
	j.done = true
	if j.dlPos >= 0 {
		e.removeAt(j.dlPos)
		e.freeSlot(j.slot)
	}
	ts := j.task
	if ts.head() != j {
		panic(fmt.Sprintf("engine: finished job %s#%d is not its task's head", j.TaskName(), j.Q))
	}
	ts.popFront()
	if ts.rdPos >= 0 {
		if ts.live() > 0 {
			e.readyFix(ts)
		} else {
			e.readyRemove(ts)
		}
	} else if ts.live() > 0 {
		e.readyPush(ts)
	}
	if j.limited && j.Actual+j.overhead > j.workLimit {
		j.stopped = true
		e.Record(trace.Event{At: now, Kind: trace.JobStopped, Task: j.TaskName(), Job: j.Q})
		if e.cfg.Hooks.OnStopped != nil {
			e.cfg.Hooks.OnStopped(e, j)
		}
	} else {
		e.Record(trace.Event{At: now, Kind: trace.JobEnd, Task: j.TaskName(), Job: j.Q})
		if e.cfg.Hooks.OnFinish != nil {
			e.cfg.Hooks.OnFinish(e, j)
		}
	}
	e.running[c] = nil
	if e.worst == c {
		e.worst = -1
	}
	e.recycle(j)
}

// reschedule dispatches the best ready jobs and predicts completions:
// per-core from each core's own domain under single-core and
// partitioned dispatch, top-M from the shared domain under global
// multiprocessor dispatch.
func (e *Engine) reschedule(now vtime.Time) {
	if e.global() {
		e.rescheduleGlobal(now)
		return
	}
	for c := 0; c < e.cpus; c++ {
		e.rescheduleCore(c, now)
	}
}

// global reports whether the M cores share one dispatch domain.
func (e *Engine) global() bool { return e.cpus > 1 && !e.partitioned }

// rescheduleCore dispatches domain c's best ready job onto core c —
// the historical single-slot logic, with the core riding in the
// trace events' Arg (0, and therefore absent, on a uniprocessor).
func (e *Engine) rescheduleCore(c int, now vtime.Time) {
	var best *Job
	if q := e.ready[c]; len(q) > 0 {
		best = e.tasks[q[0]].head()
	}
	if best != e.running[c] {
		if run := e.running[c]; run != nil && !run.done {
			e.Record(trace.Event{At: now, Kind: trace.JobPreempt, Task: run.TaskName(), Job: run.Q, Arg: int64(c)})
		}
		if best != nil {
			e.dispatch(best, c, now)
		}
		e.running[c] = best
	}
	e.predictCompletion(c, now)
}

// rescheduleGlobal brings the running set to the M policy-best live
// heads. The ready queue holds only the waiting heads, so a free core
// takes the ready top, and while the ready top beats the policy-worst
// running job it displaces that job, whose task goes back on the
// queue. Selection thus obeys the same total order (policy, then task
// id) as the single-core root, and it usually costs zero or one
// comparison. Displaced jobs are preempted in core order before any
// dispatch; newly selected jobs take the lowest-indexed free cores in
// rank order, migrating (trace.JobMigrate) when they last ran
// elsewhere. Only the changed cores' completions move.
func (e *Engine) rescheduleGlobal(now vtime.Time) {
	free := 0
	for _, j := range e.running {
		if j == nil {
			free++
		}
	}
	sel := e.sel[:0]
	for len(e.ready[0]) > 0 {
		ts := e.tasks[e.ready[0][0]]
		if free > 0 {
			free--
		} else {
			// A job selected this instant never loses to a later ready
			// top, so only the still-running jobs can be displaced.
			w := e.worstCore()
			if w < 0 || !e.readyLess(int32(ts.id), int32(e.running[w].task.id)) {
				break
			}
			e.preempted[w] = e.running[w]
			e.running[w] = nil
			e.worst = -1
		}
		e.readyRemove(ts)
		sel = append(sel, ts.head())
	}
	for c, j := range e.preempted {
		if j != nil {
			e.Record(trace.Event{At: now, Kind: trace.JobPreempt, Task: j.TaskName(), Job: j.Q, Arg: int64(c)})
			e.preempted[c] = nil
			e.readyPush(j.task)
		}
	}
	c := 0
	for _, j := range sel {
		for e.running[c] != nil {
			c++
		}
		e.dispatch(j, c, now)
		e.running[c] = j
		if e.worst >= 0 && e.readyLess(int32(e.running[e.worst].task.id), int32(j.task.id)) {
			e.worst = c
		}
	}
	e.sel = sel[:0]
	for c := range e.running {
		e.predictCompletion(c, now)
	}
}

// worstCore returns the core running the policy-worst job, or -1
// when every core idles. The answer is cached in e.worst until the
// running set changes.
func (e *Engine) worstCore() int {
	if e.worst >= 0 {
		return e.worst
	}
	w := -1
	for c, j := range e.running {
		if j != nil && (w < 0 || e.readyLess(int32(e.running[w].task.id), int32(j.task.id))) {
			w = c
		}
	}
	e.worst = w
	return w
}

// dispatch places job j on core c, recording begin on first dispatch,
// migrate when the job last ran on a different core, resume
// otherwise, and charging the context-switch cost.
func (e *Engine) dispatch(j *Job, c int, now vtime.Time) {
	kind := trace.JobResume
	if !j.begun {
		j.begun = true
		kind = trace.JobBegin
	} else if j.cpu != int32(c) {
		kind = trace.JobMigrate
	}
	j.cpu = int32(c)
	e.Record(trace.Event{At: now, Kind: kind, Task: j.TaskName(), Job: j.Q, Arg: int64(c)})
	if e.cfg.ContextSwitch > 0 {
		j.overhead += e.cfg.ContextSwitch
	}
	e.switches++
}

// predictCompletion re-predicts core c's completion event from its
// running job's remaining demand, or cancels it when the core idles.
func (e *Engine) predictCompletion(c int, now vtime.Time) {
	if j := e.running[c]; j != nil {
		e.setCompletion(c, now.Add(j.Remaining()))
	} else if e.cmplPos[c] >= 0 {
		e.removeAt(e.cmplPos[c])
	}
}

// Ready-queue primitives: per-domain min-heaps of task ids keyed by
// each task's head job under the policy order, with ties broken by
// task id — exactly the job the historical linear scan over task
// heads selected. Entries are plain ints so sifts stay barrier free.

// readyLess orders tasks a and b by their head jobs.
func (e *Engine) readyLess(a, b int32) bool {
	ta, tb := e.tasks[a], e.tasks[b]
	ha, hb := ta.pending[ta.phead], tb.pending[tb.phead]
	if e.fpFast {
		return fpBetter(ha, hb) // total order: id tie-break built in
	}
	if e.policy.Better(ha, hb) {
		return true
	}
	if e.policy.Better(hb, ha) {
		return false
	}
	return a < b
}

func (e *Engine) readyPush(ts *taskState) {
	d := ts.dom
	ts.rdPos = len(e.ready[d])
	e.ready[d] = append(e.ready[d], int32(ts.id))
	e.readyUp(d, ts.rdPos)
}

func (e *Engine) readyUp(d int32, i int) {
	q := e.ready[d]
	for i > 0 {
		p := (i - 1) / 2
		if !e.readyLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		e.tasks[q[i]].rdPos = i
		e.tasks[q[p]].rdPos = p
		i = p
	}
}

func (e *Engine) readyDown(d int32, i int) bool {
	q := e.ready[d]
	n := len(q)
	start := i
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.readyLess(q[l], q[small]) {
			small = l
		}
		if r < n && e.readyLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			return i != start
		}
		q[i], q[small] = q[small], q[i]
		e.tasks[q[i]].rdPos = i
		e.tasks[q[small]].rdPos = small
		i = small
	}
}

// readyFix restores ts's heap position after its head job changed.
func (e *Engine) readyFix(ts *taskState) {
	if i := ts.rdPos; i >= 0 {
		if !e.readyDown(ts.dom, i) {
			e.readyUp(ts.dom, i)
		}
	}
}

func (e *Engine) readyRemove(ts *taskState) {
	i := ts.rdPos
	if i < 0 {
		return
	}
	d := ts.dom
	ts.rdPos = -1
	q := e.ready[d]
	last := len(q) - 1
	if i != last {
		q[i] = q[last]
		e.tasks[q[i]].rdPos = i
	}
	e.ready[d] = q[:last]
	if i != last {
		if !e.readyDown(d, i) {
			e.readyUp(d, i)
		}
	}
}

// JobAt returns task's job q and whether it is live: released and not
// terminated, in either collection mode. Only live jobs resolve — a
// binary search over the release-ordered pending queue. The contract
// is therefore: a missing job is a terminated (or refused, or
// never-released) one, and that holds from the very instant the job
// terminates — a query issued by a callback at the job's own
// completion instant (a detector check, an OnFinish/OnStopped hook, a
// same-tick timer) already reports it missing, because finishIfDone
// consumes the job from the pending queue before any hook runs.
// Callers must treat missing as done, never as "not yet released";
// the detectors and D-over's watchdog do exactly that, and
// TestJobAtSameInstantCompletion pins the behaviour in both modes.
// The returned *Job is valid until the job terminates: do not keep it.
func (e *Engine) JobAt(task string, q int64) (*Job, bool) {
	ts, ok := e.byName[task]
	if !ok {
		return nil, false
	}
	return e.jobAt(ts, q)
}

// TaskID returns the dense index the engine assigned to the task
// (-1 if unknown): a stable handle for hot-path queries through
// JobAtID that skips the name lookup.
func (e *Engine) TaskID(task string) int {
	if ts, ok := e.byName[task]; ok {
		return ts.id
	}
	return -1
}

// JobAtID is JobAt addressed by a TaskID handle.
func (e *Engine) JobAtID(id int, q int64) (*Job, bool) {
	if id < 0 || id >= len(e.tasks) {
		return nil, false
	}
	return e.jobAt(e.tasks[id], q)
}

func (e *Engine) jobAt(ts *taskState, q int64) (*Job, bool) {
	if q < 0 {
		return nil, false
	}
	// pending[phead:] is strictly increasing in Q (refused jobs leave
	// gaps, so index arithmetic alone cannot address it).
	lo, hi := ts.phead, len(ts.pending)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts.pending[mid].Q < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ts.pending) && ts.pending[lo].Q == q {
		return ts.pending[lo], true
	}
	return nil, false
}

// TaskNames returns the names of all tasks ever added, in add order.
func (e *Engine) TaskNames() []string {
	out := make([]string, len(e.tasks))
	for i, ts := range e.tasks {
		out[i] = ts.task.Name
	}
	return out
}

// ReadyJobs snapshots the current heads of all task queues (the jobs
// competing for the CPU) in task-definition order, for value-based
// policies. The returned slice is backed by an engine-owned scratch
// buffer: it is valid until the next ReadyJobs call and must not be
// retained across events (the value policies consume it within one
// Admit or watchdog callback).
func (e *Engine) ReadyJobs() []*Job {
	out := e.scratch[:0]
	for _, ts := range e.tasks {
		if h := ts.head(); h != nil {
			out = append(out, h)
		}
	}
	e.scratch = out
	return out
}

// StopJob requests the stop of job q of the task, honouring the §4.1
// poll semantics: the job terminates at its next StopPoll boundary of
// executed work (plus optional jitter), never retroactively. A no-op
// if the job is already done or not yet released.
func (e *Engine) StopJob(task string, q int64, now vtime.Time) {
	j, ok := e.JobAt(task, q)
	if !ok || j.done {
		return
	}
	e.Record(trace.Event{At: now, Kind: trace.StopRequest, Task: task, Job: q})
	limit := j.Executed.Ceil(e.cfg.StopPoll)
	if e.cfg.StopJitterMax > 0 {
		limit += e.rng.DurationIn(0, e.cfg.StopJitterMax)
	}
	if !j.limited || limit < j.workLimit {
		j.limited = true
		j.workLimit = limit
	}
	// If the stopped job is currently running its completion
	// prediction shrank; if it is preempted, nothing changes until it
	// is dispatched again. Either way the caller's event loop
	// iteration ends with reschedule(), which re-predicts.
}

// AddTask performs dynamic admission (paper §7): the task joins the
// system now (its offset is relative to the current instant). The
// caller is responsible for re-running admission control.
func (e *Engine) AddTask(t taskset.Task, m fault.Model, now vtime.Time) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if e.partitioned {
		return fmt.Errorf("engine: dynamic admission needs a core assignment under partitioned dispatch; use global dispatch")
	}
	if _, exists := e.byName[t.Name]; exists {
		return fmt.Errorf("engine: task %q already present", t.Name)
	}
	if m == nil {
		m = e.cfg.Faults.For(t.Name)
	}
	t.Offset += vtime.Duration(now)
	if e.ff != nil {
		// The hyperperiod and per-cycle release counts were computed
		// from the static set; a dynamic task invalidates both.
		e.ff.abandoned = true
	}
	e.addTaskState(t, m)
	e.Record(trace.Event{At: now, Kind: trace.TaskAdded, Task: t.Name, Job: -1})
	if e.cfg.Hooks.OnTaskAdded != nil {
		e.cfg.Hooks.OnTaskAdded(e, t.Name)
	}
	return nil
}

// RemoveTask cancels all future releases of the task; its current
// jobs run to completion. A no-op for unknown tasks.
func (e *Engine) RemoveTask(name string, now vtime.Time) {
	ts, ok := e.byName[name]
	if !ok || ts.removed {
		return
	}
	ts.removed = true
	if e.ff != nil {
		e.ff.abandoned = true
	}
	e.Record(trace.Event{At: now, Kind: trace.TaskRemoved, Task: name, Job: -1})
}
