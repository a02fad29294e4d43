package engine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/vtime"
)

// CheckpointVersion is the serialization version stamped into every
// Checkpoint. Bump it on any change to the checkpoint structures or
// to the engine state they capture; Restore rejects other versions.
const CheckpointVersion = 2

// Checkpoint is the complete serializable state of a streaming-mode
// engine at an event boundary: virtual time, the typed event heap
// (positions and sequence numbers preserved, so the restored heap is
// structurally identical), every task's release counter and pending
// job queue, the deadline-event slot table, the stop-jitter RNG and
// any stateful fault models. It is pure data — canonical JSON like
// sim/scenario — and carries everything a fresh engine built from the
// same Config needs to continue the run: a run split at a checkpoint
// boundary produces a byte-identical trace to the unsplit run.
//
// Checkpoints cover Stream collection only (a Retain run keeps its
// whole event log, which a checkpoint does not carry and a long-horizon
// run must not), and only instants with no in-flight external timers —
// detector treatments, polling servers and d-over's watchdog hold
// closure-bearing timers the checkpoint cannot capture. Snapshot
// reports both conditions as errors.
type Checkpoint struct {
	Version int `json:"version"`
	// Policy and End echo the originating Config so Restore can
	// reject a checkpoint applied under a different run description.
	Policy string `json:"policy"`
	End    int64  `json:"end"`
	// Now is the boundary instant; Seq and Switches continue the
	// event and dispatch counters; Rng is the stop-jitter stream.
	Now      int64  `json:"now"`
	Seq      uint64 `json:"seq"`
	Switches int64  `json:"switches"`
	Rng      uint64 `json:"rng"`
	// CPUs and Partition echo the processor topology of the
	// originating Config; Restore rejects a checkpoint applied under
	// a different topology.
	CPUs      int   `json:"cpus"`
	Partition []int `json:"partition,omitempty"`
	// Running names, per core, the task whose head job holds that
	// core (-1 idle).
	Running []int32 `json:"running"`
	// Tasks, Events and JobSlots mirror the engine's task table, event
	// heap (in heap-array order) and deadline-slot table.
	Tasks    []TaskCheckpoint  `json:"tasks"`
	Events   []EventCheckpoint `json:"events"`
	JobSlots []SlotCheckpoint  `json:"job_slots"`
	// FreeSlots and FreeFns preserve the slot free lists so a resumed
	// engine allocates slots in the same order the unsplit run does.
	FreeSlots []int32 `json:"free_slots,omitempty"`
	FreeFns   []int32 `json:"free_fns,omitempty"`
	// FnSlots is the callback-table length (every entry free — live
	// callbacks are not checkpointable).
	FnSlots int `json:"fn_slots"`
}

// TaskCheckpoint is one task's dynamic state.
type TaskCheckpoint struct {
	Name    string `json:"name"`
	NextQ   int64  `json:"next_q"`
	Removed bool   `json:"removed,omitempty"`
	// FaultState captures stateful fault models (fault.ModelState).
	FaultState []uint64 `json:"fault_state,omitempty"`
	// Pending lists the released, unfinished jobs in FIFO order.
	Pending []JobCheckpoint `json:"pending,omitempty"`
}

// JobCheckpoint is one live job. Terminated jobs never appear: they
// leave the pending queue the instant they finish.
type JobCheckpoint struct {
	Q           int64 `json:"q"`
	Release     int64 `json:"release"`
	AbsDeadline int64 `json:"abs_deadline"`
	Actual      int64 `json:"actual"`
	Executed    int64 `json:"executed"`
	Overhead    int64 `json:"overhead,omitempty"`
	WorkLimit   int64 `json:"work_limit,omitempty"`
	Slot        int32 `json:"slot"`
	CPU         int32 `json:"cpu,omitempty"`
	Limited     bool  `json:"limited,omitempty"`
	Begun       bool  `json:"begun,omitempty"`
	Missed      bool  `json:"missed,omitempty"`
}

// EventCheckpoint is one typed heap entry, positionally identical to
// the live heap array (a valid binary heap serializes as-is).
type EventCheckpoint struct {
	At    int64  `json:"at"`
	Seq   uint64 `json:"seq"`
	Arg   int32  `json:"arg"`
	Class uint8  `json:"class"`
	Kind  uint8  `json:"kind"`
}

// SlotCheckpoint resolves one deadline-event slot to its job by
// (task id, q); Task is -1 for a free slot.
type SlotCheckpoint struct {
	Task int32 `json:"task"`
	Q    int64 `json:"q,omitempty"`
}

// isRunning reports whether job j holds a core.
func (e *Engine) isRunning(j *Job) bool {
	for _, r := range e.running {
		if r == j {
			return true
		}
	}
	return false
}

// liveTimers counts in-flight external timers (scheduled callbacks
// whose closure has not yet popped).
func (e *Engine) liveTimers() int { return len(e.fns) - len(e.freeFns) }

// Snapshot captures the engine's state at the current event boundary
// (reach one with RunUntil). It fails under Retain collection and
// while external timers are in flight — see Checkpoint.
func (e *Engine) Snapshot() (*Checkpoint, error) {
	if !e.stream {
		return nil, fmt.Errorf("engine: Snapshot requires Stream collection (a Retain run carries its whole event log)")
	}
	if n := e.liveTimers(); n > 0 {
		return nil, fmt.Errorf("engine: Snapshot with %d external timer(s) in flight (detector treatments, polling servers and watchdog policies are not checkpointable)", n)
	}
	for _, ts := range e.tasks {
		if ts.src != nil {
			return nil, fmt.Errorf("engine: Snapshot cannot serialize task %q's arrival source (source iterator state is opaque)", ts.task.Name)
		}
	}
	cp := &Checkpoint{
		Version:   CheckpointVersion,
		Policy:    e.policy.Name(),
		End:       int64(e.cfg.End),
		Now:       int64(e.now),
		Seq:       e.seq,
		Switches:  e.switches,
		Rng:       e.rng.State(),
		CPUs:      e.cpus,
		Partition: append([]int(nil), e.cfg.Partition...),
		Running:   make([]int32, e.cpus),
		Tasks:     make([]TaskCheckpoint, len(e.tasks)),
		Events:    make([]EventCheckpoint, len(e.heap)),
		JobSlots:  make([]SlotCheckpoint, len(e.jobSlots)),
		FreeSlots: append([]int32(nil), e.freeSlots...),
		FreeFns:   append([]int32(nil), e.freeFns...),
		FnSlots:   len(e.fns),
	}
	for c, j := range e.running {
		cp.Running[c] = -1
		if j != nil {
			cp.Running[c] = int32(j.task.id)
		}
	}
	for i, ts := range e.tasks {
		tc := TaskCheckpoint{
			Name:       ts.task.Name,
			NextQ:      ts.nextQ,
			Removed:    ts.removed,
			FaultState: fault.ModelState(ts.model),
		}
		for _, j := range ts.pending[ts.phead:] {
			tc.Pending = append(tc.Pending, JobCheckpoint{
				Q:           j.Q,
				Release:     int64(j.Release),
				AbsDeadline: int64(j.AbsDeadline),
				Actual:      int64(j.Actual),
				Executed:    int64(j.Executed),
				Overhead:    int64(j.overhead),
				WorkLimit:   int64(j.workLimit),
				Slot:        j.slot,
				CPU:         j.cpu,
				Limited:     j.limited,
				Begun:       j.begun,
				Missed:      j.missed,
			})
		}
		cp.Tasks[i] = tc
	}
	for i, ev := range e.heap {
		cp.Events[i] = EventCheckpoint{
			At:    int64(ev.at),
			Seq:   ev.seq,
			Arg:   ev.arg,
			Class: ev.class,
			Kind:  uint8(ev.kind),
		}
	}
	for s, j := range e.jobSlots {
		if j == nil {
			cp.JobSlots[s] = SlotCheckpoint{Task: -1}
		} else {
			cp.JobSlots[s] = SlotCheckpoint{Task: int32(j.task.id), Q: j.Q}
		}
	}
	return cp, nil
}

// Restore loads a checkpoint into a freshly built engine (same Config
// that produced the snapshot: identical tasks, faults, policy, knobs;
// the horizon may extend past the checkpoint's). After Restore, Run
// completes the remaining horizon exactly as the unsplit run would.
func (e *Engine) Restore(cp *Checkpoint) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("engine: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if !e.stream {
		return fmt.Errorf("engine: Restore requires Stream collection")
	}
	if got := e.policy.Name(); got != cp.Policy {
		return fmt.Errorf("engine: checkpoint policy %q, engine runs %q", cp.Policy, got)
	}
	if len(cp.Tasks) != len(e.tasks) {
		return fmt.Errorf("engine: checkpoint has %d tasks, engine %d", len(cp.Tasks), len(e.tasks))
	}
	if cp.CPUs != e.cpus {
		return fmt.Errorf("engine: checkpoint has %d CPUs, engine %d", cp.CPUs, e.cpus)
	}
	if len(cp.Partition) != len(e.cfg.Partition) {
		return fmt.Errorf("engine: checkpoint partition has %d entries, engine %d", len(cp.Partition), len(e.cfg.Partition))
	}
	for i, c := range cp.Partition {
		if e.cfg.Partition[i] != c {
			return fmt.Errorf("engine: checkpoint pins task %d to core %d, engine to %d", i, c, e.cfg.Partition[i])
		}
	}
	if len(cp.Running) != e.cpus {
		return fmt.Errorf("engine: checkpoint has %d run slots for %d CPUs", len(cp.Running), e.cpus)
	}
	if at := vtime.Time(cp.Now); at > e.cfg.End {
		return fmt.Errorf("engine: checkpoint instant %v is past the horizon %v", at, e.cfg.End)
	}
	for i, tc := range cp.Tasks {
		if e.tasks[i].task.Name != tc.Name {
			return fmt.Errorf("engine: checkpoint task %d is %q, engine has %q", i, tc.Name, e.tasks[i].task.Name)
		}
	}
	e.now = vtime.Time(cp.Now)
	e.seq = cp.Seq
	e.switches = cp.Switches
	e.rng.SetState(cp.Rng)

	// Task table: rebuild each pending queue with fresh Job records.
	for i, tc := range cp.Tasks {
		ts := e.tasks[i]
		ts.nextQ = tc.NextQ
		ts.removed = tc.Removed
		ts.pending = ts.pending[:0]
		ts.phead = 0
		ts.rdPos = -1
		if err := fault.SetModelState(ts.model, tc.FaultState); err != nil {
			return fmt.Errorf("engine: task %q: %w", tc.Name, err)
		}
		for _, jc := range tc.Pending {
			j := e.newJob()
			*j = Job{
				task:        ts,
				Q:           jc.Q,
				Release:     vtime.Time(jc.Release),
				AbsDeadline: vtime.Time(jc.AbsDeadline),
				Actual:      vtime.Duration(jc.Actual),
				Executed:    vtime.Duration(jc.Executed),
				overhead:    vtime.Duration(jc.Overhead),
				workLimit:   vtime.Duration(jc.WorkLimit),
				slot:        jc.Slot,
				cpu:         jc.CPU,
				limited:     jc.Limited,
				begun:       jc.Begun,
				missed:      jc.Missed,
				dlPos:       -1,
			}
			ts.pending = append(ts.pending, j)
		}
	}

	// Slot tables before the heap: placed() resolves deadline events
	// through jobSlots.
	e.jobSlots = make([]*Job, len(cp.JobSlots))
	for s, sc := range cp.JobSlots {
		if sc.Task < 0 {
			continue
		}
		if int(sc.Task) >= len(e.tasks) {
			return fmt.Errorf("engine: checkpoint slot %d references task %d of %d", s, sc.Task, len(e.tasks))
		}
		j, ok := e.jobAt(e.tasks[sc.Task], sc.Q)
		if !ok {
			return fmt.Errorf("engine: checkpoint slot %d references missing job %s#%d", s, e.tasks[sc.Task].task.Name, sc.Q)
		}
		e.jobSlots[s] = j
	}
	e.freeSlots = append(e.freeSlots[:0], cp.FreeSlots...)
	e.fns = make([]func(now vtime.Time), cp.FnSlots)
	e.freeFns = append(e.freeFns[:0], cp.FreeFns...)

	// Event heap: the serialized array is a valid heap; loading it
	// positionally and replaying placed() restores every back-pointer
	// (Job.dlPos, Engine.cmplPos).
	for c := range e.cmplPos {
		e.cmplPos[c] = -1
	}
	e.heap = e.heap[:0]
	for _, ec := range cp.Events {
		if eventKind(ec.Kind) == evCallback {
			return fmt.Errorf("engine: checkpoint carries an external-timer event (not checkpointable)")
		}
		e.heap = append(e.heap, event{
			at:    vtime.Time(ec.At),
			seq:   ec.Seq,
			arg:   ec.Arg,
			class: ec.Class,
			kind:  eventKind(ec.Kind),
		})
	}
	for i := range e.heap {
		switch e.heap[i].kind {
		case evDeadline:
			s := e.heap[i].arg
			if int(s) >= len(e.jobSlots) || e.jobSlots[s] == nil {
				return fmt.Errorf("engine: checkpoint deadline event references empty slot %d", s)
			}
		case evCompletion:
			if c := e.heap[i].arg; int(c) >= e.cpus {
				return fmt.Errorf("engine: checkpoint completion event references core %d of %d", c, e.cpus)
			}
		}
		e.placed(i)
	}

	for c := range e.running {
		e.running[c] = nil
		id := cp.Running[c]
		if id < 0 {
			continue
		}
		if int(id) >= len(e.tasks) {
			return fmt.Errorf("engine: checkpoint running task %d of %d", id, len(e.tasks))
		}
		j := e.tasks[id].head()
		if j == nil {
			return fmt.Errorf("engine: checkpoint running task %q has no live job", e.tasks[id].task.Name)
		}
		e.running[c] = j
	}
	e.worst = -1

	// Ready queue: a task is ready iff it has a live job — under global
	// dispatch, a live job that is not running. Pushing in id order
	// yields a valid heap whose root is the policy-best head (readyLess
	// is a total order, so the array layout is irrelevant to dispatch).
	for d := range e.ready {
		e.ready[d] = e.ready[d][:0]
	}
	for _, ts := range e.tasks {
		if ts.live() > 0 && !(e.global() && e.isRunning(ts.head())) {
			e.readyPush(ts)
		}
	}
	return nil
}
