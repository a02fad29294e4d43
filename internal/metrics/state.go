package metrics

import (
	"fmt"
	"sort"

	"repro/internal/vtime"
)

// AccumulatorState is the complete serializable state of an
// Accumulator: per-task summaries with their response moments, the
// quantile sketches, and the transient live-job records. It is the
// wire format of the checkpoint/resume pipeline (a resumed run's
// accumulator continues field-for-field from the snapshot) and of the
// process-sharded sweeps (workers stream it back, the parent rebuilds
// reports or folds shards into an aggregate with Absorb). Slices are
// sorted (tasks by name, live jobs by task then q, sketch tuples by
// value) so the JSON encoding of a deterministic run is canonical.
type AccumulatorState struct {
	Version int            `json:"version"`
	Epsilon float64        `json:"epsilon"`
	Tasks   []TaskState    `json:"tasks,omitempty"`
	Live    []LiveJobState `json:"live,omitempty"`
}

// AccumulatorStateVersion stamps AccumulatorState encodings.
const AccumulatorStateVersion = 1

// TaskState is one task's accumulated summary plus its sketch.
type TaskState struct {
	Task        string       `json:"task"`
	Released    int          `json:"released"`
	Finished    int          `json:"finished"`
	Stopped     int          `json:"stopped,omitempty"`
	Missed      int          `json:"missed,omitempty"`
	Failed      int          `json:"failed,omitempty"`
	Detected    int          `json:"detected,omitempty"`
	MinResponse int64        `json:"min_response"`
	MaxResponse int64        `json:"max_response"`
	RespSum     int64        `json:"resp_sum"`
	RespN       int64        `json:"resp_n"`
	Sketch      *SketchState `json:"sketch,omitempty"`
}

// SketchState is a GK quantile summary as data: (value, g, delta)
// triples in value order.
type SketchState struct {
	Epsilon float64    `json:"epsilon"`
	N       int64      `json:"n"`
	Tuples  [][3]int64 `json:"tuples,omitempty"`
}

// LiveJobState is one released-but-unterminated job.
type LiveJobState struct {
	Task     string `json:"task"`
	Q        int64  `json:"q"`
	Release  int64  `json:"release"`
	Missed   bool   `json:"missed,omitempty"`
	Detected bool   `json:"detected,omitempty"`
}

// State snapshots the accumulator, live jobs included, so a restored
// accumulator resumes mid-run exactly (RestoreState).
func (a *Accumulator) State() *AccumulatorState {
	st := &AccumulatorState{Version: AccumulatorStateVersion, Epsilon: a.eps}
	names := make([]string, 0, len(a.tasks))
	for name := range a.tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := a.tasks[name]
		if r.reported {
			s := &r.sum
			ts := TaskState{
				Task:        name,
				Released:    s.Released,
				Finished:    s.Finished,
				Stopped:     s.Stopped,
				Missed:      s.Missed,
				Failed:      s.Failed,
				Detected:    s.Detected,
				MinResponse: int64(s.MinResponse),
				MaxResponse: int64(s.MaxResponse),
				RespSum:     int64(s.respSum),
				RespN:       s.respN,
			}
			if r.sketch != nil {
				ts.Sketch = r.sketch.State()
			}
			st.Tasks = append(st.Tasks, ts)
		}
		// Names ascend and each task's live jobs ascend in q: the
		// (task, q) order of the encoding.
		for _, lj := range r.live.jobs[r.live.head:] {
			st.Live = append(st.Live, LiveJobState{
				Task:     name,
				Q:        lj.q,
				Release:  int64(lj.release),
				Missed:   lj.missed,
				Detected: lj.detected,
			})
		}
	}
	return st
}

// RestoreState loads a snapshot into an empty accumulator; subsequent
// Appends continue exactly where the snapshot left off.
func (a *Accumulator) RestoreState(st *AccumulatorState) error {
	if st.Version != AccumulatorStateVersion {
		return fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	if len(a.tasks) != 0 {
		return fmt.Errorf("metrics: RestoreState on a non-empty accumulator")
	}
	a.eps = st.Epsilon
	for _, ts := range st.Tasks {
		r := a.record(ts.Task)
		r.sum, r.reported = *ts.summary(), true
		if ts.Sketch != nil {
			r.sketch = ts.Sketch.sketch()
		}
	}
	for _, lj := range st.Live {
		r := a.record(lj.Task)
		j := liveJob{q: lj.Q, release: vtime.Time(lj.Release), missed: lj.Missed, detected: lj.Detected}
		if i, dup := r.live.find(lj.Q); dup {
			r.live.jobs[i] = j
		} else {
			r.live.insert(i, j)
		}
	}
	return nil
}

// summary converts the serialized form back to a TaskSummary.
func (ts TaskState) summary() *TaskSummary {
	return &TaskSummary{
		Task:        ts.Task,
		Released:    ts.Released,
		Finished:    ts.Finished,
		Stopped:     ts.Stopped,
		Missed:      ts.Missed,
		Failed:      ts.Failed,
		Detected:    ts.Detected,
		MinResponse: vtime.Duration(ts.MinResponse),
		MaxResponse: vtime.Duration(ts.MaxResponse),
		respSum:     vtime.Duration(ts.RespSum),
		respN:       ts.RespN,
	}
}

// Absorb folds a completed shard's state into the accumulator:
// counters sum, response extremes and moments fold, sketches merge
// (see Sketch.Merge for the widened rank-error bound), live jobs
// union. It is how the parent of a process-sharded sweep builds the
// aggregate view from streamed worker states.
func (a *Accumulator) Absorb(st *AccumulatorState) error {
	if st.Version != AccumulatorStateVersion {
		return fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	for _, ts := range st.Tasks {
		r := a.record(ts.Task)
		r.reported = true
		s := &r.sum
		incoming := ts.summary()
		if incoming.respN > 0 && (s.respN == 0 || incoming.MinResponse < s.MinResponse) {
			s.MinResponse = incoming.MinResponse
		}
		if incoming.MaxResponse > s.MaxResponse {
			s.MaxResponse = incoming.MaxResponse
		}
		s.Released += incoming.Released
		s.Finished += incoming.Finished
		s.Stopped += incoming.Stopped
		s.Missed += incoming.Missed
		s.Failed += incoming.Failed
		s.Detected += incoming.Detected
		s.respSum += incoming.respSum
		s.respN += incoming.respN
		if ts.Sketch != nil {
			in := ts.Sketch.sketch()
			if r.sketch != nil {
				r.sketch.Merge(in)
			} else {
				r.sketch = in
			}
		}
	}
	for _, lj := range st.Live {
		r := a.record(lj.Task)
		i, dup := r.live.find(lj.Q)
		if dup {
			return fmt.Errorf("metrics: Absorb live-job collision %s#%d (shards must cover disjoint runs)", lj.Task, lj.Q)
		}
		r.live.insert(i, liveJob{q: lj.Q, release: vtime.Time(lj.Release), missed: lj.Missed, detected: lj.Detected})
	}
	return nil
}

// StateFromReport converts a streaming run's final report into the
// wire state (live jobs are gone by then — every released job either
// terminated or stays counted in Released). It is how sharded-sweep
// workers serialize a RunResult without access to the accumulator.
func StateFromReport(r *Report) (*AccumulatorState, error) {
	if !r.Streaming() {
		return nil, fmt.Errorf("metrics: StateFromReport needs a streaming report (sketch-backed percentiles)")
	}
	st := &AccumulatorState{Version: AccumulatorStateVersion, Epsilon: DefaultSketchEpsilon}
	names := make([]string, 0, len(r.Tasks))
	for name := range r.Tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Tasks[name]
		ts := TaskState{
			Task:        name,
			Released:    s.Released,
			Finished:    s.Finished,
			Stopped:     s.Stopped,
			Missed:      s.Missed,
			Failed:      s.Failed,
			Detected:    s.Detected,
			MinResponse: int64(s.MinResponse),
			MaxResponse: int64(s.MaxResponse),
			RespSum:     int64(s.respSum),
			RespN:       s.respN,
		}
		if sk, ok := r.sketches[name]; ok {
			ts.Sketch = sk.State()
			st.Epsilon = sk.Epsilon()
		}
		st.Tasks = append(st.Tasks, ts)
	}
	return st, nil
}

// ReportFromState is the receiving end of StateFromReport: it
// rebuilds the streaming report a worker's run produced, equal
// field-for-field (summaries, mean included) and percentile-for-
// percentile (the sketches travel verbatim).
func ReportFromState(st *AccumulatorState) (*Report, error) {
	if st.Version != AccumulatorStateVersion {
		return nil, fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	rep := &Report{
		Tasks:    make(map[string]*TaskSummary, len(st.Tasks)),
		sketches: make(map[string]*Sketch, len(st.Tasks)),
	}
	for _, ts := range st.Tasks {
		s := ts.summary()
		if s.respN > 0 {
			s.MeanResponse = s.respSum / vtime.Duration(s.respN)
		}
		rep.Tasks[ts.Task] = s
		if ts.Sketch != nil {
			rep.sketches[ts.Task] = ts.Sketch.sketch()
		}
	}
	return rep, nil
}

// State serializes the sketch.
func (s *Sketch) State() *SketchState {
	st := &SketchState{Epsilon: s.eps, N: s.n}
	for _, t := range s.t {
		st.Tuples = append(st.Tuples, [3]int64{int64(t.v), t.g, t.delta})
	}
	return st
}

// sketch rebuilds the live form.
func (st *SketchState) sketch() *Sketch {
	sk := &Sketch{eps: st.Epsilon, n: st.N}
	for _, t := range st.Tuples {
		sk.t = append(sk.t, gkTuple{v: vtime.Duration(t[0]), g: t[1], delta: t[2]})
	}
	return sk
}
