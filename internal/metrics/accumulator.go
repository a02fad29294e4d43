package metrics

import (
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Accumulator is the streaming counterpart of Analyze: it consumes
// trace events one at a time (it implements trace.Sink, so the engine
// can feed it directly in streaming collection mode) and maintains
// per-task counts, success ratios, response min/mean/max and an
// ε-approximate response-time quantile sketch — without retaining
// jobs or events. Transient per-job state is kept only for jobs that
// have not yet terminated, so memory is bounded by the live-job
// backlog, not the horizon.
//
// For any event sequence the engine emits, Report() agrees with
// Analyze on every TaskSummary field exactly; percentiles answer from
// the sketch within DefaultSketchEpsilon rank error (both pinned by
// the cross-mode equivalence tests). Like Analyze, the per-job event
// order assumed is the engine's: a job's terminal event (end or stop)
// is its last.
type Accumulator struct {
	eps float64
	// tasks holds one record per task name: an event costs one lookup
	// here and a short scan of the task's live jobs, and a job
	// allocates nothing.
	tasks map[string]*taskAcc
	// marked is set by the first CycleMark: cycle tracking backs the
	// engine's steady-state fast-forward (engine.CycleObserver), and
	// until a mark plain runs keep no per-cycle sketches.
	marked bool
}

// taskAcc is one task's accumulated state.
type taskAcc struct {
	sum TaskSummary
	// reported is false while the task is known only from a restored
	// or absorbed live job; it joins Report and State with its first
	// summarized event.
	reported bool
	sketch   *Sketch // successful responses (nil until the first)
	// base is the task's counter snapshot at the last CycleMark and
	// cycle the sketch of its successful responses since (nil =
	// empty): when the engine proves the next boundary revisits the
	// marked state, the deltas and the cycle sketch describe exactly
	// one hyperperiod cycle.
	base  cycleBase
	cycle *Sketch
	live  liveJobs
}

// cycleBase is a task's counter snapshot at the last CycleMark.
type cycleBase struct {
	released, finished, stopped, missed, failed, detected int
	respSum                                               vtime.Duration
	respN                                                 int64
}

// liveJob is the transient state of a job seen but not yet
// terminated: exactly what summarizing its terminal event requires.
type liveJob struct {
	q        int64
	release  vtime.Time
	missed   bool
	detected bool
}

// liveJobs is one task's live jobs in ascending q, jobs[head:]. A
// task's backlog is short, and its jobs terminate in release order
// except for a job dropped at its release (the newest), so removals
// are at the front — a consumed prefix compacted amortizedly, like
// the engine's pending queue — or at the back. Any order stays
// correct, if slower.
type liveJobs struct {
	jobs []liveJob
	head int
}

func (l *liveJobs) len() int { return len(l.jobs) - l.head }

// find returns the index of job q and true, or the index at which to
// insert it and false.
func (l *liveJobs) find(q int64) (int, bool) {
	lo, hi := l.head, len(l.jobs)
	if lo < hi && l.jobs[hi-1].q < q {
		return hi, false // a release: past every live job
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.jobs[mid].q < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.jobs) && l.jobs[lo].q == q
}

// insert places j at index i, as returned by find.
func (l *liveJobs) insert(i int, j liveJob) {
	l.jobs = append(l.jobs, liveJob{})
	copy(l.jobs[i+1:], l.jobs[i:])
	l.jobs[i] = j
}

// remove deletes the job at index i.
func (l *liveJobs) remove(i int) {
	if i != l.head {
		l.jobs = append(l.jobs[:i], l.jobs[i+1:]...)
		return
	}
	l.head++
	if l.head == len(l.jobs) {
		l.jobs, l.head = l.jobs[:0], 0
	} else if l.head >= 32 && l.head*2 >= len(l.jobs) {
		l.jobs, l.head = l.jobs[:copy(l.jobs, l.jobs[l.head:])], 0
	}
}

// NewAccumulator returns an empty accumulator using the default
// sketch error bound.
func NewAccumulator() *Accumulator { return NewAccumulatorEpsilon(DefaultSketchEpsilon) }

// NewAccumulatorEpsilon returns an empty accumulator whose percentile
// sketches carry rank-error bound eps.
func NewAccumulatorEpsilon(eps float64) *Accumulator {
	return &Accumulator{eps: eps, tasks: map[string]*taskAcc{}}
}

// record returns task's record, creating it on first sight.
func (a *Accumulator) record(task string) *taskAcc {
	r, ok := a.tasks[task]
	if !ok {
		r = &taskAcc{sum: TaskSummary{Task: task}}
		a.tasks[task] = r
	}
	return r
}

// Append consumes one trace event (trace.Sink).
func (a *Accumulator) Append(e trace.Event) {
	if e.Task == "" || e.Job < 0 {
		return
	}
	// Only the event kinds Analyze folds into job records may create
	// one here; scheduler detail (begin/preempt/resume, detector
	// releases) must not inflate the released count.
	switch e.Kind {
	case trace.JobRelease, trace.JobBegin, trace.JobEnd, trace.JobStopped,
		trace.DeadlineMiss, trace.FaultDetected, trace.AllowanceGrant:
	default:
		return
	}
	r := a.record(e.Task)
	r.reported = true
	i, ok := r.live.find(e.Job)
	if !ok {
		// First sight of the job counts it as released, mirroring
		// Analyze's distinct-job accounting.
		r.live.insert(i, liveJob{q: e.Job})
		r.sum.Released++
	}
	lj := &r.live.jobs[i]
	switch e.Kind {
	case trace.JobRelease:
		lj.release = e.At
	case trace.JobEnd:
		a.terminate(r, i, e.At, false)
	case trace.JobStopped:
		a.terminate(r, i, e.At, true)
	case trace.DeadlineMiss:
		if !lj.missed {
			lj.missed = true
			r.sum.Missed++
			r.sum.Failed++
		}
	case trace.FaultDetected:
		if !lj.detected {
			lj.detected = true
			r.sum.Detected++
		}
	}
}

// terminate folds the terminal event of r's live job i into the task
// summary and drops the job.
func (a *Accumulator) terminate(r *taskAcc, i int, at vtime.Time, stopped bool) {
	lj := r.live.jobs[i]
	s := &r.sum
	resp := at.Sub(lj.release)
	if stopped {
		s.Stopped++
		if !lj.missed {
			// A deadline miss has already been counted as the job's
			// failure; otherwise the stop is it.
			s.Failed++
		}
	} else {
		s.Finished++
	}
	if resp > s.MaxResponse {
		s.MaxResponse = resp
	}
	if s.respN == 0 || resp < s.MinResponse {
		s.MinResponse = resp
	}
	s.respSum += resp
	s.respN++
	if !stopped && !lj.missed {
		// The percentile sketch covers successful responses only,
		// matching ResponsePercentile's exact path.
		if r.sketch == nil {
			r.sketch = NewSketch(a.eps)
		}
		r.sketch.Add(resp)
		if a.marked {
			if r.cycle == nil {
				r.cycle = NewSketch(a.eps)
			}
			r.cycle.Add(resp)
		}
	}
	r.live.remove(i)
}

// CycleMark records a hyperperiod boundary (engine.CycleObserver): it
// snapshots every task's counters and starts a fresh per-cycle sketch,
// so that if the engine proves the next boundary revisits this exact
// state, the counter deltas and cycle sketches describe one full cycle.
func (a *Accumulator) CycleMark() {
	a.marked = true
	for _, r := range a.tasks {
		s := &r.sum
		r.base = cycleBase{
			released: s.Released, finished: s.Finished, stopped: s.Stopped,
			missed: s.Missed, failed: s.Failed, detected: s.Detected,
			respSum: s.respSum, respN: s.respN,
		}
		if r.cycle != nil {
			r.cycle.reset()
		}
	}
}

// ExtrapolateCycles folds k additional cycles of length h into the
// summaries (engine.CycleObserver), where one cycle is the delta since
// the last CycleMark: counters and response-moment sums scale
// linearly (so Released/Finished/…/MeanResponse stay exact — the
// simulated cycle already contributed the Min/Max extremes), the
// per-cycle sketch is scale-merged k-fold (ε-preserving, see
// Sketch.ScaleMerge) and folded into the main sketch with a single
// Merge — so percentile bounds widen by exactly one additive merge
// (2ε total), independent of k. Live jobs — the backlog crossing the
// boundary — are re-keyed into the post-jump cycle: job index
// advanced by k·jobsPerCycle of their task, release shifted by k·h,
// matching the engine's own state jump.
func (a *Accumulator) ExtrapolateCycles(k int64, h vtime.Duration, jobsPerCycle map[string]int64) {
	if k <= 0 || !a.marked {
		return
	}
	ki := int(k)
	shift := vtime.Duration(k) * h
	for name, r := range a.tasks {
		s, b := &r.sum, r.base
		s.Released += ki * (s.Released - b.released)
		s.Finished += ki * (s.Finished - b.finished)
		s.Stopped += ki * (s.Stopped - b.stopped)
		s.Missed += ki * (s.Missed - b.missed)
		s.Failed += ki * (s.Failed - b.failed)
		s.Detected += ki * (s.Detected - b.detected)
		s.respSum += vtime.Duration(k) * (s.respSum - b.respSum)
		s.respN += k * (s.respN - b.respN)
		if cs := r.cycle; cs != nil && cs.N() > 0 {
			cs.ScaleMerge(k)
			if r.sketch == nil {
				r.sketch = NewSketch(a.eps)
			}
			r.sketch.Merge(cs)
			r.cycle = nil
		}
		dq := k * jobsPerCycle[name]
		for i := r.live.head; i < len(r.live.jobs); i++ {
			lj := &r.live.jobs[i]
			lj.q += dq
			lj.release = lj.release.Add(shift)
		}
	}
}

// Live returns the number of jobs currently tracked as released but
// not terminated — the accumulator's only horizon-dependent state,
// bounded by the scheduling backlog.
func (a *Accumulator) Live() int {
	n := 0
	for _, r := range a.tasks {
		n += r.live.len()
	}
	return n
}

// Report snapshots the accumulated summaries as a *Report. The report
// carries no per-job records (Jobs is nil); ResponsePercentile
// answers from the quantile sketches instead. Report may be called
// repeatedly (e.g. mid-run for progress and again at the end) — the
// returned report is a true snapshot: summaries and sketches are
// copies, unaffected by events accumulated afterwards.
func (a *Accumulator) Report() *Report {
	rep := &Report{
		Tasks:    make(map[string]*TaskSummary, len(a.tasks)),
		sketches: make(map[string]*Sketch, len(a.tasks)),
	}
	for name, r := range a.tasks {
		if !r.reported {
			continue
		}
		c := r.sum
		if c.respN > 0 {
			c.MeanResponse = c.respSum / vtime.Duration(c.respN)
		}
		rep.Tasks[name] = &c
		if r.sketch != nil {
			rep.sketches[name] = r.sketch.Clone()
		}
	}
	return rep
}
