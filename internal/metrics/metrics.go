// Package metrics summarizes traces into the quantities the paper's
// evaluation discusses: which jobs finished, which missed their
// deadlines, which were stopped, and the observed response times. It
// works from the trace log alone, so the cmd tools can analyze logs
// produced by earlier runs.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// JobRecord reconstructs one job's life from the trace.
type JobRecord struct {
	Task    string
	Q       int64
	Release vtime.Time
	// Begin is the first dispatch (zero Time if never dispatched).
	Begin vtime.Time
	// End is the completion or stop instant (zero if still pending
	// at the end of the trace).
	End vtime.Time
	// Detected is true when a detector flagged the job.
	Detected bool
	// Stopped is true when the job terminated on its stop flag.
	Stopped bool
	// MissedDeadline is true when the deadline passed unfinished.
	MissedDeadline bool
	// ended marks a completion or a stop: End is set.
	ended bool
	// Granted is the system-allowance grant, if any.
	Granted vtime.Duration
}

// Failed reports job failure in the paper's sense: a deadline missed
// or a forced stop before completion.
func (j JobRecord) Failed() bool { return j.MissedDeadline || j.Stopped }

// Response returns End − Release for terminated jobs, else 0.
func (j JobRecord) Response() vtime.Duration {
	if !j.ended {
		return 0
	}
	return j.End.Sub(j.Release)
}

// TaskSummary aggregates one task's jobs.
type TaskSummary struct {
	Task     string
	Released int
	Finished int
	Stopped  int
	Missed   int // deadline misses (a stopped job may also miss)
	Failed   int // Missed ∪ Stopped
	Detected int
	// MinResponse, MaxResponse and MeanResponse cover terminated jobs
	// (completions and stops alike, matching the ended set Analyze
	// reconstructs).
	MinResponse  vtime.Duration
	MaxResponse  vtime.Duration
	MeanResponse vtime.Duration

	respSum vtime.Duration
	respN   int64
}

// SuccessRatio is the fraction of released jobs that neither missed
// their deadline nor were stopped.
func (s TaskSummary) SuccessRatio() float64 {
	if s.Released == 0 {
		return 1
	}
	return float64(s.Released-s.Failed) / float64(s.Released)
}

// Report is the full analysis of a trace. Analyze builds it with
// per-job records, indexed per task so that Job and ResponsePercentile
// read only the jobs asked about; Accumulator.Report builds it from
// streaming collection, in which case Jobs is nil and percentile
// queries answer from fixed-size quantile sketches instead of the job
// list.
type Report struct {
	Jobs  []JobRecord
	Tasks map[string]*TaskSummary

	// sketches backs ResponsePercentile for streaming reports.
	sketches map[string]*Sketch
	// byTask indexes Jobs per task for Job and ResponsePercentile on
	// the reports Analyze builds.
	byTask map[string]*taskJobs
}

// Streaming reports whether this report came from streaming
// collection: no per-job records, sketch-backed percentiles.
func (r *Report) Streaming() bool { return r.sketches != nil }

// taskJobs indexes one task's jobs by their job index q, and holds the
// task's summary, which Report.Tasks points at. Positions in
// Report.Jobs are stored plus one (int32: a log of 2^31 jobs would
// take 100 GB), so zero marks a gap. Indices from base, the first q
// seen, up to about twice the task's job count live in the dense
// slice; an index below base or far beyond the jobs seen goes to the
// sparse map, so a decoded log with a scattered or huge q (1<<40)
// costs memory per job, never per q. A sparse job stays in the map
// when the dense window later grows over its index, so a gap in the
// slice is looked up in the map too.
type taskJobs struct {
	sum    TaskSummary
	base   int64
	dense  []int32
	sparse map[int64]int32
	jobs   int
}

// denseSlack lets a task's dense window reach this many indices past
// twice its job count.
const denseSlack = 64

// find returns the position in Report.Jobs of job q.
func (t *taskJobs) find(q int64) (int, bool) {
	if d := q - t.base; d >= 0 && d < int64(len(t.dense)) {
		if p := t.dense[d]; p != 0 {
			return int(p) - 1, true
		}
	}
	p, ok := t.sparse[q]
	return int(p) - 1, ok
}

// add records that job q sits at position pos of Report.Jobs.
func (t *taskJobs) add(q int64, pos int) {
	t.jobs++
	d := q - t.base
	if d >= 0 && d < 2*int64(t.jobs)+denseSlack {
		if n := d + 1 - int64(len(t.dense)); n > 0 {
			t.dense = append(t.dense, make([]int32, n)...)
		}
		t.dense[d] = int32(pos + 1)
		return
	}
	if t.sparse == nil {
		t.sparse = map[int64]int32{}
	}
	t.sparse[q] = int32(pos + 1)
}

// positions yields the positions in Report.Jobs of the task's jobs,
// in no particular order: ResponsePercentile sorts what it collects.
func (t *taskJobs) positions(yield func(int) bool) {
	for _, p := range t.dense {
		if p != 0 && !yield(int(p)-1) {
			return
		}
	}
	for _, p := range t.sparse { // order-independent: the caller sorts
		if !yield(int(p) - 1) {
			return
		}
	}
}

// Analyze reconstructs jobs and summaries from a trace log. One pass
// over the events builds every record, with no map entry or pointer
// per job, into a job list sized from the log's release count; a
// sequential walk of the records then fills the summaries. Jobs come
// out in order of first appearance. A task's jobs are found through
// its index, and the task through its position in the log's task
// table, so no event's name is hashed.
func Analyze(l *trace.Log) *Report {
	rep := &Report{Tasks: map[string]*TaskSummary{}, byTask: map[string]*taskJobs{}}
	var (
		tasks []*taskJobs    // tasks[i] indexes the task at table index i
		owner []*TaskSummary // owner[i] summarizes Jobs[i]'s task
	)
	if n := l.Releases(); n > 0 {
		rep.Jobs = make([]JobRecord, 0, n)
		owner = make([]*TaskSummary, 0, n)
	}
	for id, e := range l.TaskIndexed() {
		if e.Task == "" || e.Job < 0 {
			continue
		}
		switch e.Kind {
		case trace.JobRelease, trace.JobBegin, trace.JobEnd, trace.JobStopped,
			trace.DeadlineMiss, trace.FaultDetected, trace.AllowanceGrant:
		default:
			continue
		}
		if id >= len(tasks) {
			tasks = append(tasks, make([]*taskJobs, id+1-len(tasks))...)
		}
		t := tasks[id]
		if t == nil {
			t = &taskJobs{sum: TaskSummary{Task: e.Task}, base: e.Job}
			tasks[id] = t
			rep.byTask[e.Task] = t
			rep.Tasks[e.Task] = &t.sum
		}
		pos, ok := t.find(e.Job)
		if !ok {
			pos = len(rep.Jobs)
			rep.Jobs = append(rep.Jobs, JobRecord{Task: e.Task, Q: e.Job})
			owner = append(owner, &t.sum)
			t.add(e.Job, pos)
		}
		j := &rep.Jobs[pos]
		switch e.Kind {
		case trace.JobRelease:
			j.Release = e.At
		case trace.JobBegin:
			j.Begin = e.At
		case trace.JobEnd:
			j.End = e.At
			j.ended = true
		case trace.JobStopped:
			j.End = e.At
			j.ended = true
			j.Stopped = true
		case trace.DeadlineMiss:
			j.MissedDeadline = true
		case trace.FaultDetected:
			j.Detected = true
		case trace.AllowanceGrant:
			j.Granted = vtime.Duration(e.Arg)
		}
	}
	// Summaries in one sequential walk of the records.
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		s := owner[i]
		s.Released++
		if j.ended && !j.Stopped {
			s.Finished++
		}
		if j.Stopped {
			s.Stopped++
		}
		if j.MissedDeadline {
			s.Missed++
		}
		if j.Failed() {
			s.Failed++
		}
		if j.Detected {
			s.Detected++
		}
		if j.ended {
			r := j.Response()
			if r > s.MaxResponse {
				s.MaxResponse = r
			}
			if s.respN == 0 || r < s.MinResponse {
				s.MinResponse = r
			}
			s.respSum += r
			s.respN++
		}
	}
	for _, s := range rep.Tasks {
		if s.respN > 0 {
			s.MeanResponse = s.respSum / vtime.Duration(s.respN)
		}
	}
	return rep
}

// Job returns the record of one job, if present.
func (r *Report) Job(task string, q int64) (JobRecord, bool) {
	if t := r.byTask[task]; t != nil {
		if pos, ok := t.find(q); ok {
			return r.Jobs[pos], true
		}
	}
	return JobRecord{}, false
}

// TaskNames returns the summarized tasks, sorted.
func (r *Report) TaskNames() []string {
	out := make([]string, 0, len(r.Tasks))
	for t := range r.Tasks {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TotalFailed sums failures across tasks.
func (r *Report) TotalFailed() int {
	n := 0
	for _, s := range r.Tasks {
		n += s.Failed
	}
	return n
}

// TotalReleased sums releases across tasks.
func (r *Report) TotalReleased() int {
	n := 0
	for _, s := range r.Tasks {
		n += s.Released
	}
	return n
}

// SuccessRatio is the system-wide fraction of non-failed jobs.
func (r *Report) SuccessRatio() float64 {
	rel := r.TotalReleased()
	if rel == 0 {
		return 1
	}
	return float64(rel-r.TotalFailed()) / float64(rel)
}

// Render prints the per-task table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %8s %7s %7s %9s %12s %12s\n",
		"task", "released", "finished", "stopped", "missed", "failed", "detected", "maxResp", "meanResp")
	for _, name := range r.TaskNames() {
		s := r.Tasks[name]
		fmt.Fprintf(&b, "%-8s %9d %9d %8d %7d %7d %9d %12v %12v\n",
			s.Task, s.Released, s.Finished, s.Stopped, s.Missed, s.Failed, s.Detected, s.MaxResponse, s.MeanResponse)
	}
	fmt.Fprintf(&b, "success ratio: %.4f\n", r.SuccessRatio())
	return b.String()
}

// ResponsePercentile returns the p-th percentile (0 < p <= 100) of
// the task's successful response times — jobs that completed their
// work without being stopped and without missing their deadline —
// using nearest-rank. Failed jobs are excluded: a stopped job's
// "response" is its stop instant and a missed job's is already past
// its deadline, so neither describes the service the task delivered.
// The second result is false when the task has no successful jobs or
// p is out of range.
//
// On a streaming report (see Accumulator) the answer comes from the
// task's quantile sketch: the returned value's rank among the exact
// sorted responses is within ±εn of the nearest-rank target, with
// ε = DefaultSketchEpsilon (or the accumulator's configured bound).
func (r *Report) ResponsePercentile(task string, p float64) (vtime.Duration, bool) {
	if p <= 0 || p > 100 {
		return 0, false
	}
	if r.Streaming() {
		sk, ok := r.sketches[task]
		if !ok {
			return 0, false
		}
		return sk.Query(p / 100)
	}
	t := r.byTask[task]
	if t == nil {
		return 0, false
	}
	resp := make([]vtime.Duration, 0, t.jobs)
	for pos := range t.positions {
		if j := &r.Jobs[pos]; j.ended && !j.Failed() {
			resp = append(resp, j.Response())
		}
	}
	if len(resp) == 0 {
		return 0, false
	}
	slices.Sort(resp)
	rank := int(math.Ceil(p / 100 * float64(len(resp))))
	if rank < 1 {
		rank = 1
	}
	return resp[rank-1], true
}
