package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// Analyzer runs the Figure 2 analysis on one task set while its cost
// vector changes between calls — the allowance searches probe many
// cost vectors of one set. It sorts the priority order once, at
// construction, and reads the set's periods, deadlines and priorities
// from then on, so the set must not change while the Analyzer is in
// use. An Analyzer is not safe for concurrent use.
type Analyzer struct {
	tasks []taskset.Task
	// Cost is the cost vector analysed, in set order. NewAnalyzer
	// fills it with the declared costs; callers edit it between calls.
	Cost []vtime.Duration
	// order holds the task indices from highest priority to lowest
	// (stable, as Set.ByPriority); the tasks at priority ≥ Pi are the
	// prefix order[:upto[i]].
	order, upto []int
}

// NewAnalyzer returns an Analyzer over s with Cost set to the declared
// costs.
func NewAnalyzer(s *taskset.Set) *Analyzer {
	n := s.Len()
	ints := make([]int, 2*n)
	a := &Analyzer{
		tasks: s.Tasks,
		Cost:  make([]vtime.Duration, n),
		order: ints[:n:n],
		upto:  ints[n:],
	}
	for i, t := range s.Tasks {
		a.Cost[i] = t.Cost
		a.order[i] = i
	}
	slices.SortStableFunc(a.order, func(x, y int) int {
		return cmp.Compare(s.Tasks[y].Priority, s.Tasks[x].Priority)
	})
	for k := 0; k < n; {
		p := s.Tasks[a.order[k]].Priority
		end := k
		for end < n && s.Tasks[a.order[end]].Priority == p {
			end++
		}
		for _, j := range a.order[k:end] {
			a.upto[j] = end
		}
		k = end
	}
	return a
}

// ResponseTimes computes every task's WCRT at the current costs, in
// set order, as the package-level ResponseTimes does.
func (a *Analyzer) ResponseTimes() ([]vtime.Duration, error) {
	out := make([]vtime.Duration, len(a.tasks))
	for i := range a.tasks {
		r, err := a.response(i, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("analysis: task %s: %w", a.tasks[i].Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// Feasible reports whether the set is feasible at the current costs:
// the total load must not exceed 1 and every task's WCRT must be
// within its deadline. A diverging response is infeasible.
func (a *Analyzer) Feasible() bool {
	u := 0.0
	for i := range a.tasks {
		u += utilization(a.Cost[i], a.tasks[i].Period)
	}
	if u > 1 {
		return false
	}
	for i := range a.tasks {
		r, err := a.response(i, 0, nil)
		if err != nil || r > a.tasks[i].Deadline {
			return false
		}
	}
	return true
}

// response runs the Figure 2 iteration for task i at the current
// costs and returns its WCRT. visit, when non-nil, receives every
// job's completion.
func (a *Analyzer) response(i int, blocking vtime.Duration, visit func(q int64, rq vtime.Duration)) (vtime.Duration, error) {
	// Divergence guard: the busy period closes iff the utilization of
	// the task plus all higher-priority tasks is < 1, or equals 1 with
	// a completion landing exactly on a period boundary. We allow
	// load == 1 (the paper's Table 1 system has U exactly 1) and rely
	// on the per-job test, but bail out if load > 1.
	self := &a.tasks[i]
	ci := a.Cost[i]
	load := utilization(ci, self.Period)
	for _, j := range a.order[:a.upto[i]] {
		if j != i {
			load += utilization(a.Cost[j], a.tasks[j].Period)
		}
	}
	if load > 1 {
		return 0, ErrUnbounded
	}
	var wcrt vtime.Duration
	for q := int64(0); ; q++ {
		if q >= maxIterations {
			return 0, ErrUnbounded
		}
		r, err := a.completion(i, vtime.Duration(q+1)*ci+blocking)
		if err != nil {
			return 0, err
		}
		if visit != nil {
			visit(q, r)
		}
		release := vtime.Duration(q) * self.Period
		wcrt = max(wcrt, r-release)
		if r <= vtime.Duration(q+1)*self.Period {
			return wcrt, nil
		}
	}
}

// completion solves the fixed point R = work + Σ_{j ∈ HP(i)} ⌈R/Tj⌉·Cj
// for the completion of one job of task i (work is the job's own
// demand), iterating up from R = work.
func (a *Analyzer) completion(i int, work vtime.Duration) (vtime.Duration, error) {
	hp := a.order[:a.upto[i]]
	r := work
	for iter := 0; ; iter++ {
		if iter >= maxIterations {
			return 0, ErrUnbounded
		}
		next := work
		for _, j := range hp {
			if j != i {
				next += ceilDiv(r, a.tasks[j].Period) * a.Cost[j]
			}
		}
		if next == r {
			return r, nil
		}
		r = next
	}
}

// utilization is Task.Utilization at cost c.
func utilization(c, period vtime.Duration) float64 {
	if period <= 0 {
		return 0
	}
	return float64(c) / float64(period)
}

// ceilDiv returns ⌈a/b⌉ for positive b, as a Duration count.
func ceilDiv(a, b vtime.Duration) vtime.Duration {
	if a <= 0 {
		return 0
	}
	return vtime.Duration((int64(a) + int64(b) - 1) / int64(b))
}
