// Package allowance computes the paper's tolerance factors (§4.2 and
// §4.3): how much extra cost the tasks can absorb while the system
// remains theoretically feasible. The equitable allowance is the
// maximum Δ addable to *every* task cost; the system allowance is the
// maximum overrun a *single* task may make, granted entirely to the
// first faulty task with the leftover redistributed to later ones.
package allowance

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// DefaultGranularity is the search resolution. The paper works in
// whole milliseconds (Table 2 reports A = 11 ms); finer searches are
// possible but pointless below the platform timer resolution.
const DefaultGranularity = vtime.Millisecond

// Equitable performs the paper's §4.2 computation: a binary search for
// the maximum value that can be added to the costs of all the tasks so
// that the system remains feasible under the Figure 2 analysis. The
// granularity bounds the search resolution (0 means
// DefaultGranularity). It fails when the system is not feasible.
func Equitable(s *taskset.Set, granularity vtime.Duration) (vtime.Duration, error) {
	t, err := admit(s, granularity)
	if err != nil {
		return 0, err
	}
	return t.Equitable(), nil
}

// MaxOverrun returns the maximum cost overrun task i alone can make
// while the whole system stays feasible — the per-task bound behind
// the §4.3 system allowance ("looking for the maximum cost overrun
// this task can do"). It fails when the system is not feasible.
func MaxOverrun(s *taskset.Set, i int, granularity vtime.Duration) (vtime.Duration, error) {
	if i < 0 || i >= s.Len() {
		return 0, fmt.Errorf("allowance: task index %d out of range", i)
	}
	t, err := admit(s, granularity)
	if err != nil {
		return 0, err
	}
	return t.maxOverrun(analysis.NewAnalyzer(t.set), i), nil
}

// System computes the §4.3 system allowance: each task's MaxOverrun,
// in set order. The paper grants the first faulty task its own
// MaxOverrun, the largest overrun it can make in full while every
// task stays feasible; for Table 2 the highest-priority task's is the
// "maximum free time available in the system" the paper quotes
// (33 ms). It fails when the system is not feasible.
func System(s *taskset.Set, granularity vtime.Duration) ([]vtime.Duration, error) {
	t, err := admit(s, granularity)
	if err != nil {
		return nil, err
	}
	return t.MaxOverrun(), nil
}

// errNoGrant refuses an allowance for a system that is infeasible
// before any overrun.
var errNoGrant = errors.New("allowance: system infeasible with no overrun; nothing to grant")

// admit returns a lazy table for s. It fails when s is not a valid
// set, and with errNoGrant when s is not feasible.
func admit(s *taskset.Set, granularity vtime.Duration) (*Table, error) {
	rep, err := analysis.Feasible(s)
	if err != nil {
		return nil, err
	}
	if !rep.Feasible {
		return nil, errNoGrant
	}
	return NewTable(s, rep.WCRT, granularity), nil
}

// search returns the largest multiple of the granularity (0 means
// DefaultGranularity) in [0, limit] at which ok holds. ok must hold at
// 0 and be monotone — false at some delta, false at every larger one —
// and false past limit. The first multiple past limit is then an
// infeasible upper bound, and bisection between 0 and it returns the
// largest feasible multiple whatever order it probes in.
func search(granularity, limit vtime.Duration, ok func(vtime.Duration) bool) vtime.Duration {
	if granularity <= 0 {
		granularity = DefaultGranularity
	}
	// Invariant: ok(lo) holds, ok(hi) fails; both are multiples of the
	// granularity.
	lo, hi := vtime.Duration(0), (limit/granularity+1)*granularity
	for hi-lo > granularity {
		mid := lo + ((hi - lo) / 2).Floor(granularity)
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// minSlack returns min(D − C) over the tasks: past it some cost
// exceeds its deadline.
func minSlack(s *taskset.Set) vtime.Duration {
	limit := vtime.Duration(math.MaxInt64)
	for _, t := range s.Tasks {
		limit = min(limit, t.Deadline-t.Cost)
	}
	return limit
}

// Table is the allowance analysis of one admitted system, used by the
// treatments: per-task WCRT, the equitable allowance and the shifted
// WCRTs of the paper's Table 3, and the per-task maximum overruns for
// the system treatment. The equitable columns and MaxOverrun are each
// computed once, on first read, so a run computes only what its
// treatment reads. A Table is safe for concurrent readers.
type Table struct {
	// WCRT is the nominal worst-case response time per task.
	WCRT []vtime.Duration

	set         *taskset.Set
	granularity vtime.Duration

	eqOnce, maxoOnce sync.Once
	eqDone, maxoDone atomic.Bool
	eq               vtime.Duration
	eqWCRT, maxo     []vtime.Duration
}

// NewTable returns the allowance table of an admitted system s, whose
// admission WCRTs are wcrt, at the given granularity (0 means
// DefaultGranularity). It computes no allowance; each column is
// computed on first read. The table keeps its own copy of s and wcrt.
func NewTable(s *taskset.Set, wcrt []vtime.Duration, granularity vtime.Duration) *Table {
	return &Table{
		WCRT:        slices.Clone(wcrt),
		set:         s.Clone(),
		granularity: granularity,
	}
}

// Compute runs the complete allowance analysis at the given
// granularity (0 means DefaultGranularity): a table with every column
// already computed. It fails when the system is not feasible.
func Compute(s *taskset.Set, granularity vtime.Duration) (*Table, error) {
	t, err := admit(s, granularity)
	if err != nil {
		return nil, err
	}
	t.Equitable()
	t.MaxOverrun()
	return t, nil
}

// Equitable is the per-task allowance Δ of §4.2 (a single value, equal
// for all tasks).
func (t *Table) Equitable() vtime.Duration {
	t.eqOnce.Do(t.computeEquitable)
	return t.eq
}

// EquitableWCRT is the worst-case response time of each task when
// every task overruns by Equitable — the paper's Table 3 values
// WCRT_i + Σ_{j: Pj ≥ Pi} A. Detectors under the equitable treatment
// fire at these offsets. The slice is shared; do not modify it.
func (t *Table) EquitableWCRT() []vtime.Duration {
	t.eqOnce.Do(t.computeEquitable)
	return t.eqWCRT
}

// MaxOverrun is the §4.3 per-task maximum single-task overrun;
// MaxOverrun of the highest-priority task is the paper's "maximum
// free time available in the system" (33 ms for Table 2). The slice is
// shared; do not modify it.
func (t *Table) MaxOverrun() []vtime.Duration {
	t.maxoOnce.Do(func() {
		a := analysis.NewAnalyzer(t.set)
		t.maxo = make([]vtime.Duration, t.set.Len())
		for i := range t.maxo {
			t.maxo[i] = t.maxOverrun(a, i)
		}
		t.maxoDone.Store(true)
	})
	return t.maxo
}

// Computed reports which lazily computed columns have been read so
// far: the equitable pair (Equitable, EquitableWCRT) and MaxOverrun.
func (t *Table) Computed() (equitable, maxOverrun bool) {
	return t.eqDone.Load(), t.maxoDone.Load()
}

// computeEquitable searches the largest Δ addable to every cost. Past
// min(D − C) some cost exceeds its deadline, which bounds the search.
func (t *Table) computeEquitable() {
	a := analysis.NewAnalyzer(t.set)
	setDelta := func(delta vtime.Duration) {
		for i, task := range t.set.Tasks {
			a.Cost[i] = task.Cost + delta
		}
	}
	t.eq = search(t.granularity, minSlack(t.set), func(delta vtime.Duration) bool {
		setDelta(delta)
		return a.Feasible()
	})
	setDelta(t.eq)
	// The set is feasible at Equitable, so every response is bounded.
	t.eqWCRT, _ = a.ResponseTimes()
	t.eqDone.Store(true)
}

// maxOverrun searches the largest overrun of task i alone on a, whose
// costs are the declared ones, and leaves them so. Past Di − Ci task
// i's cost exceeds its deadline, which bounds the search.
func (t *Table) maxOverrun(a *analysis.Analyzer, i int) vtime.Duration {
	task := t.set.Tasks[i]
	m := search(t.granularity, task.Deadline-task.Cost, func(delta vtime.Duration) bool {
		a.Cost[i] = task.Cost + delta
		return a.Feasible()
	})
	a.Cost[i] = task.Cost
	return m
}
