package allowance

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// EquitableWithBlocking answers the paper's §7 question — "it would
// be advisable to study the influence of tolerance on the
// determination of the blocking time (bi)" — in the forward
// direction: the equitable allowance of a system whose tasks incur
// the given blocking terms. Blocking consumes slack exactly like
// extra cost at the blocked task's level, so the allowance shrinks
// monotonically with every b_i.
func EquitableWithBlocking(s *taskset.Set, blocking []vtime.Duration, granularity vtime.Duration) (vtime.Duration, error) {
	return checkedSearch(granularity, minSlack(s), func(delta vtime.Duration) bool {
		return feasibleBlocked(s.WithCostDelta(delta), blocking)
	})
}

// MaxBlockingTolerance is the converse direction: the largest uniform
// blocking term every task could incur while the system stays
// feasible *with* the equitable allowance already granted — i.e. how
// much lock contention the §4.2 treatment leaves room for.
func MaxBlockingTolerance(s *taskset.Set, allowanceGrant vtime.Duration, granularity vtime.Duration) (vtime.Duration, error) {
	inflated := s.WithCostDelta(allowanceGrant)
	// A blocking term past Di − Ci puts task i's first job past its
	// deadline.
	return checkedSearch(granularity, minSlack(inflated), func(b vtime.Duration) bool {
		return feasibleBlocked(inflated, uniform(s.Len(), b))
	})
}

// checkedSearch is search after checking that ok holds at 0: a system
// infeasible before any overrun has nothing to grant.
func checkedSearch(granularity, limit vtime.Duration, ok func(vtime.Duration) bool) (vtime.Duration, error) {
	if !ok(0) {
		return 0, errNoGrant
	}
	return search(granularity, limit, ok), nil
}

// uniform returns n copies of b.
func uniform(n int, b vtime.Duration) []vtime.Duration {
	out := make([]vtime.Duration, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func feasibleBlocked(s *taskset.Set, blocking []vtime.Duration) bool {
	for _, t := range s.Tasks {
		if t.Cost > t.Deadline {
			return false
		}
	}
	// An error means a response is unbounded at some level:
	// infeasible.
	ok, err := analysis.FeasibleWithBlocking(s, blocking)
	return err == nil && ok
}

// BlockingTable reports, for a range of uniform blocking terms, the
// equitable allowance that survives — the §7 interaction quantified.
type BlockingTable struct {
	Blocking  []vtime.Duration
	Allowance []vtime.Duration
}

// SweepBlocking computes the allowance at each uniform blocking term
// in steps of step up to max. Entries where the system is infeasible
// even without any overrun carry a -1 sentinel.
func SweepBlocking(s *taskset.Set, max, step vtime.Duration, granularity vtime.Duration) (*BlockingTable, error) {
	if step <= 0 {
		return nil, fmt.Errorf("allowance: step must be positive")
	}
	var tab BlockingTable
	for b := vtime.Duration(0); b <= max; b += step {
		blocking := uniform(s.Len(), b)
		a, err := checkedSearch(granularity, minSlack(s), func(delta vtime.Duration) bool {
			return feasibleBlocked(s.WithCostDelta(delta), blocking)
		})
		if err != nil {
			a = -1
		}
		tab.Blocking = append(tab.Blocking, b)
		tab.Allowance = append(tab.Allowance, a)
	}
	return &tab, nil
}
