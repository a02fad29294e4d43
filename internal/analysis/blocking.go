package analysis

import (
	"errors"
	"fmt"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// The paper's §7 notes that shared resources introduce a blocking
// time bi into the response-time analysis and asks how the tolerance
// interacts with it. The functions here extend the Figure 2 analysis
// with per-task blocking terms (computed, e.g., under the priority
// ceiling protocol: at most one critical section of one
// lower-priority task per job), so the allowance package can answer
// that question quantitatively.

// ResponseTimesWithBlocking computes every task's WCRT with the given
// per-task blocking term added once to each job's demand (the
// standard b_i treatment for priority-ceiling style protocols).
// blocking must have one entry per task in set order; nil means no
// blocking anywhere.
func ResponseTimesWithBlocking(s *taskset.Set, blocking []vtime.Duration) ([]vtime.Duration, error) {
	if blocking != nil && len(blocking) != s.Len() {
		return nil, fmt.Errorf("analysis: blocking has %d entries for %d tasks", len(blocking), s.Len())
	}
	a := NewAnalyzer(s)
	out := make([]vtime.Duration, s.Len())
	for i := range s.Tasks {
		var b vtime.Duration
		if blocking != nil {
			b = blocking[i]
		}
		r, err := a.response(i, b, nil)
		if err != nil {
			return nil, fmt.Errorf("analysis: task %s: %w", s.Tasks[i].Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// FeasibleWithBlocking runs the admission control with blocking
// terms: WCRT_i(b_i) ≤ D_i for every task.
func FeasibleWithBlocking(s *taskset.Set, blocking []vtime.Duration) (bool, error) {
	if s.Utilization() > 1 {
		return false, nil
	}
	wcrt, err := ResponseTimesWithBlocking(s, blocking)
	if err != nil {
		if errors.Is(err, ErrUnbounded) {
			return false, nil
		}
		return false, err
	}
	for i, t := range s.Tasks {
		if wcrt[i] > t.Deadline {
			return false, nil
		}
	}
	return true, nil
}

// CeilingBlocking derives per-task blocking terms for a priority
// ceiling protocol from critical-section lengths: task i can be
// blocked by at most one critical section of one lower-priority task
// whose resource ceiling reaches i's priority. Given each task's
// longest critical section (cs, set order; zero = takes no locks) and
// assuming every resource is shared by all tasks (the most
// pessimistic ceiling), b_i = max over lower-priority j of cs_j. The
// lowest-priority task is never blocked.
func CeilingBlocking(s *taskset.Set, cs []vtime.Duration) ([]vtime.Duration, error) {
	if len(cs) != s.Len() {
		return nil, fmt.Errorf("analysis: cs has %d entries for %d tasks", len(cs), s.Len())
	}
	out := make([]vtime.Duration, s.Len())
	for i, ti := range s.Tasks {
		for j, tj := range s.Tasks {
			if tj.Priority < ti.Priority && cs[j] > out[i] {
				out[i] = cs[j]
			}
		}
	}
	return out, nil
}
