// Package analysis implements the admission control of the paper's
// Section 2: the load test (Eq. 1), the classical utilization bounds,
// and the exact worst-case response time computation of Figure 2 —
// the fixed-priority preemptive response-time analysis generalized by
// Lehoczky to deadlines larger than periods. These are the "deficient
// methods of RI and missing ones in jRate" that the paper implements.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// ErrUnbounded is returned when a response time diverges (the level-i
// busy period never closes because the relevant load is >= 1).
var ErrUnbounded = fmt.Errorf("analysis: response time unbounded (load at this priority level >= 1)")

// maxIterations bounds the fixed-point and job iterations defensively;
// with the load guard it should never trigger on valid inputs.
const maxIterations = 1 << 20

// WCResponseTime implements the paper's Figure 2 verbatim: the worst
// case response time of task i in set s under fixed-priority
// preemptive scheduling, with arbitrary deadlines. It iterates over
// the successive jobs q = 0, 1, ... of the level-i busy period started
// at the critical instant; for each job it solves the fixed point
//
//	R_q = (q+1)·Ci + Σ_{j ∈ HP(i)} ⌈R_q/Tj⌉·Cj
//
// and it stops at the first q whose completion R_q ≤ (q+1)·Ti, i.e.
// the first job not pushing work onto its successor. The result is
// max_q (R_q − q·Ti). An optional blocking term (from shared
// resources, paper §7) is added once to every job's demand.
func WCResponseTime(s *taskset.Set, i int, blocking vtime.Duration) (vtime.Duration, error) {
	if i < 0 || i >= s.Len() {
		return 0, fmt.Errorf("analysis: task index %d out of range", i)
	}
	return NewAnalyzer(s).response(i, blocking, nil)
}

// JobResponse is the response time of one job within the level-i busy
// period, as charted in the paper's Figure 1.
type JobResponse struct {
	// Q is the 0-based job index within the busy period.
	Q int64
	// Release is the job's release instant relative to the critical
	// instant (q·Ti).
	Release vtime.Duration
	// Completion is the job's completion instant relative to the
	// critical instant (the fixed point R_q).
	Completion vtime.Duration
	// Response = Completion − Release.
	Response vtime.Duration
}

// JobResponseTimes returns the response time of every job of task i in
// the level-i busy period started at the critical instant — the data
// behind the paper's Table 1 / Figure 1 demonstration that, when
// response times may exceed the period, the worst case is not
// necessarily the first job.
func JobResponseTimes(s *taskset.Set, i int, blocking vtime.Duration) ([]JobResponse, error) {
	if i < 0 || i >= s.Len() {
		return nil, fmt.Errorf("analysis: task index %d out of range", i)
	}
	var out []JobResponse
	_, err := NewAnalyzer(s).response(i, blocking, func(q int64, rq vtime.Duration) {
		rel := vtime.Duration(q) * s.Tasks[i].Period
		out = append(out, JobResponse{Q: q, Release: rel, Completion: rq, Response: rq - rel})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResponseTimes computes the WCRT of every task in the set, in the
// set's declared order, sorting the priority order once for the whole
// set. Any task whose response time diverges yields an error naming
// it.
func ResponseTimes(s *taskset.Set) ([]vtime.Duration, error) {
	return NewAnalyzer(s).ResponseTimes()
}

// Utilization returns the system load U = Σ Ci/Ti (paper Eq. 1).
func Utilization(s *taskset.Set) float64 { return s.Utilization() }

// LoadTest applies the paper's Section 2.1 test: U > 1 means not
// feasible; otherwise the load condition alone is inconclusive.
func LoadTest(s *taskset.Set) Verdict {
	if s.Utilization() > 1 {
		return VerdictInfeasible
	}
	return VerdictInconclusive
}

// LiuLaylandBound applies the classical rate-monotonic sufficient
// bound U ≤ n(2^{1/n} − 1) (Liu & Layland 1973, [11]). It is only a
// sufficient test and only sound for implicit deadlines (D = T) with
// RM priorities; callers needing an exact answer use response times.
func LiuLaylandBound(s *taskset.Set) Verdict {
	n := float64(s.Len())
	bound := n * (math.Pow(2, 1/n) - 1)
	if s.Utilization() <= bound {
		return VerdictFeasible
	}
	return VerdictInconclusive
}

// HyperbolicBound applies Bini & Buttazzo's hyperbolic test [2]:
// Π(Ui + 1) ≤ 2 is sufficient for RM with implicit deadlines, and
// strictly dominates the Liu–Layland bound.
func HyperbolicBound(s *taskset.Set) Verdict {
	p := 1.0
	for _, t := range s.Tasks {
		p *= t.Utilization() + 1
	}
	if p <= 2 {
		return VerdictFeasible
	}
	return VerdictInconclusive
}

// Verdict is the outcome of a feasibility test.
type Verdict int

// Verdict values. Sufficient-only tests never return
// VerdictInfeasible; necessary-only tests never return
// VerdictFeasible.
const (
	VerdictInconclusive Verdict = iota
	VerdictFeasible
	VerdictInfeasible
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictFeasible:
		return "feasible"
	case VerdictInfeasible:
		return "infeasible"
	default:
		return "inconclusive"
	}
}

// WCRTConstrained is the constrained-deadline (D ≤ T) fast path — the
// Joseph–Pandya recurrence, which the paper's Figure 2 algorithm
// reduces to when the q = 0 job already completes within its period.
// It errors if the task's deadline exceeds its period (callers should
// use WCResponseTime there).
func WCRTConstrained(s *taskset.Set, i int, blocking vtime.Duration) (vtime.Duration, error) {
	if i < 0 || i >= s.Len() {
		return 0, fmt.Errorf("analysis: task index %d out of range", i)
	}
	t := s.Tasks[i]
	if t.Deadline > t.Period {
		return 0, fmt.Errorf("analysis: task %s has D > T; use WCResponseTime", t.Name)
	}
	// With D ≤ T a response beyond the period is already a deadline
	// miss; report the fixed point regardless so the caller compares
	// against D (matching the general algorithm's q = 0 value).
	return NewAnalyzer(s).completion(i, t.Cost+blocking)
}
