// Package taskset defines the periodic task model of the paper: a task
// τi has a cost Ci, a relative deadline Di, a period Ti and a priority
// Pi (RTSJ convention: a larger Pi value means a higher priority). The
// package also provides validation, a text task-file parser (the
// paper's first measurement tool parses such a file and builds the
// tasks automatically) and a deterministic synthetic generator used by
// the extension experiments.
package taskset

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// Task describes one periodic task.
type Task struct {
	// Name identifies the task in traces and charts (e.g. "tau1").
	Name string
	// Priority is the fixed scheduling priority. Larger is higher,
	// following the RTSJ PriorityScheduler convention used in the
	// paper's Table 2 (20 > 18 > 16).
	Priority int
	// Period Ti between successive job releases.
	Period vtime.Duration
	// Deadline Di relative to each release. May exceed the period
	// (arbitrary-deadline model, Lehoczky 1990).
	Deadline vtime.Duration
	// Cost Ci, the declared worst-case execution time used by
	// admission control. Actual per-job execution may exceed it when
	// a fault is injected.
	Cost vtime.Duration
	// Offset delays the first release relative to time zero. The
	// paper's analysis assumes synchronous release (offset 0); the
	// figure scenarios use an offset on τ3 (experiments.FigureSet).
	Offset vtime.Duration
	// Value is the job value used by the value-based overload
	// baselines (Locke best-effort, RED, D-over). Zero means
	// "value equals cost", the usual convention in that literature.
	Value float64
}

// EffectiveValue returns the task's value for value-based policies,
// defaulting to the cost in milliseconds when unset.
func (t Task) EffectiveValue() float64 {
	if t.Value > 0 {
		return t.Value
	}
	return float64(t.Cost) / float64(vtime.Millisecond)
}

// Utilization returns Ci/Ti.
func (t Task) Utilization() float64 {
	if t.Period <= 0 {
		return 0
	}
	return float64(t.Cost) / float64(t.Period)
}

// Validate reports whether the task parameters are well formed.
func (t Task) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("taskset: task has no name")
	case t.Period <= 0:
		return fmt.Errorf("taskset: task %s: period must be positive, got %v", t.Name, t.Period)
	case t.Cost <= 0:
		return fmt.Errorf("taskset: task %s: cost must be positive, got %v", t.Name, t.Cost)
	case t.Deadline <= 0:
		return fmt.Errorf("taskset: task %s: deadline must be positive, got %v", t.Name, t.Deadline)
	case t.Cost > t.Deadline:
		return fmt.Errorf("taskset: task %s: cost %v exceeds deadline %v (trivially infeasible)", t.Name, t.Cost, t.Deadline)
	case t.Offset < 0:
		return fmt.Errorf("taskset: task %s: offset must be non-negative, got %v", t.Name, t.Offset)
	}
	return nil
}

// String renders the task in the paper's table layout.
func (t Task) String() string {
	return fmt.Sprintf("%s{P=%d T=%v D=%v C=%v}", t.Name, t.Priority, t.Period, t.Deadline, t.Cost)
}

// Set is an ordered collection of tasks. The order of the underlying
// slice is preserved as declared; analysis code orders by priority
// itself.
type Set struct {
	Tasks []Task
}

// New builds a Set from tasks, validating each task and the collection
// (unique names, unique priorities — fixed-priority analysis in the
// paper assumes a total priority order).
func New(tasks ...Task) (*Set, error) {
	s := &Set{Tasks: append([]Task(nil), tasks...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New panicking on error, for tests and fixed fixtures.
func MustNew(tasks ...Task) *Set {
	s, err := New(tasks...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks every task and the set-level invariants.
func (s *Set) Validate() error {
	if len(s.Tasks) == 0 {
		return fmt.Errorf("taskset: empty task set")
	}
	names := make(map[string]bool, len(s.Tasks))
	prios := make(map[int]string, len(s.Tasks))
	for _, t := range s.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if names[t.Name] {
			return fmt.Errorf("taskset: duplicate task name %q", t.Name)
		}
		names[t.Name] = true
		if other, dup := prios[t.Priority]; dup {
			return fmt.Errorf("taskset: tasks %q and %q share priority %d; fixed-priority analysis requires a total order", other, t.Name, t.Priority)
		}
		prios[t.Priority] = t.Name
	}
	return nil
}

// Len returns the number of tasks.
func (s *Set) Len() int { return len(s.Tasks) }

// ByName returns the task with the given name, or nil.
func (s *Set) ByName(name string) *Task {
	for i := range s.Tasks {
		if s.Tasks[i].Name == name {
			return &s.Tasks[i]
		}
	}
	return nil
}

// IndexByName returns the index of the named task, or -1.
func (s *Set) IndexByName(name string) int {
	for i := range s.Tasks {
		if s.Tasks[i].Name == name {
			return i
		}
	}
	return -1
}

// ByPriority returns the task indices sorted from highest priority
// (largest Pi) to lowest. The returned slice indexes into s.Tasks.
func (s *Set) ByPriority() []int {
	idx := make([]int, len(s.Tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Tasks[idx[a]].Priority > s.Tasks[idx[b]].Priority
	})
	return idx
}

// HigherOrEqualPriority returns the indices of tasks with priority
// strictly higher than that of task i, in descending priority order.
// This is the HP(S) set of the paper's Figure 2 algorithm (the task
// itself is handled separately by the q-iteration).
func (s *Set) HigherOrEqualPriority(i int) []int {
	var out []int
	for _, j := range s.ByPriority() {
		if j != i && s.Tasks[j].Priority >= s.Tasks[i].Priority {
			out = append(out, j)
		}
	}
	return out
}

// Utilization returns the total system load U = Σ Ci/Ti (paper Eq. 1).
func (s *Set) Utilization() float64 {
	u := 0.0
	for _, t := range s.Tasks {
		u += t.Utilization()
	}
	return u
}

// HyperperiodError names the task on which the hyperperiod
// computation failed: a non-positive period (the LCM is undefined) or
// an LCM exceeding the 2^62 ns overflow guard.
type HyperperiodError struct {
	Task     string         // offending task
	Period   vtime.Duration // its declared period
	Overflow bool           // true: LCM overflow; false: non-positive period
}

func (e *HyperperiodError) Error() string {
	if e.Overflow {
		return fmt.Sprintf("taskset: hyperperiod overflows 2^62 ns at task %q (period %v)", e.Task, e.Period)
	}
	return fmt.Sprintf("taskset: task %q has non-positive period %v; hyperperiod undefined", e.Task, e.Period)
}

// Hyperperiod returns the least common multiple of all periods.
// Offsets are ignored. The error is a *HyperperiodError naming the
// offending task when a period is non-positive (historically such
// tasks were silently skipped, which could zero the whole LCM) or
// when the running LCM would exceed 2^62 ns. An empty set has
// hyperperiod 1 ns (the neutral element).
func (s *Set) Hyperperiod() (vtime.Duration, error) {
	l := int64(1)
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Period <= 0 {
			return 0, &HyperperiodError{Task: t.Name, Period: t.Period}
		}
		g := gcd(l, int64(t.Period))
		step := int64(t.Period) / g
		if l > (1<<62)/step {
			return 0, &HyperperiodError{Task: t.Name, Period: t.Period, Overflow: true}
		}
		l *= step
	}
	return vtime.Duration(l), nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	return &Set{Tasks: append([]Task(nil), s.Tasks...)}
}

// WithCostDelta returns a copy of the set in which every task's cost is
// increased by delta. Used by the allowance binary search (paper §4.2).
func (s *Set) WithCostDelta(delta vtime.Duration) *Set {
	c := s.Clone()
	for i := range c.Tasks {
		c.Tasks[i].Cost += delta
	}
	return c
}

// WithTaskCostDelta returns a copy of the set in which only task i's
// cost is increased by delta. Used by the system-allowance search
// (paper §4.3).
func (s *Set) WithTaskCostDelta(i int, delta vtime.Duration) *Set {
	c := s.Clone()
	c.Tasks[i].Cost += delta
	return c
}

// String renders the set as the paper's task tables do.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("taskset[")
	for i, t := range s.Tasks {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("]")
	return b.String()
}
