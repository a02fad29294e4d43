package allowance_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/verify/gen"
	"repro/internal/vtime"
)

// The reference below is the allowance analysis as it stood before
// the tables became lazy: the Figure 2 analysis re-sorting the
// priority order per task, and each allowance found by a doubling
// probe for an infeasible bound followed by a bisection, each probe
// analysing a cloned set in full. TestTableMatchesReference pins every
// column of the current analysis to it.

func refJobCompletion(s *taskset.Set, i int, hp []int, q int64) (vtime.Duration, bool) {
	work := vtime.Duration(q+1) * s.Tasks[i].Cost
	r := work
	for iter := 0; iter < 1<<20; iter++ {
		next := work
		for _, j := range hp {
			next += refCeilDiv(r, s.Tasks[j].Period) * s.Tasks[j].Cost
		}
		if next == r {
			return r, true
		}
		r = next
	}
	return 0, false
}

func refCeilDiv(a, b vtime.Duration) vtime.Duration {
	if a <= 0 {
		return 0
	}
	return vtime.Duration((int64(a) + int64(b) - 1) / int64(b))
}

// refWCRT also reports how many jobs the level-i busy period holds.
func refWCRT(s *taskset.Set, i int) (wcrt vtime.Duration, jobs int64, ok bool) {
	hp := s.HigherOrEqualPriority(i)
	load := s.Tasks[i].Utilization()
	for _, j := range hp {
		load += s.Tasks[j].Utilization()
	}
	if load > 1 {
		return 0, 0, false
	}
	self := s.Tasks[i]
	for q := int64(0); q < 1<<20; q++ {
		rq, ok := refJobCompletion(s, i, hp, q)
		if !ok {
			return 0, 0, false
		}
		wcrt = max(wcrt, rq-vtime.Duration(q)*self.Period)
		if rq <= vtime.Duration(q+1)*self.Period {
			return wcrt, q + 1, true
		}
	}
	return 0, 0, false
}

func refResponseTimes(s *taskset.Set) ([]vtime.Duration, bool) {
	out := make([]vtime.Duration, s.Len())
	for i := range s.Tasks {
		r, _, ok := refWCRT(s, i)
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

func refFeasible(s *taskset.Set) bool {
	for _, t := range s.Tasks {
		if t.Cost > t.Deadline {
			return false
		}
	}
	if s.Utilization() > 1 {
		return false
	}
	wcrt, ok := refResponseTimes(s)
	if !ok {
		return false
	}
	for i, t := range s.Tasks {
		if wcrt[i] > t.Deadline {
			return false
		}
	}
	return true
}

func refSearch(granularity vtime.Duration, ok func(vtime.Duration) bool) (vtime.Duration, error) {
	if granularity <= 0 {
		granularity = allowance.DefaultGranularity
	}
	if !ok(0) {
		return 0, fmt.Errorf("infeasible with no overrun")
	}
	hi := granularity
	for ok(hi) {
		if hi > vtime.Duration(1)<<50 {
			return 0, fmt.Errorf("allowance appears unbounded")
		}
		hi *= 2
	}
	lo := vtime.Duration(0)
	for hi-lo > granularity {
		mid := lo + ((hi - lo) / 2).Floor(granularity)
		if mid <= lo {
			mid = lo + granularity
		}
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

type refTable struct {
	wcrt, eqWCRT, maxo []vtime.Duration
	eq                 vtime.Duration
}

func refCompute(s *taskset.Set, granularity vtime.Duration) (*refTable, error) {
	wcrt, ok := refResponseTimes(s)
	if !ok {
		return nil, fmt.Errorf("unbounded")
	}
	eq, err := refSearch(granularity, func(d vtime.Duration) bool { return refFeasible(s.WithCostDelta(d)) })
	if err != nil {
		return nil, err
	}
	eqWCRT, _ := refResponseTimes(s.WithCostDelta(eq))
	maxo := make([]vtime.Duration, s.Len())
	for i := range s.Tasks {
		if maxo[i], err = refSearch(granularity, func(d vtime.Duration) bool {
			return refFeasible(s.WithTaskCostDelta(i, d))
		}); err != nil {
			return nil, err
		}
	}
	return &refTable{wcrt: wcrt, eq: eq, eqWCRT: eqWCRT, maxo: maxo}, nil
}

// propertySets returns the admitted sets the property test covers:
// the verify generator's admitted scenarios, taskset.Generator sets
// of 2–20 tasks with constrained deadlines, arbitrary-deadline sets
// (deadlines stretched to 1–3 periods), and the paper's Table 1.
func propertySets(t *testing.T) (sets []*taskset.Set, multiJob int) {
	t.Helper()
	admit := func(s *taskset.Set) {
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			sets = append(sets, s)
		}
	}
	for seed := uint64(1); seed <= 600; seed++ {
		sc := gen.Scenario(seed)
		if sc.SkipAdmission || sc.CPUs > 1 {
			continue
		}
		s, err := sc.TaskSet()
		if err != nil {
			t.Fatal(err)
		}
		admit(s)
	}
	r := taskset.NewRand(7)
	for k := 0; k < 600; k++ {
		g := taskset.NewGenerator(r.Uint64())
		g.DeadlineFactor = 0.6 + 0.4*r.Float64()
		s, err := g.Generate(2+r.Intn(19), 0.3+0.65*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		admit(s)
	}
	for k := 0; k < 250; k++ {
		g := taskset.NewGenerator(r.Uint64())
		s, err := g.Generate(2+r.Intn(4), 0.75+0.25*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Tasks {
			stretch := 1 + 2*r.Float64()
			s.Tasks[i].Deadline = vtime.Duration(float64(s.Tasks[i].Period) * stretch).Floor(g.Granularity)
		}
		admit(s)
	}
	admit(taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(6), Deadline: vtime.Millis(6), Cost: vtime.Millis(3)},
		taskset.Task{Name: "tau2", Priority: 15, Period: vtime.Millis(4), Deadline: vtime.Millis(6), Cost: vtime.Millis(2)},
	))
	for _, s := range sets {
		for i := range s.Tasks {
			if _, jobs, _ := refWCRT(s, i); jobs > 1 {
				multiJob++
				break
			}
		}
	}
	return sets, multiJob
}

// TestTableMatchesReference pins every column of the lazy table, and
// of Compute, to the reference search on over 1 000 admitted sets at
// 1 ms and 1 µs granularity: the cheaper analysis changes no value.
func TestTableMatchesReference(t *testing.T) {
	sets, multiJob := propertySets(t)
	if len(sets) < 1000 {
		t.Fatalf("only %d admitted sets; the property needs at least 1000", len(sets))
	}
	if multiJob == 0 {
		t.Fatal("no set has a multi-job busy period")
	}
	t.Logf("%d admitted sets, %d with a multi-job busy period", len(sets), multiJob)
	stride := 1
	if raceEnabled {
		// The analysis runs on one goroutine, so instrumentation finds
		// nothing here (TestTableConcurrentReaders covers the readers)
		// and would make the full corpus take a minute.
		stride = 8
	}
	for _, gran := range []vtime.Duration{vtime.Millisecond, vtime.Microsecond} {
		for k := 0; k < len(sets); k += stride {
			s := sets[k]
			want, err := refCompute(s, gran)
			if err != nil {
				t.Fatalf("gran %v set %d %v: reference: %v", gran, k, s, err)
			}
			rep, err := analysis.Feasible(s)
			if err != nil {
				t.Fatal(err)
			}
			lazy := allowance.NewTable(s, rep.WCRT, gran)
			eager, err := allowance.Compute(s, gran)
			if err != nil {
				t.Fatalf("gran %v set %d: Compute: %v", gran, k, err)
			}
			for _, got := range []*allowance.Table{lazy, eager} {
				if !equal(got.WCRT, want.wcrt) || got.Equitable() != want.eq ||
					!equal(got.EquitableWCRT(), want.eqWCRT) || !equal(got.MaxOverrun(), want.maxo) {
					t.Fatalf("gran %v set %d %v:\ngot  WCRT %v A %v shifted %v maxOverrun %v\nwant WCRT %v A %v shifted %v maxOverrun %v",
						gran, k, s, got.WCRT, got.Equitable(), got.EquitableWCRT(), got.MaxOverrun(),
						want.wcrt, want.eq, want.eqWCRT, want.maxo)
				}
			}
		}
	}
}

func equal(a, b []vtime.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLongDeadlineAllowance pins a feasible system whose allowance is
// far larger than 2^50 ns: b (T = D = 3 000 000 s) may overrun until
// U reaches exactly 1. Every returned allowance is feasible, and one
// granule more is not.
func TestLongDeadlineAllowance(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: vtime.Millis(20), Deadline: vtime.Millis(20), Cost: vtime.Millis(2)},
		taskset.Task{Name: "b", Priority: 1, Period: vtime.Millis(3_000_000_000), Deadline: vtime.Millis(3_000_000_000), Cost: vtime.Millis(1)},
	)
	tab, err := allowance.Compute(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.MaxOverrun()[1], vtime.Millis(2_699_999_999); got != want {
		t.Errorf("maxOverrun(b) = %v, want %v", got, want)
	}
	feasible := func(s *taskset.Set) bool {
		rep, err := analysis.Feasible(s)
		return err == nil && rep.Feasible
	}
	gran := allowance.DefaultGranularity
	if a := tab.Equitable(); !feasible(s.WithCostDelta(a)) || feasible(s.WithCostDelta(a+gran)) {
		t.Errorf("equitable allowance %v is not the feasibility boundary", a)
	}
	for i, x := range tab.MaxOverrun() {
		if !feasible(s.WithTaskCostDelta(i, x)) || feasible(s.WithTaskCostDelta(i, x+gran)) {
			t.Errorf("maxOverrun(%s) = %v is not the feasibility boundary", s.Tasks[i].Name, x)
		}
	}
}

// TestTableConcurrentReaders reads every column of one lazy table from
// several goroutines at once: each column is computed once and every
// reader sees Compute's values.
func TestTableConcurrentReaders(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(200), Deadline: vtime.Millis(70), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: vtime.Millis(250), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: vtime.Millis(1500), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
	)
	want, err := allowance.Compute(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy := allowance.NewTable(s, want.WCRT, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lazy.Equitable() != want.Equitable() || !equal(lazy.EquitableWCRT(), want.EquitableWCRT()) ||
				!equal(lazy.MaxOverrun(), want.MaxOverrun()) {
				errs <- fmt.Sprintf("reader saw %v %v %v", lazy.Equitable(), lazy.EquitableWCRT(), lazy.MaxOverrun())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
