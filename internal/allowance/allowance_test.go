package allowance

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func table2() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29)},
	)
}

func TestEquitableMatchesPaperTable2(t *testing.T) {
	// Paper Table 2: Ai = 11 ms for every task.
	a, err := Equitable(table2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != ms(11) {
		t.Fatalf("equitable allowance = %v, want 11ms", a)
	}
}

func TestSystemAllowanceMatchesPaper(t *testing.T) {
	// Paper §6.5: "all the system time available in the worst
	// execution case, that is to say thirty three milliseconds" is
	// granted to the first faulty task (τ1).
	maxo, err := System(table2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxo[0] != ms(33) {
		t.Fatalf("max overrun of tau1 = %v, want 33ms", maxo[0])
	}
	// τ2's own bound: R3 = 87 + X ≤ 120 also gives 33; τ3's bound is
	// limited by its own deadline: 87 + X ≤ 120 → 33.
	if maxo[1] != ms(33) || maxo[2] != ms(33) {
		t.Fatalf("max overruns = %v, want [33ms 33ms 33ms]", maxo)
	}
}

func TestComputeTable3(t *testing.T) {
	// Paper Table 3: with every task overrunning by A = 11 ms, the
	// worst-case response times shift to WCRT1+11, WCRT2+22, WCRT3+33.
	tab, err := Compute(table2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := []vtime.Duration{ms(29), ms(58), ms(87)}
	wantShift := []vtime.Duration{ms(29 + 11), ms(58 + 22), ms(87 + 33)}
	for i := range wantBase {
		if tab.WCRT[i] != wantBase[i] {
			t.Errorf("WCRT[%d] = %v, want %v", i, tab.WCRT[i], wantBase[i])
		}
		if tab.EquitableWCRT()[i] != wantShift[i] {
			t.Errorf("EquitableWCRT[%d] = %v, want %v", i, tab.EquitableWCRT()[i], wantShift[i])
		}
	}
	if tab.Equitable() != ms(11) {
		t.Errorf("Equitable = %v, want 11ms", tab.Equitable())
	}
}

func TestEquitableKeepsSystemFeasible(t *testing.T) {
	// Definition check: the inflated system is feasible at the
	// computed allowance and infeasible one granule above.
	s := table2()
	a, err := Equitable(s, ms(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Feasible(s.WithCostDelta(a))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("system must remain feasible at the allowance %v", a)
	}
	rep, err = analysis.Feasible(s.WithCostDelta(a + ms(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatalf("system must be infeasible one granule above the allowance %v", a)
	}
}

func TestMaxOverrunBoundary(t *testing.T) {
	s := table2()
	for i := range s.Tasks {
		x, err := MaxOverrun(s, i, ms(1))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Feasible(s.WithTaskCostDelta(i, x))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Feasible {
			t.Fatalf("task %d: system infeasible at its own max overrun %v", i, x)
		}
		rep, err = analysis.Feasible(s.WithTaskCostDelta(i, x+ms(1)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Feasible {
			t.Fatalf("task %d: still feasible one granule above max overrun %v", i, x)
		}
	}
}

func TestInfeasibleBaseSystemRejected(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	if _, err := Equitable(s, 0); err == nil {
		t.Fatal("expected error: base system infeasible (b's WCRT 10 > D 6)")
	}
}

func TestFinerGranularity(t *testing.T) {
	// At 100 µs resolution the allowance refines within
	// [11ms, 12ms): the exact boundary for Table 2 is 11ms exactly
	// (3·(29+A) ≤ 120 ⇒ A ≤ 11), so a finer search returns 11ms too.
	a, err := Equitable(table2(), vtime.Micros(100))
	if err != nil {
		t.Fatal(err)
	}
	if a != ms(11) {
		t.Fatalf("fine-grained equitable allowance = %v, want exactly 11ms", a)
	}
}

func TestAllowanceMonotoneUnderSlack(t *testing.T) {
	// Shrinking every cost can only grow the allowance.
	gen := taskset.NewGenerator(99)
	for trial := 0; trial < 50; trial++ {
		s, err := gen.Generate(3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Feasible(s)
		if err != nil || !rep.Feasible {
			continue
		}
		a1, err := Equitable(s, ms(1))
		if err != nil {
			continue
		}
		shrunk := s.Clone()
		ok := true
		for i := range shrunk.Tasks {
			if shrunk.Tasks[i].Cost <= ms(2) {
				ok = false
				break
			}
			shrunk.Tasks[i].Cost -= ms(1)
		}
		if !ok {
			continue
		}
		a2, err := Equitable(shrunk, ms(1))
		if err != nil {
			t.Fatalf("trial %d: shrunk system lost its allowance: %v", trial, err)
		}
		if a2 < a1 {
			t.Fatalf("trial %d: shrinking costs shrank allowance %v -> %v", trial, a1, a2)
		}
	}
}

func TestSearchStopsAtLimit(t *testing.T) {
	// A predicate that never fails is bounded by the limit: the search
	// returns the largest multiple of the granularity within it and
	// never probes past it.
	for _, limit := range []vtime.Duration{0, vtime.Micros(10500), ms(10), ms(3_000_000_000)} {
		got := search(ms(1), limit, func(d vtime.Duration) bool {
			if d > limit {
				t.Fatalf("limit %v: probed %v", limit, d)
			}
			return true
		})
		if want := limit.Floor(ms(1)); got != want {
			t.Errorf("limit %v: search = %v, want %v", limit, got, want)
		}
	}
}
