package taskset

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func valid(name string, prio int, T, D, C int64) Task {
	return Task{Name: name, Priority: prio, Period: ms(T), Deadline: ms(D), Cost: ms(C)}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	cases := []struct {
		name string
		task Task
	}{
		{"no name", Task{Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(1)}},
		{"name -", Task{Name: "-", Period: ms(10), Deadline: ms(10), Cost: ms(1)}},
		{"name with a space", Task{Name: "tau 2", Period: ms(10), Deadline: ms(10), Cost: ms(1)}},
		{"name with a tab", Task{Name: "tau\t2", Period: ms(10), Deadline: ms(10), Cost: ms(1)}},
		{"name with a no-break space", Task{Name: "tau\u00a02", Period: ms(10), Deadline: ms(10), Cost: ms(1)}},
		{"zero period", Task{Name: "x", Period: 0, Deadline: ms(10), Cost: ms(1)}},
		{"negative period", Task{Name: "x", Period: -ms(1), Deadline: ms(10), Cost: ms(1)}},
		{"zero cost", Task{Name: "x", Period: ms(10), Deadline: ms(10), Cost: 0}},
		{"zero deadline", Task{Name: "x", Period: ms(10), Deadline: 0, Cost: ms(1)}},
		{"cost over deadline", Task{Name: "x", Period: ms(10), Deadline: ms(2), Cost: ms(3)}},
		{"negative offset", Task{Name: "x", Period: ms(10), Deadline: ms(10), Cost: ms(1), Offset: -ms(1)}},
	}
	for _, c := range cases {
		if err := c.task.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		} else if msg := err.Error(); !strings.Contains(msg, c.task.Name) && !strings.Contains(msg, strconv.Quote(c.task.Name)) {
			t.Errorf("%s: error %q does not name the task", c.name, err)
		}
	}
	for _, name := range []string{"ok", "-x", "x-", "τ1", "a-b_c.d"} {
		if err := valid(name, 1, 10, 10, 1).Validate(); err != nil {
			t.Errorf("valid task %q rejected: %v", name, err)
		}
	}
}

func TestSetInvariants(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty set must be rejected")
	}
	if _, err := New(valid("a", 1, 10, 10, 1), valid("a", 2, 20, 20, 1)); err == nil {
		t.Error("duplicate names must be rejected")
	}
	if _, err := New(valid("a", 1, 10, 10, 1), valid("b", 1, 20, 20, 1)); err == nil {
		t.Error("duplicate priorities must be rejected")
	}
}

func TestByPriorityOrdersDescending(t *testing.T) {
	s := MustNew(valid("lo", 1, 30, 30, 1), valid("hi", 9, 10, 10, 1), valid("mid", 5, 20, 20, 1))
	idx := s.ByPriority()
	gotNames := []string{s.Tasks[idx[0]].Name, s.Tasks[idx[1]].Name, s.Tasks[idx[2]].Name}
	want := []string{"hi", "mid", "lo"}
	for i := range want {
		if gotNames[i] != want[i] {
			t.Fatalf("ByPriority order = %v, want %v", gotNames, want)
		}
	}
}

func TestHigherOrEqualPriorityExcludesSelf(t *testing.T) {
	s := MustNew(valid("a", 3, 10, 10, 1), valid("b", 2, 20, 20, 1), valid("c", 1, 30, 30, 1))
	hp := s.HigherOrEqualPriority(1) // task "b"
	if len(hp) != 1 || s.Tasks[hp[0]].Name != "a" {
		t.Fatalf("HP(b) = %v, want [a]", hp)
	}
	if got := s.HigherOrEqualPriority(0); len(got) != 0 {
		t.Fatalf("HP(highest) = %v, want empty", got)
	}
}

func TestHyperperiod(t *testing.T) {
	s := MustNew(valid("a", 3, 200, 70, 29), valid("b", 2, 250, 120, 29), valid("c", 1, 1500, 120, 29))
	h, err := s.Hyperperiod()
	if err != nil {
		t.Fatalf("hyperperiod: %v", err)
	}
	if h != ms(3000) {
		t.Fatalf("hyperperiod = %v, want 3000ms (lcm of 200, 250, 1500)", h)
	}
}

func TestLookupHelpers(t *testing.T) {
	s := MustNew(valid("a", 2, 10, 10, 1), valid("b", 1, 20, 20, 2))
	if s.ByName("b") == nil || s.ByName("b").Cost != ms(2) {
		t.Error("ByName(b) lookup failed")
	}
	if s.ByName("zzz") != nil {
		t.Error("ByName of missing task must be nil")
	}
	if s.IndexByName("a") != 0 || s.IndexByName("zzz") != -1 {
		t.Error("IndexByName misbehaved")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestCostDeltaHelpers(t *testing.T) {
	s := MustNew(valid("a", 2, 10, 10, 1), valid("b", 1, 20, 20, 2))
	all := s.WithCostDelta(ms(3))
	if all.Tasks[0].Cost != ms(4) || all.Tasks[1].Cost != ms(5) {
		t.Errorf("WithCostDelta: got %v/%v", all.Tasks[0].Cost, all.Tasks[1].Cost)
	}
	one := s.WithTaskCostDelta(1, ms(3))
	if one.Tasks[0].Cost != ms(1) || one.Tasks[1].Cost != ms(5) {
		t.Errorf("WithTaskCostDelta: got %v/%v", one.Tasks[0].Cost, one.Tasks[1].Cost)
	}
	// Originals untouched.
	if s.Tasks[0].Cost != ms(1) || s.Tasks[1].Cost != ms(2) {
		t.Error("delta helpers mutated the original set")
	}
}

func TestParseTable2File(t *testing.T) {
	src := `
# the paper's Table 2 system
task tau1 priority=20 period=200 deadline=70  cost=29
task tau2 priority=18 period=250 deadline=120 cost=29
task tau3 priority=16 period=1500 deadline=120 cost=29 offset=1000
`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("parsed %d tasks, want 3", s.Len())
	}
	tau3 := s.ByName("tau3")
	if tau3.Period != ms(1500) || tau3.Offset != ms(1000) || tau3.Priority != 16 {
		t.Fatalf("tau3 parsed wrong: %+v", tau3)
	}
}

func TestParseUnits(t *testing.T) {
	s, err := ParseString("task a priority=1 period=1s deadline=500000us cost=250ms value=3.5")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Tasks[0]
	if a.Period != vtime.Second || a.Deadline != ms(500) || a.Cost != ms(250) || a.Value != 3.5 {
		t.Fatalf("unit parsing wrong: %+v", a)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"job a priority=1 period=10 deadline=10 cost=1", // bad keyword
		"task", // missing name
		"task a priority=1 period=10 deadline=10",                   // missing cost
		"task a priority=1 period=10 deadline=10 cost",              // malformed attr
		"task a priority=x period=10 deadline=10 cost=1",            // bad int
		"task a priority=1 period=ten deadline=10 cost=1",           // bad duration
		"task a priority=1 priority=2 period=10 deadline=10 cost=1", // dup attr
		"task a priority=1 period=10 deadline=10 cost=1 color=red",  // unknown attr
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := MustNew(
		Task{Name: "a", Priority: 5, Period: ms(100), Deadline: ms(80), Cost: ms(10), Offset: ms(50), Value: 2},
		Task{Name: "b", Priority: 4, Period: ms(200), Deadline: ms(200), Cost: ms(20)},
	)
	back, err := ParseString(Format(s))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, Format(s))
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip lost tasks")
	}
	for i := range s.Tasks {
		if s.Tasks[i] != back.Tasks[i] {
			t.Errorf("task %d round-trip mismatch: %+v vs %+v", i, s.Tasks[i], back.Tasks[i])
		}
	}
}

func TestUUniFastSumsToTotal(t *testing.T) {
	g := NewGenerator(1)
	for _, n := range []int{1, 2, 5, 20} {
		us := g.UUniFast(n, 0.75)
		sum := 0.0
		for _, u := range us {
			if u < 0 {
				t.Fatalf("negative utilization draw %v", u)
			}
			sum += u
		}
		if diff := sum - 0.75; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%d: UUniFast sum = %v, want 0.75", n, sum)
		}
	}
}

func TestGenerateProducesValidRMSets(t *testing.T) {
	g := NewGenerator(2)
	for trial := 0; trial < 100; trial++ {
		s, err := g.Generate(5, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid set: %v", trial, err)
		}
		// Rate-monotonic: higher priority implies period no longer.
		idx := s.ByPriority()
		for i := 1; i < len(idx); i++ {
			if s.Tasks[idx[i-1]].Period > s.Tasks[idx[i]].Period {
				t.Fatalf("trial %d: priorities not rate monotonic", trial)
			}
		}
	}
}

func TestGenerateRejectsBadArgs(t *testing.T) {
	g := NewGenerator(3)
	if _, err := g.Generate(0, 0.5); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := g.Generate(3, 0); err == nil {
		t.Error("U=0 must error")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Error("different seeds should diverge immediately (SplitMix64)")
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		v := NewRand(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDurationIn(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		d := r.DurationIn(ms(5), ms(10))
		if d < ms(5) || d > ms(10) {
			t.Fatalf("DurationIn out of range: %v", d)
		}
	}
	if d := r.DurationIn(ms(7), ms(7)); d != ms(7) {
		t.Errorf("degenerate range: %v, want 7ms", d)
	}
}

func TestEffectiveValue(t *testing.T) {
	tk := valid("a", 1, 10, 10, 4)
	if v := tk.EffectiveValue(); v != 4 {
		t.Errorf("default value = %v, want cost in ms (4)", v)
	}
	tk.Value = 2.5
	if v := tk.EffectiveValue(); v != 2.5 {
		t.Errorf("explicit value = %v, want 2.5", v)
	}
}

func TestStringRenderings(t *testing.T) {
	s := MustNew(valid("a", 2, 10, 10, 1), valid("b", 1, 20, 20, 2))
	if !strings.Contains(s.String(), "a{P=2") || !strings.Contains(s.String(), "b{P=1") {
		t.Errorf("Set.String() = %q", s.String())
	}
}
