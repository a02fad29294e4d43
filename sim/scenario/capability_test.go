package scenario

import (
	"strings"
	"testing"
)

// TestCapabilityRows pins every row of the table: for each row, in
// table order, the smallest change to a valid scenario that breaks it
// and no row before it. Deleting or reordering a row fails here.
func TestCapabilityRows(t *testing.T) {
	stream := func(sc *Scenario) { sc.Collect = &Collect{Mode: CollectStream} }
	ff := func(sc *Scenario) { stream(sc); sc.FastForward = true }
	taskArrival := func(sc *Scenario) {
		sc.SkipAdmission = true
		sc.Arrivals = []Arrival{{Task: "tau1", Kind: ArrivalPoisson, Mean: ms(10)}}
	}
	cases := []struct {
		name string
		use  func(u *Features)
		want string
	}{
		{"treatment+skip", func(u *Features) { u.Scenario.Treatment = "stop"; u.Scenario.SkipAdmission = true }, `got "stop"`},
		{"treatment+edf", func(u *Features) { u.Scenario.Treatment = "stop"; u.Scenario.Policy = "edf" }, `policy "edf"`},
		{"cpus+treatment", func(u *Features) { u.Scenario.CPUs = 2; u.Scenario.Treatment = "stop" }, "uniprocessor"},
		{"cpus+server", func(u *Features) { u.Scenario.CPUs = 2; u.Scenario.Servers = []Server{validServer()} }, "servers"},
		{"cpus+policy", func(u *Features) { u.Scenario.CPUs = 2; u.Scenario.Policy = "red" }, `policy "red"`},
		{"cpus+skip", func(u *Features) { u.Scenario.CPUs = 2; u.Scenario.SkipAdmission = true }, "skip_admission"},
		{"task arrival", func(u *Features) {
			// A server source comes first, so the reason names arrival 1.
			u.Scenario.Arrivals = []Arrival{{Server: "srv", Kind: ArrivalPoisson, Mean: ms(10), Cost: ms(1)},
				{Task: "tau1", Kind: ArrivalPoisson, Mean: ms(10)}}
		}, "arrival 1:"},
		{"stream+server", func(u *Features) { stream(u.Scenario); u.Scenario.Servers = []Server{validServer()} }, "servers"},
		{"ff retained", func(u *Features) { u.Scenario.FastForward = true }, `collect mode "stream"`},
		{"ff+treatment", func(u *Features) { ff(u.Scenario); u.Scenario.Treatment = "stop" }, "treatment none"},
		{"ff+faults", func(u *Features) {
			ff(u.Scenario)
			u.Scenario.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunAt, Job: 1, Extra: ms(1)}}
		}, "faults"},
		{"ff+arrivals", func(u *Features) { ff(u.Scenario); taskArrival(u.Scenario) }, "arrivals"},
		{"ff+jitter", func(u *Features) { ff(u.Scenario); u.Scenario.StopJitterMax = ms(1) }, "stop_jitter_max"},
		{"ff+verify", func(u *Features) { ff(u.Scenario); u.Scenario.Verify = true }, "verify"},
		{"ff+policy", func(u *Features) { ff(u.Scenario); u.Scenario.Policy = "best-effort" }, "order-only"},
		{"ff+spill", func(u *Features) { ff(u.Scenario); u.Spill = true }, "trace spill"},
		{"checkpoint+treatment", func(u *Features) { stream(u.Scenario); u.Scenario.Treatment = "stop"; u.Checkpoint = true }, "treatment none"},
		{"checkpoint+server", func(u *Features) { u.Scenario.Servers = []Server{validServer()}; u.Checkpoint = true }, "servers"},
		{"checkpoint+d-over", func(u *Features) { stream(u.Scenario); u.Scenario.Policy = "d-over"; u.Checkpoint = true }, "d-over"},
		{"checkpoint retained", func(u *Features) { u.Checkpoint = true }, "streaming collection"},
		{"checkpoint+verify", func(u *Features) { stream(u.Scenario); u.Scenario.Verify = true; u.Checkpoint = true }, "oracle"},
		{"checkpoint+ff", func(u *Features) { ff(u.Scenario); u.Checkpoint = true }, "fast-forward"},
		{"checkpoint+arrival", func(u *Features) { stream(u.Scenario); taskArrival(u.Scenario); u.Checkpoint = true }, "task-targeted"},
	}
	if len(cases) != len(rules) {
		t.Fatalf("%d cases for %d rows", len(cases), len(rules))
	}
	base := validScenario()
	if err := (Features{Scenario: &base, Spill: true}).Check(); err != nil {
		t.Fatalf("base scenario refused: %v", err)
	}
	for row, tc := range cases {
		sc := validScenario()
		u := Features{Scenario: &sc}
		tc.use(&u)
		has := u.facts()
		first := -1
		for i, r := range rules {
			if has[r.a] && has[r.b] {
				first = i
				break
			}
		}
		if first != row {
			t.Errorf("%s: first broken row %d, want %d", tc.name, first, row)
		}
		if err := u.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckDoesNotAllocate pins that an accepted check costs no
// allocation: the facts hold no pointer, so the scenario does not
// escape through the rules.
func TestCheckDoesNotAllocate(t *testing.T) {
	sc := validScenario()
	sc.Collect = &Collect{Mode: CollectStream}
	sc.FastForward = true
	if n := testing.AllocsPerRun(100, func() {
		if err := (Features{Scenario: &sc}).Check(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Check allocates %v times per call, want 0", n)
	}
}
