package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vtime"
)

func ms(n int64) Duration { return Duration(vtime.Millis(n)) }

func validScenario() Scenario {
	return Scenario{
		Name: "t",
		Tasks: []Task{
			{Name: "tau1", Priority: 2, Period: ms(10), Deadline: ms(10), Cost: ms(2)},
			{Name: "tau2", Priority: 1, Period: ms(20), Deadline: ms(20), Cost: ms(5)},
		},
		Horizon: ms(100),
	}
}

// TestRoundTripTestdata pins the codec: every committed scenario file
// decodes, validates, and re-encodes to the exact bytes on disk.
func TestRoundTripTestdata(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("want at least 3 example scenarios in %s, found %d", dir, len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("decode→encode is not the identity:\n--- disk ---\n%s\n--- re-encoded ---\n%s", want, got)
			}
		})
	}
}

func TestDurationJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want vtime.Duration
	}{
		{`"29ms"`, vtime.Millis(29)},
		{`"1.5ms"`, vtime.Micros(1500)},
		{`"2s"`, 2 * vtime.Second},
		{`"250us"`, vtime.Micros(250)},
		{`40`, vtime.Millis(40)}, // bare number = milliseconds
	} {
		var d Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Errorf("unmarshal %s: %v", tc.in, err)
			continue
		}
		if d.D() != tc.want {
			t.Errorf("unmarshal %s = %v, want %v", tc.in, d.D(), tc.want)
		}
	}
	out, err := json.Marshal(ms(29))
	if err != nil || string(out) != `"29ms"` {
		t.Errorf("marshal 29ms = %s, %v", out, err)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("non-duration JSON must error")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"tasks": [], "horizont": "1s"}`))
	if err == nil || !strings.Contains(err.Error(), "horizont") {
		t.Errorf("unknown field must be named in the error, got %v", err)
	}
}

// TestDecodeRejectsTrailingData pins one document per input: after the
// value only whitespace may follow, so a second concatenated document
// or stray bytes fail instead of being silently ignored.
func TestDecodeRejectsTrailingData(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(append(bytes.Clone(doc), " \n\t\r\n"...))); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for name, tail := range map[string]string{
		"garbage":         "garbage",
		"closers":         "]]]",
		"second document": string(doc),
		"number":          " 1",
	} {
		_, err := Decode(bytes.NewReader(append(bytes.Clone(doc), tail...)))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s after the document: got %v, want a trailing-data error", name, err)
		}
	}
}

func TestValidate(t *testing.T) {
	base := validScenario()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"no tasks":          func(sc *Scenario) { sc.Tasks = nil },
		"zero horizon":      func(sc *Scenario) { sc.Horizon = 0 },
		"unknown policy":    func(sc *Scenario) { sc.Policy = "round-robin" },
		"unknown treatment": func(sc *Scenario) { sc.Treatment = "reboot" },
		"skip+treatment":    func(sc *Scenario) { sc.SkipAdmission = true; sc.Treatment = "stop" },
		"policy+treatment":  func(sc *Scenario) { sc.Policy = "edf"; sc.Treatment = "stop" },
		"dup priority":      func(sc *Scenario) { sc.Tasks[1].Priority = sc.Tasks[0].Priority },
		"task name tau 2":   func(sc *Scenario) { sc.Tasks[1].Name = "tau 2" },
		"fault unknown task": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "ghost", Kind: FaultOverrunAt}}
		},
		"fault unknown kind": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: "explode"}}
		},
		"fault dead field": func(sc *Scenario) {
			// overrun-every does not read job: the writer probably
			// meant overrun-at or first.
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunEvery, Job: 5, Extra: ms(1)}}
		},
		"fault dead window": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunAt, Job: 1, Extra: ms(1), From: ms(10)}}
		},
		"bad server": func(sc *Scenario) {
			sc.Servers = []Server{{Task: Task{Name: "srv"}}}
		},
		"stream+server": func(sc *Scenario) {
			sc.Collect = &Collect{Mode: CollectStream}
			sc.Servers = []Server{validServer()}
		},
		"cpus+treatment": func(sc *Scenario) { sc.CPUs = 2; sc.Treatment = "stop" },
		"cpus+server":    func(sc *Scenario) { sc.CPUs = 2; sc.Servers = []Server{validServer()} },
		"cpus+policy":    func(sc *Scenario) { sc.CPUs = 2; sc.Policy = "best-effort" },
		"cpus+skip":      func(sc *Scenario) { sc.CPUs = 2; sc.SkipAdmission = true },
		"task arrival without skip": func(sc *Scenario) {
			sc.Arrivals = []Arrival{{Task: "tau1", Kind: ArrivalPoisson, Mean: ms(10)}}
		},
		// Zero means unset for each of these; below zero is refused.
		"negative extra": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunAt, Job: 5, Extra: ms(-40)}}
		},
		"negative early": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultUnderrunEvery, Early: ms(-1)}}
		},
		"negative max": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultJitter, Max: ms(-3)}}
		},
		"negative timer_resolution": func(sc *Scenario) { sc.TimerResolution = ms(-10) },
		"negative stop_poll":        func(sc *Scenario) { sc.StopPoll = ms(-5) },
		"negative stop_jitter_max":  func(sc *Scenario) { sc.StopJitterMax = ms(-1) },
		"negative context_switch":   func(sc *Scenario) { sc.ContextSwitch = ms(-1) },
	} {
		sc := validScenario()
		mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validation must fail", name)
		} else if field, ok := strings.CutPrefix(name, "negative "); ok && !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error must name %s, got %v", name, field, err)
		} else if task, ok := strings.CutPrefix(name, "task name "); ok && !strings.Contains(err.Error(), task) {
			t.Errorf("%s: error must name the task, got %v", name, err)
		}
	}
}

// validServer is a polling server that keeps validScenario feasible.
func validServer() Server {
	return Server{
		Task:     Task{Name: "srv", Priority: 3, Period: ms(40), Deadline: ms(40), Cost: ms(2)},
		Requests: []Request{{ID: "r1", Arrival: ms(5), Cost: ms(1)}},
	}
}

// TestValidateFastForward pins the fast_forward grammar: streaming
// collection and treatment none required; faults, servers, stop
// jitter, the online oracle and stateful overload policies excluded.
func TestValidateFastForward(t *testing.T) {
	ff := func() Scenario {
		sc := validScenario()
		sc.FastForward = true
		sc.Collect = &Collect{Mode: CollectStream}
		return sc
	}
	base := ff()
	if err := base.Validate(); err != nil {
		t.Fatalf("eligible fast-forward scenario rejected: %v", err)
	}
	for _, policy := range []string{"", "fixed-priority", "edf"} {
		sc := ff()
		sc.Policy = policy
		if err := sc.Validate(); err != nil {
			t.Errorf("policy %q must stay eligible: %v", policy, err)
		}
	}
	for name, mutate := range map[string]func(*Scenario){
		"retained collection": func(sc *Scenario) { sc.Collect = nil },
		"treatment":           func(sc *Scenario) { sc.Treatment = "stop" },
		"fault plan": func(sc *Scenario) {
			sc.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunAt, Job: 1, Extra: ms(1)}}
		},
		"server": func(sc *Scenario) {
			sc.Servers = []Server{{
				Task:     Task{Name: "srv", Priority: 3, Period: ms(40), Deadline: ms(40), Cost: ms(2)},
				Requests: []Request{{ID: "r1", Arrival: ms(5), Cost: ms(1)}},
			}}
		},
		"stop jitter":     func(sc *Scenario) { sc.StopJitterMax = ms(1) },
		"online oracle":   func(sc *Scenario) { sc.Verify = true },
		"stateful policy": func(sc *Scenario) { sc.Policy = "d-over"; sc.SkipAdmission = true },
	} {
		sc := ff()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: fast-forward validation must fail", name)
		} else if !strings.Contains(err.Error(), "fast_forward") && !strings.Contains(err.Error(), "servers") {
			// Servers already conflict with streaming collection, which
			// validation reports first; everything else must name the
			// fast_forward field.
			t.Errorf("%s: error must name fast_forward, got %v", name, err)
		}
	}
}

func TestKnownPoliciesAndTreatmentsValidate(t *testing.T) {
	for _, policy := range []string{"", "fixed-priority", "edf", "best-effort", "red", "d-over"} {
		sc := validScenario()
		sc.Policy = policy
		if err := sc.Validate(); err != nil {
			t.Errorf("policy %q: %v", policy, err)
		}
	}
	for _, tr := range []string{"", "none", "detect", "stop", "equitable", "system",
		"no-detection", "detect-only", "stop-equitable", "equitable-allowance", "system-allowance"} {
		sc := validScenario()
		sc.Treatment = tr
		if err := sc.Validate(); err != nil {
			t.Errorf("treatment %q: %v", tr, err)
		}
	}
}

func TestFaultPlanComposition(t *testing.T) {
	sc := validScenario()
	sc.Faults = []Fault{
		{Task: "tau1", Kind: FaultOverrunAt, Job: 3, Extra: ms(5)},
		{Task: "tau1", Kind: FaultOverrunEvery, First: 10, Every: 2, Extra: ms(1)},
		{Task: "tau2", Kind: FaultUnderrunEvery, Early: ms(2)},
	}
	plan, err := sc.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	chain, ok := plan["tau1"].(fault.Chain)
	if !ok || len(chain) != 2 {
		t.Fatalf("tau1 model = %T %v, want 2-element chain", plan["tau1"], plan["tau1"])
	}
	// Job 3 hits only the OverrunAt; job 10 only the OverrunEvery.
	if got := chain.ActualCost(3, vtime.Millis(2)); got != vtime.Millis(7) {
		t.Errorf("job 3 cost = %v, want 7ms", got)
	}
	if got := chain.ActualCost(10, vtime.Millis(2)); got != vtime.Millis(3) {
		t.Errorf("job 10 cost = %v, want 3ms", got)
	}
	if got := plan.For("tau2").ActualCost(0, vtime.Millis(5)); got != vtime.Millis(3) {
		t.Errorf("tau2 cost = %v, want 3ms", got)
	}
}

// TestJitterSeedDefaultsToScenarioSeed: a jitter fault without its
// own seed must vary with the scenario's top-level seed, so seed
// sweeps actually sample different noise.
func TestJitterSeedDefaultsToScenarioSeed(t *testing.T) {
	draw := func(topSeed, faultSeed uint64) vtime.Duration {
		sc := validScenario()
		sc.Seed = topSeed
		sc.Faults = []Fault{{Task: "tau1", Kind: FaultJitter, Seed: faultSeed, Max: ms(5)}}
		plan, err := sc.FaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		return plan.For("tau1").ActualCost(0, vtime.Millis(2))
	}
	if draw(1, 0) == draw(2, 0) {
		t.Error("jitter with no fault seed must follow the scenario seed")
	}
	if draw(1, 42) != draw(2, 42) {
		t.Error("an explicit fault seed must override the scenario seed")
	}
}

func TestInterferenceUsesVictimReleasePattern(t *testing.T) {
	sc := validScenario()
	sc.Tasks[0].Offset = ms(5)
	sc.Faults = []Fault{{Task: "tau1", Kind: FaultInterference, From: ms(10), To: ms(30), Extra: ms(4)}}
	plan, err := sc.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	m := plan.For("tau1")
	// Releases at 5, 15, 25, 35 ms: jobs 1 and 2 fall inside [10,30).
	for q, want := range map[int64]vtime.Duration{
		0: vtime.Millis(2), 1: vtime.Millis(6), 2: vtime.Millis(6), 3: vtime.Millis(2),
	} {
		if got := m.ActualCost(q, vtime.Millis(2)); got != want {
			t.Errorf("job %d cost = %v, want %v", q, got, want)
		}
	}
}

func TestTaskSetIncludesServers(t *testing.T) {
	sc := validScenario()
	sc.Servers = []Server{{
		Task: Task{Name: "srv", Priority: 9, Period: ms(50), Deadline: ms(50), Cost: ms(10)},
		Requests: []Request{
			{ID: "r1", Arrival: ms(10), Cost: ms(5)},
		},
	}}
	set, err := sc.TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 || set.ByName("srv") == nil {
		t.Errorf("set = %v, want periodic tasks plus server", set)
	}
}
