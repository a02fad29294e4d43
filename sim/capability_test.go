package sim

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/verify/gen"
	"repro/sim/scenario"
)

// pairRun is one run of the pairwise test: a scenario plus the
// features armed on the built System, as rtserved and rtrun arm them.
type pairRun struct {
	sc                        Scenario
	verify, spill, checkpoint bool
}

// TestFeaturePairs is the capability table's property test. Every pair
// of features, each with what the table says it needs, is put on the
// smallest scenario that carries them and run the way rtserved runs
// it, with progress observed. Where the table accepts, the run
// completes, split at a checkpoint and resumed when the pair holds
// one. Where it refuses, the refusal is the table's and comes before
// the engine starts: nothing was spilled and no progress was observed.
func TestFeaturePairs(t *testing.T) {
	stream := func(r *pairRun) { r.sc.Collect = &Collect{Mode: CollectStream} }
	server := func() Server {
		return Server{Task: Task{Name: "srv", Priority: 9, Period: Millis(40), Deadline: Millis(40), Cost: Millis(2)}}
	}
	features := []struct {
		name, axis string // features on one axis exclude each other
		set        func(r *pairRun)
	}{
		{"treatment", "treatment", func(r *pairRun) { r.sc.Treatment = "stop" }},
		{"skip_admission", "skip", func(r *pairRun) { r.sc.SkipAdmission = true }},
		{"edf", "policy", func(r *pairRun) { r.sc.Policy = "edf" }},
		{"best-effort", "policy", func(r *pairRun) { r.sc.Policy = "best-effort" }},
		{"d-over", "policy", func(r *pairRun) { r.sc.Policy = "d-over" }},
		{"stream", "collect", stream},
		{"server", "server", func(r *pairRun) {
			srv := server()
			srv.Requests = []Request{{ID: "r1", Arrival: Millis(5), Cost: Millis(1)}}
			r.sc.Servers = []Server{srv}
		}},
		{"server arrival", "server", func(r *pairRun) {
			r.sc.Servers = []Server{server()}
			r.sc.Arrivals = append(r.sc.Arrivals, Arrival{Server: "srv", Kind: ArrivalPoisson, Mean: Millis(15), Cost: Millis(1)})
		}},
		{"cpus 2", "cpus", func(r *pairRun) { r.sc.CPUs = 2 }},
		{"cpus 2 partitioned", "cpus", func(r *pairRun) { r.sc.CPUs, r.sc.Placement = 2, scenario.PlacementPartitioned }},
		{"task arrival", "arrival", func(r *pairRun) {
			r.sc.SkipAdmission = true
			r.sc.Arrivals = append(r.sc.Arrivals, Arrival{Task: "tau2", Kind: ArrivalPoisson, Mean: Millis(15)})
		}},
		{"fast_forward", "fast_forward", func(r *pairRun) { stream(r); r.sc.FastForward = true }},
		{"faults", "faults", func(r *pairRun) {
			r.sc.Faults = []Fault{{Task: "tau2", Kind: FaultOverrunAt, Job: 1, Extra: Millis(3)}}
		}},
		{"stop jitter", "jitter", func(r *pairRun) { r.sc.StopJitterMax = Millis(1) }},
		{"verify", "verify", func(r *pairRun) { r.verify = true }},
		{"spill", "spill", func(r *pairRun) { r.spill = true }},
		{"checkpoint", "checkpoint", func(r *pairRun) { stream(r); r.checkpoint = true }},
	}
	accepted, refused := 0, 0
	for i, a := range features {
		for _, b := range features[i+1:] {
			if a.axis == b.axis {
				continue
			}
			name := a.name + " × " + b.name
			r := pairRun{sc: Scenario{
				Name: "pair",
				Tasks: []Task{
					{Name: "tau1", Priority: 3, Period: Millis(10), Deadline: Millis(10), Cost: Millis(2)},
					{Name: "tau2", Priority: 2, Period: Millis(20), Deadline: Millis(20), Cost: Millis(4)},
				},
				Horizon: Millis(200),
			}}
			a.set(&r)
			b.set(&r)
			armed := r.sc
			armed.Verify = r.verify
			verdict := scenario.Features{Scenario: &armed, Spill: r.spill, Checkpoint: r.checkpoint}.Check()
			if verdict == nil {
				accepted++
			} else {
				refused++
			}
			sys, err := FromScenario(r.sc)
			if err != nil {
				if verdict == nil {
					t.Errorf("%s: the table accepts, but validation refuses: %v", name, err)
				}
				continue
			}
			sys.SetVerify(r.verify)
			var spill bytes.Buffer
			if r.spill {
				sys.SpillTrace(&spill)
			}
			observed := 0
			sys.ObserveProgress(Millis(10), func(Duration) { observed++ })
			if r.checkpoint {
				cp, err := sys.RunToCheckpoint(r.sc.Horizon / 2)
				switch {
				case verdict != nil:
					if err == nil || err.Error() != verdict.Error() || spill.Len() > 0 {
						t.Errorf("%s: RunToCheckpoint = %v after spilling %d bytes, want the table's refusal %q before simulating", name, err, spill.Len(), verdict)
					}
				case err != nil:
					t.Errorf("%s: the table accepts, but RunToCheckpoint fails: %v", name, err)
				default:
					resumed, err := Resume(cp)
					if err == nil {
						_, err = resumed.Run()
					}
					if err != nil {
						t.Errorf("%s: the table accepts, but the resumed run fails: %v", name, err)
					}
				}
				continue
			}
			_, err = sys.Run()
			switch {
			case verdict != nil:
				if err == nil || err.Error() != verdict.Error() || spill.Len() > 0 || observed > 0 {
					t.Errorf("%s: Run = %v after spilling %d bytes and %d progress calls, want the table's refusal %q before the engine starts", name, err, spill.Len(), observed, verdict)
				}
			case err != nil:
				t.Errorf("%s: the table accepts, but Run fails: %v", name, err)
			case observed == 0:
				t.Errorf("%s: the run never reported progress", name)
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Errorf("%d pairs accepted and %d refused; the test must see both", accepted, refused)
	}
}

// TestFastForwardObserved: a fast-forwarded run reports progress and
// the same report as an unobserved run, and SetVerify, which skips
// validation, is refused by the table before the engine starts.
func TestFastForwardObserved(t *testing.T) {
	sc := gen.FastForwardable(7)
	plain, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	sys.ObserveProgress(Millis(10), func(Duration) { observed++ })
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if observed == 0 || res.SkippedCycles == 0 {
		t.Errorf("observed %d times, skipped %d cycles; want both positive", observed, res.SkippedCycles)
	}
	if res.Summary() != want.Summary() {
		t.Errorf("an observed run reports differently:\n%s\nvs\n%s", res.Summary(), want.Summary())
	}

	observed = 0
	sys.SetVerify(true)
	if _, err := sys.Run(); err == nil || !strings.Contains(err.Error(), "fast_forward cannot combine with verify") {
		t.Errorf("SetVerify on a fast-forward run: %v, want the table's refusal", err)
	}
	if observed > 0 {
		t.Errorf("the refused run reported progress %d times", observed)
	}
}

// TestCheckpointRefusesBeforeSimulating: a streamed scenario with
// task-targeted arrivals is refused by RunToCheckpoint before any
// event is simulated, not by the engine's snapshot at the boundary.
func TestCheckpointRefusesBeforeSimulating(t *testing.T) {
	loaded, err := Load(filepath.Join("..", "testdata", "scenarios", "open-arrivals.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc := loaded.Scenario()
	sc.Collect = &Collect{Mode: CollectStream}
	sys, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var spill bytes.Buffer
	sys.SpillTrace(&spill)
	if _, err := sys.RunToCheckpoint(sc.Horizon / 2); err == nil || !strings.Contains(err.Error(), "task-targeted arrivals") {
		t.Errorf("RunToCheckpoint = %v, want the task-targeted arrivals refusal", err)
	}
	if spill.Len() > 0 {
		t.Errorf("the refused run spilled %d bytes", spill.Len())
	}
}
