// Package gen fuzzes the scenario space the ROADMAP targets: it
// derives, deterministically from a seed, a random-but-valid
// declarative scenario — a UUniFast task set composed with random
// fault chains (overrun / underrun / jitter / interference), a
// registered scheduling policy, optional aperiodic polling servers,
// a collection mode, a core count (1, 2, 4 or 8, global or
// partitioned dispatch) and the run knobs (timer resolution, stop
// poll, stop jitter, context switch) — and greedily shrinks a failing
// scenario to a minimal reproducer (see Shrink). Together with the
// invariant oracle of the parent package, every generated scenario is
// a self-verifying experiment: run it with "verify": true and any
// broken scheduling axiom surfaces without a golden to maintain.
package gen

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// policies the generator draws from. The list is pinned rather than
// read from engine.PolicyNames() so that a seed is a *stable*
// reproducer: deriving the draw from the registry would remap every
// seed the moment a new policy registers, invalidating logged failing
// seeds. TestGeneratorPolicyListCurrent fails when the registry grows
// so the extension is made deliberately (append only — order is part
// of the seed mapping).
var policies = []string{"best-effort", "d-over", "edf", "fixed-priority", "red"}

// treatments the generator draws from when the policy admits them
// (detectors presuppose fixed-priority analysis).
var treatments = []string{"none", "detect", "stop", "equitable", "system"}

// faultKinds the generator draws from; FaultOverrunAt and
// FaultOverrunEvery both exercise the overrun family.
var faultKinds = []string{
	scenario.FaultOverrunAt,
	scenario.FaultOverrunEvery,
	scenario.FaultUnderrunEvery,
	scenario.FaultJitter,
	scenario.FaultInterference,
}

// genAttempts bounds the feasibility rejection loop before the
// generator falls back to an overload (skip-admission) scenario.
const genAttempts = 16

// Scenario derives a valid scenario from the seed. The derivation is
// a pure function of the seed: the same seed always yields the same
// scenario (the whole point — a failing seed is a reproducer). The
// result always passes scenario.Validate, and non-overload scenarios
// pass the paper's admission control, so sim can run them directly.
func Scenario(seed uint64) scenario.Scenario {
	r := taskset.NewRand(seed)
	policy := policies[r.Intn(len(policies))]

	treatment := "none"
	if policy == "fixed-priority" {
		treatment = treatments[r.Intn(len(treatments))]
	}
	// Overload scenarios (deliberately infeasible, admission skipped)
	// exercise the shedding paths of the overload baselines and the
	// engine's backlog handling; they require treatment none.
	overload := treatment == "none" && r.Float64() < 0.35

	n := 2 + r.Intn(5) // 2..6 tasks
	util := 0.30 + 0.40*r.Float64()
	if overload {
		util = 1.10 + 0.50*r.Float64()
	}

	var set *taskset.Set
	for attempt := 0; ; attempt++ {
		g := taskset.NewGenerator(r.Uint64())
		g.PeriodMin = 20 * vtime.Millisecond
		g.PeriodMax = 200 * vtime.Millisecond
		g.DeadlineFactor = 0.70 + 0.30*r.Float64()
		s, err := g.Generate(n, util)
		if err != nil {
			panic(fmt.Sprintf("gen: task generation: %v", err)) // generator bug
		}
		if overload {
			set = s
			break
		}
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			set = s
			break
		}
		if attempt == genAttempts-1 {
			// The drawn utilization refuses to admit: run it as an
			// overload scenario instead of looping forever.
			overload, treatment, set = true, "none", s
			break
		}
	}

	sc := scenario.Scenario{
		Name:          fmt.Sprintf("gen-%016x", seed),
		Description:   "seeded random scenario (internal/verify/gen)",
		Policy:        policy,
		Treatment:     treatment,
		Horizon:       scenario.Duration(vtime.Millis(1000 + int64(r.Intn(2000)))),
		Seed:          r.Uint64(),
		SkipAdmission: overload,
	}
	for _, t := range set.Tasks {
		sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
	}

	// Run knobs, each drawn independently.
	if treatment != "none" && r.Float64() < 0.5 {
		sc.TimerResolution = scenario.Duration(10 * vtime.Millisecond)
	}
	if r.Float64() < 0.3 {
		sc.StopPoll = scenario.Duration(vtime.Millis(int64(1 + r.Intn(5))))
	}
	if r.Float64() < 0.3 {
		sc.StopJitterMax = scenario.Duration(r.DurationIn(100*vtime.Microsecond, 2*vtime.Millisecond))
	}
	if r.Float64() < 0.25 {
		sc.ContextSwitch = scenario.Duration(r.DurationIn(10*vtime.Microsecond, 200*vtime.Microsecond))
	}

	stream := r.Float64() < 0.5
	if stream {
		sc.Collect = &scenario.Collect{Mode: scenario.CollectStream}
	} else if !overload && r.Float64() < 0.30 {
		// Aperiodic polling servers only combine with retained
		// collection (the service analysis reads the log) and an
		// admitted system (the server is a task like any other).
		addServer(&sc, r, set)
	}

	for i, k := 0, r.Intn(4); i < k; i++ { // 0..3 fault entries
		addFault(&sc, r)
	}

	// Multiprocessor draw, last in the derivation so every logged seed
	// keeps the task set, faults and knobs it has always produced and
	// only *gains* a core count. Multicore runs support treatment none,
	// no servers and the fixed-priority/edf policies only (the codec
	// enforces it), so the draw is gated the same way.
	if treatment == "none" && len(sc.Servers) == 0 &&
		(policy == "fixed-priority" || policy == "edf") && r.Float64() < 0.30 {
		sc.CPUs = []int{2, 4, 8}[r.Intn(3)]
		// cpus > 1 skips admission control unconditionally; the codec
		// rejects a redundant skip_admission.
		sc.SkipAdmission = false
		if r.Float64() < 0.5 {
			sc.Placement = scenario.PlacementPartitioned
			if r.Float64() < 0.5 {
				sc.Partitioner = scenario.PartitionBestFit
			}
			if _, err := sc.Partition(); err != nil {
				// The drawn set has no feasible packing onto the drawn
				// core count: run it global instead.
				sc.Placement, sc.Partitioner = "", ""
			}
		}
	}

	// Arrival-source draw, after the multicore draw so every logged
	// seed keeps the exact scenario it has always produced and at most
	// gains an arrivals block. Task-targeted sources ride the bare
	// engine only — the codec's skip_admission rule — so the draw is
	// gated on the overload path (which the multicore draw, when it
	// fired, has already cleared).
	if sc.SkipAdmission && r.Float64() < 0.5 {
		addArrival(&sc, r)
	}

	if err := sc.Validate(); err != nil {
		panic(fmt.Sprintf("gen: seed %#x produced an invalid scenario: %v", seed, err)) // generator bug
	}
	return sc
}

// Checkpointable derives a valid *checkpointable* scenario from the
// seed: the Scenario derivation restricted to the states a mid-run
// snapshot can serialize — treatment none, no polling servers,
// streaming collection, and a policy without closure-bearing timers
// (d-over's latest-start-time watchdog remaps to edf; the remap
// preserves the rest of the seed's draw, so a failing seed reproduces
// here the same way it does under Scenario). Its self-check asks the
// capability table with the checkpoint feature set. It feeds the
// checkpoint/resume differential tests and FuzzCheckpoint.
func Checkpointable(seed uint64) scenario.Scenario {
	sc := Scenario(seed)
	sc.Name = fmt.Sprintf("gen-ckpt-%016x", seed)
	sc.Description = "seeded random checkpointable scenario (internal/verify/gen)"
	sc.Treatment = "none"
	sc.TimerResolution = 0 // detector knob; meaningless without detection
	sc.Servers = nil
	sc.Arrivals = nil // a Source's iterator state is opaque to Snapshot
	sc.Collect = &scenario.Collect{Mode: scenario.CollectStream}
	if sc.Policy == "d-over" {
		sc.Policy = "edf"
	}
	if err := errors.Join(sc.Validate(), scenario.Features{Scenario: &sc, Checkpoint: true}.Check()); err != nil {
		panic(fmt.Sprintf("gen: seed %#x produced an invalid checkpointable scenario: %v", seed, err)) // generator bug
	}
	return sc
}

// FastForwardable derives a valid *fast-forward-eligible* scenario
// from the seed: a harmonic-grid task set whose periods all divide
// 200 ms (so the hyperperiod is exactly 200 ms and steady-state cycles
// actually repeat within a testable horizon), treatment none, no
// faults, servers or stop jitter, streaming collection, an order-only
// policy, and "fast_forward": true. It cannot reuse the Scenario
// derivation the way Checkpointable does — UUniFast period draws make
// hyperperiods up to lcm(20..200 ms), far past any testable horizon.
// About a third of the seeds land on 2 or 4 cores (global or
// partitioned) and the horizon deliberately includes a non-multiple
// tail beyond the last whole cycle. It feeds the x14 fast-forward
// differential sweep and FuzzScenario's fast-forward leg.
func FastForwardable(seed uint64) scenario.Scenario {
	r := taskset.NewRand(seed)
	periodsMS := []int64{20, 40, 50, 100, 200} // every entry divides 200 ms
	policy := []string{"fixed-priority", "edf"}[r.Intn(2)]
	cpus := []int{1, 1, 1, 2, 4}[r.Intn(5)]

	n := 2 + r.Intn(5) // 2..6 tasks
	util := (0.30 + 0.35*r.Float64()) * float64(cpus)

	// Draw the set, retrying with a lighter load until the admission
	// test (uniprocessor) or the partitioner (multicore) accepts it.
	var set *taskset.Set
	for attempt := 0; ; attempt++ {
		// UUniFast-style utilization split over the harmonic grid.
		weights := make([]float64, n)
		var total float64
		for i := range weights {
			weights[i] = 0.1 + r.Float64()
			total += weights[i]
		}
		tasks := make([]taskset.Task, n)
		for i := range tasks {
			period := vtime.Millis(periodsMS[r.Intn(len(periodsMS))])
			cost := vtime.Duration(weights[i] / total * util * float64(period))
			cost = cost / (10 * vtime.Microsecond) * (10 * vtime.Microsecond)
			if cost < vtime.Millisecond {
				cost = vtime.Millisecond
			}
			if cost > period {
				cost = period
			}
			t := taskset.Task{
				Name:     fmt.Sprintf("tau%d", i+1),
				Priority: n - i,
				Period:   period,
				Deadline: period,
				Cost:     cost,
			}
			if r.Float64() < 0.30 {
				// Offsets in 10 ms multiples up to two periods: a
				// transient longer than one hyperperiod for some seeds.
				t.Offset = vtime.Millis(10 * int64(r.Intn(int(2*period/vtime.Millis(10)))))
			}
			tasks[i] = t
		}
		s, err := taskset.New(tasks...)
		if err != nil {
			panic(fmt.Sprintf("gen: fast-forward task build: %v", err)) // generator bug
		}
		if cpus > 1 {
			set = s
			break
		}
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			set = s
			break
		}
		if attempt == genAttempts-1 {
			// Refuses to admit at the drawn load: a minimal surely
			// feasible set keeps the seed usable.
			set, _ = taskset.New(taskset.Task{
				Name: "tau1", Priority: 1,
				Period: vtime.Millis(100), Deadline: vtime.Millis(100), Cost: vtime.Millis(10),
			})
			break
		}
		util *= 0.8
	}

	hyper := vtime.Millis(200)
	sc := scenario.Scenario{
		Name:        fmt.Sprintf("gen-ff-%016x", seed),
		Description: "seeded random fast-forward scenario (internal/verify/gen)",
		Policy:      policy,
		Treatment:   "none",
		Seed:        r.Uint64(),
		Collect:     &scenario.Collect{Mode: scenario.CollectStream},
		FastForward: true,
	}
	for _, t := range set.Tasks {
		sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
	}
	// 3..42 whole cycles plus, usually, a partial tail in 10 ms steps.
	sc.Horizon = scenario.Duration(vtime.Duration(3+r.Intn(40))*hyper +
		vtime.Millis(10*int64(r.Intn(20))))
	if r.Float64() < 0.25 {
		sc.ContextSwitch = scenario.Duration(r.DurationIn(10*vtime.Microsecond, 200*vtime.Microsecond))
	}
	if cpus > 1 {
		sc.CPUs = cpus
		if r.Float64() < 0.5 {
			sc.Placement = scenario.PlacementPartitioned
			if r.Float64() < 0.5 {
				sc.Partitioner = scenario.PartitionBestFit
			}
			if _, err := sc.Partition(); err != nil {
				// No feasible packing onto the drawn cores: run global.
				sc.Placement, sc.Partitioner = "", ""
			}
		}
	}

	if err := sc.Validate(); err != nil {
		panic(fmt.Sprintf("gen: seed %#x produced an invalid fast-forward scenario: %v", seed, err)) // generator bug
	}
	return sc
}

// addServer appends a polling server that keeps the system feasible;
// on rejection the scenario simply stays server-free.
func addServer(sc *scenario.Scenario, r *taskset.Rand, set *taskset.Set) {
	maxPrio := 0
	for _, t := range set.Tasks {
		if t.Priority > maxPrio {
			maxPrio = t.Priority
		}
	}
	srvTask := taskset.Task{
		Name:     "server",
		Priority: maxPrio + 1, // a high-priority poller, the common setup
		Period:   vtime.Millis(int64(40 + 20*r.Intn(4))),
		Cost:     vtime.Millis(int64(2 + r.Intn(3))),
	}
	srvTask.Deadline = srvTask.Period
	cand := set.Clone()
	cand.Tasks = append(cand.Tasks, srvTask)
	if rep, err := analysis.Feasible(cand); err != nil || !rep.Feasible {
		return
	}
	srv := scenario.Server{Task: scenario.FromTask(srvTask)}
	horizon := vtime.Duration(sc.Horizon)
	for i, k := 0, 1+r.Intn(4); i < k; i++ {
		srv.Requests = append(srv.Requests, scenario.Request{
			ID:      fmt.Sprintf("req%d", i+1),
			Arrival: scenario.Duration(r.DurationIn(0, horizon/2)),
			Cost:    scenario.Duration(r.DurationIn(500*vtime.Microsecond, 2*vtime.Duration(srvTask.Cost))),
		})
	}
	sc.Servers = append(sc.Servers, srv)
}

// addArrival replaces one random task's periodic release law with a
// drawn arrival source: a Poisson stream, a two-state MMPP, or a
// generated (sorted, validated) trace replay. The oracle re-derives
// every expected release from the same parameters, so each drawn
// source is a self-verifying open-arrival experiment.
func addArrival(sc *scenario.Scenario, r *taskset.Rand) {
	target := sc.Tasks[r.Intn(len(sc.Tasks))]
	a := scenario.Arrival{Task: target.Name}
	switch r.Intn(3) {
	case 0:
		a.Kind = scenario.ArrivalPoisson
		a.Mean = scenario.Duration(r.DurationIn(5*vtime.Millisecond, 80*vtime.Millisecond))
		a.Seed = r.Uint64() | 1 // 0 would fall back to the scenario seed
	case 1:
		a.Kind = scenario.ArrivalMMPP
		a.Mean = scenario.Duration(r.DurationIn(20*vtime.Millisecond, 80*vtime.Millisecond))
		a.BurstMean = scenario.Duration(r.DurationIn(2*vtime.Millisecond, 10*vtime.Millisecond))
		a.Dwell = scenario.Duration(r.DurationIn(100*vtime.Millisecond, 400*vtime.Millisecond))
		a.BurstDwell = scenario.Duration(r.DurationIn(50*vtime.Millisecond, 200*vtime.Millisecond))
		a.Seed = r.Uint64() | 1
	default:
		a.Kind = scenario.ArrivalTrace
		horizon := vtime.Duration(sc.Horizon)
		at := vtime.Duration(0)
		for i, k := 0, 1+r.Intn(12); i < k; i++ {
			at += r.DurationIn(vtime.Millisecond, horizon/6)
			rec := scenario.TraceRecord{
				Release: scenario.Duration(at),
				Cost:    scenario.Duration(r.DurationIn(500*vtime.Microsecond, 5*vtime.Millisecond)),
			}
			if r.Float64() < 0.3 {
				rec.Deadline = scenario.Duration(vtime.Duration(rec.Cost) + r.DurationIn(vtime.Millisecond, 40*vtime.Millisecond))
			}
			a.Records = append(a.Records, rec)
		}
	}
	sc.Arrivals = append(sc.Arrivals, a)
}

// addFault appends one fault entry targeting a random periodic task,
// parameterized relative to the victim's declared timing.
func addFault(sc *scenario.Scenario, r *taskset.Rand) {
	victim := sc.Tasks[r.Intn(len(sc.Tasks))]
	period := vtime.Duration(victim.Period)
	f := scenario.Fault{Task: victim.Name, Kind: faultKinds[r.Intn(len(faultKinds))]}
	switch f.Kind {
	case scenario.FaultOverrunAt:
		f.Job = int64(r.Intn(10))
		f.Extra = scenario.Duration(r.DurationIn(vtime.Millisecond, period))
	case scenario.FaultOverrunEvery:
		f.First = int64(r.Intn(5))
		f.Every = int64(1 + r.Intn(3))
		f.Extra = scenario.Duration(r.DurationIn(vtime.Millisecond, period/2))
	case scenario.FaultUnderrunEvery:
		f.Early = scenario.Duration(r.DurationIn(0, vtime.Duration(victim.Cost)))
	case scenario.FaultJitter:
		f.Max = scenario.Duration(r.DurationIn(100*vtime.Microsecond, 3*vtime.Millisecond))
		f.Seed = r.Uint64()
	case scenario.FaultInterference:
		horizon := vtime.Duration(sc.Horizon)
		from := r.DurationIn(0, horizon/2)
		f.From = scenario.Duration(from)
		f.To = scenario.Duration(from + r.DurationIn(period, horizon/2))
		f.Extra = scenario.Duration(r.DurationIn(vtime.Millisecond, period/2))
	}
	sc.Faults = append(sc.Faults, f)
}
