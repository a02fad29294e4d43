// Package sim is the public facade of the reproduction: it exposes
// the simulator (admission control, detectors, treatments, scheduling
// policies, fault injection, aperiodic servers) through one front
// door, the declarative, JSON-round-trippable Scenario (package
// sim/scenario). Write it as a Go literal and build it with
// FromScenario:
//
//	s, err := sim.FromScenario(sim.Scenario{
//		Tasks:     tasks,
//		Treatment: "stop",
//		Faults:    []sim.Fault{{Task: "tau1", Kind: sim.FaultOverrunAt, Job: 5, Extra: sim.Millis(40)}},
//		Horizon:   sim.Millis(1500),
//	})
//	res, err := s.Run()
//
// or decode it from disk with Load:
//
//	s, err := sim.Load("testdata/scenarios/figure5.json")
//	res, err := s.Run()
//
// Both validate the same value and compile it into the same internal
// core.System, so a literal and the equivalent file produce
// byte-identical traces.
//
// The package also hosts two name→factory registries: scheduling
// policies (fixed-priority plus the overload baselines edf,
// best-effort, red, d-over — see Policies) and experiments (the
// paper's tables, figures and extension sweeps — see Experiments),
// so new workloads and artefacts need zero code changes in the tools.
package sim

import (
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// Re-exported spec types: a Go literal and the JSON codec share one
// vocabulary, so any system can be serialized and vice versa.
type (
	// Scenario is the declarative description of one simulation.
	Scenario = scenario.Scenario
	// Task declares one periodic task.
	Task = scenario.Task
	// Fault declares one fault-model entry.
	Fault = scenario.Fault
	// Server declares an aperiodic polling server.
	Server = scenario.Server
	// Request is one aperiodic arrival.
	Request = scenario.Request
	// Arrival declares one arrival source (open stochastic arrivals
	// or trace replay) targeting a task or a polling server.
	Arrival = scenario.Arrival
	// TraceRecord is one (release, cost, deadline) record of a
	// trace-driven arrival source.
	TraceRecord = scenario.TraceRecord
	// Duration is a JSON-friendly vtime.Duration ("29ms").
	Duration = scenario.Duration
	// Collect declares the run-data retention mode.
	Collect = scenario.Collect
)

// Collection modes, re-exported from sim/scenario.
const (
	// CollectRetain keeps the full log and per-job records (default).
	CollectRetain = scenario.CollectRetain
	// CollectStream accumulates metrics online with bounded memory.
	CollectStream = scenario.CollectStream
)

// Multiprocessor placement modes and partitioning heuristics,
// re-exported from sim/scenario.
const (
	PlacementGlobal      = scenario.PlacementGlobal
	PlacementPartitioned = scenario.PlacementPartitioned
	PartitionFirstFit    = scenario.PartitionFirstFit
	PartitionBestFit     = scenario.PartitionBestFit
)

// Fault kinds, re-exported from sim/scenario.
const (
	FaultOverrunAt     = scenario.FaultOverrunAt
	FaultOverrunEvery  = scenario.FaultOverrunEvery
	FaultUnderrunEvery = scenario.FaultUnderrunEvery
	FaultJitter        = scenario.FaultJitter
	FaultInterference  = scenario.FaultInterference
)

// Arrival source kinds, re-exported from sim/scenario.
const (
	ArrivalPoisson = scenario.ArrivalPoisson
	ArrivalMMPP    = scenario.ArrivalMMPP
	ArrivalTrace   = scenario.ArrivalTrace
)

// Millis is a convenience for building specs: n milliseconds.
func Millis(n int64) Duration { return Duration(vtime.Millis(n)) }

// Load builds a system from a scenario JSON file.
func Load(path string) (*System, error) {
	sc, err := scenario.DecodeFile(path)
	if err != nil {
		return nil, err
	}
	return &System{sc: *sc}, nil
}
