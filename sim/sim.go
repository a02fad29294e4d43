// Package sim is the public facade of the reproduction: it exposes
// the simulator (admission control, detectors, treatments, scheduling
// policies, fault injection, aperiodic servers) through two
// equivalent front doors —
//
//   - a functional-options builder:
//
//     s, err := sim.New(
//     sim.WithTasks(tasks...),
//     sim.WithTreatment("stop"),
//     sim.WithFaults(sim.Fault{Task: "tau1", Kind: sim.FaultOverrunAt, Job: 5, Extra: sim.Millis(40)}),
//     sim.WithHorizon(vtime.Millis(1500)),
//     )
//     res, err := s.Run()
//
//   - a declarative, JSON-round-trippable Scenario spec (package
//     sim/scenario) loaded from disk:
//
//     s, err := sim.Load("testdata/scenarios/figure5.json")
//     res, err := s.Run()
//
// Both compile into the same internal core.System, so a scenario file
// and the equivalent builder calls produce byte-identical traces.
//
// The package also hosts two name→factory registries: scheduling
// policies (fixed-priority plus the overload baselines edf,
// best-effort, red, d-over — see Policies) and experiments (the
// paper's tables, figures and extension sweeps — see Experiments),
// so new workloads and artefacts need zero code changes in the tools.
package sim

import (
	"os"

	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// Re-exported spec types: the builder and the JSON codec share one
// vocabulary, so any built system can be serialized and vice versa.
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

// Option mutates the scenario under construction.
type Option func(*Scenario) error

// New builds a system from functional options and validates it.
func New(opts ...Option) (*System, error) {
	var sc Scenario
	for _, opt := range opts {
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	return FromScenario(sc)
}

// Load builds a system from a scenario JSON file.
func Load(path string) (*System, error) {
	sc, err := scenario.DecodeFile(path)
	if err != nil {
		return nil, err
	}
	return &System{sc: *sc}, nil
}

// WithName labels the scenario.
func WithName(name string) Option {
	return func(sc *Scenario) error { sc.Name = name; return nil }
}

// WithTasks appends task specs to the scenario.
func WithTasks(tasks ...Task) Option {
	return func(sc *Scenario) error { sc.Tasks = append(sc.Tasks, tasks...); return nil }
}

// WithTaskSet appends an in-memory task set to the scenario.
func WithTaskSet(s *taskset.Set) Option {
	return func(sc *Scenario) error {
		for _, t := range s.Tasks {
			sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
		}
		return nil
	}
}

// WithTaskFile appends the tasks parsed from a task-description file
// (the paper's text format, see taskset.Parse).
func WithTaskFile(path string) Option {
	return func(sc *Scenario) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		s, err := taskset.Parse(f)
		if err != nil {
			return err
		}
		for _, t := range s.Tasks {
			sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
		}
		return nil
	}
}

// WithPolicy selects a registered scheduling policy by name.
func WithPolicy(name string) Option {
	return func(sc *Scenario) error { sc.Policy = name; return nil }
}

// WithTreatment selects the paper's fault response by name: none |
// detect | stop | equitable | system (long forms like
// "stop-equitable" and "system-allowance" are accepted too).
func WithTreatment(name string) Option {
	return func(sc *Scenario) error { sc.Treatment = name; return nil }
}

// WithFaults appends fault entries to the scenario's plan.
func WithFaults(faults ...Fault) Option {
	return func(sc *Scenario) error { sc.Faults = append(sc.Faults, faults...); return nil }
}

// WithServer appends an aperiodic polling server.
func WithServer(srv Server) Option {
	return func(sc *Scenario) error { sc.Servers = append(sc.Servers, srv); return nil }
}

// WithArrivals appends arrival sources: open stochastic arrival
// processes (ArrivalPoisson, ArrivalMMPP) or a recorded trace replay
// (ArrivalTrace), each targeting either a periodic task (replacing
// its release law — requires WithoutAdmission) or a polling server
// (feeding its request stream). The scenario JSON equivalent is the
// "arrivals" block.
func WithArrivals(arrivals ...Arrival) Option {
	return func(sc *Scenario) error { sc.Arrivals = append(sc.Arrivals, arrivals...); return nil }
}

// WithHorizon sets the simulated duration.
func WithHorizon(d vtime.Duration) Option {
	return func(sc *Scenario) error { sc.Horizon = Duration(d); return nil }
}

// WithTimerResolution quantizes detector releases (jRate's
// PeriodicTimer is 10 ms; zero means exact timers).
func WithTimerResolution(d vtime.Duration) Option {
	return func(sc *Scenario) error { sc.TimerResolution = Duration(d); return nil }
}

// WithStopPoll sets the stop-flag poll granularity (§4.1).
func WithStopPoll(d vtime.Duration) Option {
	return func(sc *Scenario) error { sc.StopPoll = Duration(d); return nil }
}

// WithStopJitter bounds the unbounded-cost poll jitter (§4.1).
func WithStopJitter(max vtime.Duration) Option {
	return func(sc *Scenario) error { sc.StopJitterMax = Duration(max); return nil }
}

// WithContextSwitch charges a per-dispatch overhead.
func WithContextSwitch(d vtime.Duration) Option {
	return func(sc *Scenario) error { sc.ContextSwitch = Duration(d); return nil }
}

// WithSeed seeds the run's randomness: the §4.1 stop jitter, and any
// jitter fault without its own seed.
func WithSeed(seed uint64) Option {
	return func(sc *Scenario) error { sc.Seed = seed; return nil }
}

// WithoutAdmission skips the paper's admission control (and with it
// the allowance analysis and the supervisor) — required for
// deliberately overloaded scenarios. Only valid with treatment none.
func WithoutAdmission() Option {
	return func(sc *Scenario) error { sc.SkipAdmission = true; return nil }
}

// WithCPUs sets the number of identical processors (0 or 1 = the
// paper's uniprocessor platform). Multiprocessor runs support only
// treatment none, no servers, and the fixed-priority/edf policies;
// dispatch defaults to global — see WithPlacement.
func WithCPUs(n int) Option {
	return func(sc *Scenario) error { sc.CPUs = n; return nil }
}

// WithPlacement selects the multiprocessor dispatch mode: "global"
// (one shared ready queue, jobs may migrate between cores) or
// "partitioned" (each task pinned to a core by utilization-decreasing
// bin packing, no migration). Requires WithCPUs(n) for n > 1.
func WithPlacement(mode string) Option {
	return func(sc *Scenario) error { sc.Placement = mode; return nil }
}

// WithPartitioner names the bin-packing heuristic of partitioned
// placement: "first-fit" (default) or "best-fit". Requires
// WithPlacement("partitioned").
func WithPartitioner(name string) Option {
	return func(sc *Scenario) error { sc.Partitioner = name; return nil }
}

// WithVerify enables the online invariant oracle: the run's trace is
// checked event by event against the scheduling axioms (timestamp
// monotonicity, single-CPU occupancy, release/deadline resolution,
// policy-consistent dispatch order, detector timing, per-task
// conservation, server budgets) and Run fails with a wrapped
// *verify.Error on any violation. The scenario JSON equivalent is
// "verify": true.
func WithVerify() Option {
	return func(sc *Scenario) error { sc.Verify = true; return nil }
}

// WithFastForward arms hyperperiod cycle detection: the engine
// fingerprints the scheduling state at every hyperperiod boundary and,
// once two consecutive boundaries match, extrapolates the remaining
// whole cycles analytically instead of simulating them — long horizons
// cost O(transient + one cycle + tail). Counts and summaries are
// exact; streamed percentiles keep the sketch's rank-error guarantee.
// Requires streaming collection and treatment none; faults, servers,
// stop jitter, the online oracle and trace spilling are incompatible
// (validation and Run reject the combinations). The scenario JSON
// equivalent is "fast_forward": true.
func WithFastForward() Option {
	return func(sc *Scenario) error { sc.FastForward = true; return nil }
}

// WithCollection selects the run-data retention mode: CollectRetain
// (the default — full log and per-job records) or CollectStream
// (bounded memory for long horizons: online metrics accumulation, no
// retained jobs or log; see System.SpillTrace for keeping the event
// stream). Unknown modes fail validation.
func WithCollection(mode string) Option {
	return func(sc *Scenario) error {
		sc.Collect = &scenario.Collect{Mode: mode}
		return nil
	}
}
