// Package scenario defines the declarative, JSON-round-trippable
// scenario specification of the public sim API: a task system, a
// fault plan, a scheduling policy, a fault treatment, optional
// aperiodic polling servers and the run parameters (horizon, seed,
// timer resolution, stop-poll granularity and jitter), exactly the
// axes along which the paper parameterizes its platform. A Scenario
// validates structurally here and compiles into a runnable system in
// package sim; the codec (Decode/Encode) pins a canonical JSON form
// so specs stored on disk round-trip byte-for-byte.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/aperiodic"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/taskset"
	"repro/internal/vtime"

	// The overload baselines register their policies at init time, so
	// that Validate recognises "edf", "best-effort", "red", "d-over".
	_ "repro/internal/baselines"
)

// Duration is a vtime.Duration that marshals to the task-table string
// form ("29ms", "1.5ms", "2s") and unmarshals from either that form
// or a bare JSON number of milliseconds.
type Duration vtime.Duration

// D returns the underlying vtime.Duration.
func (d Duration) D() vtime.Duration { return vtime.Duration(d) }

// String renders the duration as vtime does ("29ms").
func (d Duration) String() string { return vtime.Duration(d).String() }

// MarshalJSON encodes the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(vtime.Duration(d).String())
}

// UnmarshalJSON decodes "29ms"-style strings and bare millisecond
// numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var ms int64
		if err := json.Unmarshal(data, &ms); err != nil {
			return fmt.Errorf("scenario: duration %s: want \"29ms\"-style string or milliseconds", data)
		}
		*d = Duration(vtime.Millis(ms))
		return nil
	}
	v, err := vtime.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Task is the declarative form of one periodic task (see
// taskset.Task for the semantics of each field).
type Task struct {
	Name     string   `json:"name"`
	Priority int      `json:"priority"`
	Period   Duration `json:"period"`
	Deadline Duration `json:"deadline"`
	Cost     Duration `json:"cost"`
	Offset   Duration `json:"offset,omitempty"`
	Value    float64  `json:"value,omitempty"`
}

// FromTask converts an in-memory taskset.Task to its spec form.
func FromTask(t taskset.Task) Task {
	return Task{
		Name:     t.Name,
		Priority: t.Priority,
		Period:   Duration(t.Period),
		Deadline: Duration(t.Deadline),
		Cost:     Duration(t.Cost),
		Offset:   Duration(t.Offset),
		Value:    t.Value,
	}
}

// Task converts the spec to the simulator's task model.
func (t Task) Task() taskset.Task {
	return taskset.Task{
		Name:     t.Name,
		Priority: t.Priority,
		Period:   t.Period.D(),
		Deadline: t.Deadline.D(),
		Cost:     t.Cost.D(),
		Offset:   t.Offset.D(),
		Value:    t.Value,
	}
}

// Fault kinds accepted by the codec, mapping onto package fault's
// models.
const (
	// FaultOverrunAt injects Extra into job Job (fault.OverrunAt).
	FaultOverrunAt = "overrun-at"
	// FaultOverrunEvery injects Extra into every Every-th job
	// starting at First (fault.OverrunEvery).
	FaultOverrunEvery = "overrun-every"
	// FaultUnderrunEvery completes every job Early sooner
	// (fault.UnderrunEvery).
	FaultUnderrunEvery = "underrun-every"
	// FaultJitter adds a seeded uniform overrun in [0, Max] to every
	// job (fault.RandomJitter).
	FaultJitter = "jitter"
	// FaultInterference adds Extra to jobs released in [From, To)
	// (fault.Interference; the victim's period and offset are taken
	// from the task spec).
	FaultInterference = "interference"
)

// Fault is one declarative fault-model entry. Kind selects the model;
// the other fields parameterize it, and a field the kind does not
// read must stay zero (validation rejects set-but-ignored fields, so
// a mis-specified fault fails loudly instead of silently running a
// different scenario). A jitter fault with Seed 0 draws from the
// scenario's top-level Seed. Several entries naming the same task
// compose via fault.Chain, in order.
type Fault struct {
	Task  string   `json:"task"`
	Kind  string   `json:"kind"`
	Job   int64    `json:"job,omitempty"`
	First int64    `json:"first,omitempty"`
	Every int64    `json:"every,omitempty"`
	Extra Duration `json:"extra,omitempty"`
	Early Duration `json:"early,omitempty"`
	Max   Duration `json:"max,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`
	From  Duration `json:"from,omitempty"`
	To    Duration `json:"to,omitempty"`
}

// Request is one aperiodic arrival served by a polling server.
type Request struct {
	ID       string   `json:"id"`
	Arrival  Duration `json:"arrival"`
	Cost     Duration `json:"cost"`
	Deadline Duration `json:"deadline,omitempty"`
}

// Server declares an aperiodic polling server: a periodic server task
// (cost = capacity, period = polling period) plus its arrival
// schedule. Admission control sees the server as a plain task.
type Server struct {
	Task     Task      `json:"task"`
	Requests []Request `json:"requests"`
}

// Server converts the spec to the simulator's polling server.
func (s Server) Server() *aperiodic.PollingServer {
	ps := &aperiodic.PollingServer{Task: s.Task.Task()}
	for _, r := range s.Requests {
		ps.Requests = append(ps.Requests, aperiodic.Request{
			ID:       r.ID,
			Arrival:  vtime.Time(r.Arrival),
			Cost:     r.Cost.D(),
			Deadline: r.Deadline.D(),
		})
	}
	return ps
}

// Collection modes accepted by the codec.
const (
	// CollectRetain keeps the full in-memory trace log and per-job
	// records (the default when no collect block is declared).
	CollectRetain = "retain"
	// CollectStream bounds memory for long horizons: metrics are
	// accumulated online, jobs are recycled, and the trace is spilled
	// to a caller-provided sink or discarded.
	CollectStream = "stream"
)

// Collect configures run-data retention. Declaring the block requires
// an explicit mode — an empty or unknown mode is a validation error,
// so a typo cannot silently run with unbounded memory.
type Collect struct {
	// Mode is "retain" or "stream".
	Mode string `json:"mode"`
}

// Placement modes accepted by the codec (multiprocessor scenarios).
const (
	// PlacementGlobal dispatches the M policy-best ready jobs onto
	// the M cores from one shared queue; preempted jobs may resume on
	// a different core (a migration). The default when cpus > 1.
	PlacementGlobal = "global"
	// PlacementPartitioned pins each task to one core via
	// utilization-decreasing bin packing over the exact admission
	// test; each core then schedules its subset independently and
	// nothing ever migrates.
	PlacementPartitioned = "partitioned"
)

// Partitioner heuristics accepted by the codec.
const (
	// PartitionFirstFit packs each task onto the lowest-indexed
	// feasible core (the default).
	PartitionFirstFit = "first-fit"
	// PartitionBestFit packs each task onto the feasible core with
	// the highest resulting utilization.
	PartitionBestFit = "best-fit"
)

// Treatment names are validated through detect.ParseTreatment — the
// single mapping behind the codec, sim.ParseTreatment and the verify
// oracle — so the vocabulary cannot drift between them.

// Scenario is the complete declarative description of one simulation.
// The zero values mean: fixed-priority policy, no detection, no
// faults, no servers, exact detector timers, 1 ms stop poll, no stop
// jitter, seed 0.
type Scenario struct {
	// Name and Description label the scenario in listings and logs.
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Tasks is the periodic task system (required).
	Tasks []Task `json:"tasks"`
	// Policy names a registered scheduling policy ("fixed-priority",
	// "edf", "best-effort", "red", "d-over"; empty = fixed-priority).
	Policy string `json:"policy,omitempty"`
	// CPUs is the number of identical processors (0 or 1 = the
	// paper's uniprocessor platform). Multiprocessor runs support
	// only treatment none, no servers, and the fixed-priority/edf
	// policies, and bypass the uniprocessor admission control —
	// global dispatch runs unconditionally; partitioned placement is
	// admitted per core by the bin packing itself.
	CPUs int `json:"cpus,omitempty"`
	// Placement selects the multiprocessor dispatch mode ("global" or
	// "partitioned"; empty = global). Only valid with cpus > 1.
	Placement string `json:"placement,omitempty"`
	// Partitioner names the bin-packing heuristic of partitioned
	// placement ("first-fit" or "best-fit"; empty = first-fit). Only
	// valid with placement "partitioned".
	Partitioner string `json:"partitioner,omitempty"`
	// Treatment selects the paper's fault response: none | detect |
	// stop | equitable | system (empty = none).
	Treatment string `json:"treatment,omitempty"`
	// Faults is the declarative fault plan.
	Faults []Fault `json:"faults,omitempty"`
	// Servers declares aperiodic polling servers appended to the set.
	Servers []Server `json:"servers,omitempty"`
	// Arrivals declares arrival sources (open stochastic arrivals or
	// trace replay) targeting either periodic tasks (replacing their
	// release law; requires skip_admission) or polling servers
	// (feeding their request stream). See Arrival.
	Arrivals []Arrival `json:"arrivals,omitempty"`
	// Horizon is the simulated duration (required, positive).
	Horizon Duration `json:"horizon"`
	// TimerResolution quantizes detector releases (0 = exact; "10ms"
	// reproduces jRate's PeriodicTimer).
	TimerResolution Duration `json:"timer_resolution,omitempty"`
	// StopPoll is the stop-flag poll granularity (§4.1; 0 = 1 ms).
	StopPoll Duration `json:"stop_poll,omitempty"`
	// StopJitterMax bounds the unbounded-cost poll jitter (§4.1).
	StopJitterMax Duration `json:"stop_jitter_max,omitempty"`
	// ContextSwitch charges a per-dispatch overhead.
	ContextSwitch Duration `json:"context_switch,omitempty"`
	// Seed drives the run's randomness: the §4.1 stop jitter, and
	// any jitter fault that does not carry its own seed.
	Seed uint64 `json:"seed,omitempty"`
	// SkipAdmission runs without the paper's admission control —
	// required for overload scenarios that are deliberately
	// infeasible. Only valid with Treatment none.
	SkipAdmission bool `json:"skip_admission,omitempty"`
	// Collect selects run-data retention (nil = retain everything).
	// Streaming collection cannot combine with servers: the aperiodic
	// service analysis reads the retained log.
	Collect *Collect `json:"collect,omitempty"`
	// FastForward enables steady-state cycle detection: the engine
	// fingerprints each hyperperiod boundary and extrapolates the
	// remaining whole cycles once two consecutive boundaries match,
	// simulating only the transient and the tail. Requires streaming
	// collection and treatment none, and excludes faults, servers,
	// stop jitter, verify and non-order-only policies — everything
	// that breaks periodicity or observes the skipped events.
	FastForward bool `json:"fast_forward,omitempty"`
	// Verify enables the online invariant oracle: every trace event
	// is checked against the scheduling axioms as it is recorded and
	// the run fails on any violation (see internal/verify). Works in
	// both collection modes.
	Verify bool `json:"verify,omitempty"`
}

// Streaming reports whether the scenario declares streaming
// collection.
func (sc *Scenario) Streaming() bool {
	return sc.Collect != nil && sc.Collect.Mode == CollectStream
}

// Validate checks the scenario structurally: task-set invariants
// (including server tasks), known policy and treatment names, fault
// entries referencing declared tasks, and a positive horizon.
func (sc *Scenario) Validate() error {
	if _, err := sc.TaskSet(); err != nil {
		return err
	}
	if _, err := engine.NewPolicy(sc.Policy); err != nil {
		return err
	}
	if _, err := detect.ParseTreatment(sc.Treatment); err != nil {
		return fmt.Errorf("scenario: unknown treatment %q (want none|detect|stop|equitable|system)", sc.Treatment)
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("scenario: horizon must be positive, got %v", sc.Horizon)
	}
	if !treatmentIsNone(sc.Treatment) {
		if sc.SkipAdmission {
			return fmt.Errorf("scenario: skip_admission requires treatment none, got %q", sc.Treatment)
		}
		// Mirrors core.NewSystem's rule so Load/FromScenario reject
		// what Run would: detectors presuppose fixed-priority
		// response-time analysis.
		if sc.Policy != "" && sc.Policy != "fixed-priority" {
			return fmt.Errorf("scenario: policy %q cannot combine with treatment %q: detectors presuppose fixed-priority analysis", sc.Policy, sc.Treatment)
		}
	}
	if err := sc.validateMulticore(); err != nil {
		return err
	}
	if _, err := sc.FaultPlan(); err != nil {
		return err
	}
	for i, srv := range sc.Servers {
		if err := srv.Server().Validate(); err != nil {
			return fmt.Errorf("scenario: server %d: %w", i, err)
		}
	}
	if err := sc.validateArrivals(); err != nil {
		return err
	}
	if sc.Collect != nil {
		switch sc.Collect.Mode {
		case CollectRetain, CollectStream:
		default:
			return fmt.Errorf("scenario: unknown collect mode %q (want %q|%q)",
				sc.Collect.Mode, CollectRetain, CollectStream)
		}
		if sc.Streaming() && len(sc.Servers) > 0 {
			return fmt.Errorf("scenario: collect mode %q cannot combine with servers: aperiodic service analysis needs the retained log", CollectStream)
		}
	}
	if err := sc.validateFastForward(); err != nil {
		return err
	}
	return nil
}

// validateFastForward pins the fast_forward eligibility grammar: the
// flag may only combine with configurations whose hyperperiod cycles
// provably repeat and whose observers tolerate the analytic jump.
func (sc *Scenario) validateFastForward() error {
	if !sc.FastForward {
		return nil
	}
	if !sc.Streaming() {
		return fmt.Errorf("scenario: fast_forward requires collect mode %q", CollectStream)
	}
	if !treatmentIsNone(sc.Treatment) {
		return fmt.Errorf("scenario: fast_forward requires treatment none (detector timers re-arm every period), got %q", sc.Treatment)
	}
	if len(sc.Faults) > 0 {
		return fmt.Errorf("scenario: fast_forward cannot combine with faults (fault arrivals break hyperperiod periodicity)")
	}
	if len(sc.Servers) > 0 {
		return fmt.Errorf("scenario: fast_forward cannot combine with servers (aperiodic arrivals break hyperperiod periodicity)")
	}
	if len(sc.Arrivals) > 0 {
		return fmt.Errorf("scenario: fast_forward cannot combine with arrivals (source-driven releases have no hyperperiod)")
	}
	if sc.StopJitterMax > 0 {
		return fmt.Errorf("scenario: fast_forward cannot combine with stop_jitter_max (random draws break hyperperiod periodicity)")
	}
	if sc.Verify {
		return fmt.Errorf("scenario: fast_forward cannot combine with verify (extrapolated cycles emit no events to check)")
	}
	switch sc.Policy {
	case "", "fixed-priority", "edf":
	default:
		return fmt.Errorf("scenario: fast_forward requires an order-only policy (fixed-priority or edf), got %q — stateful overload policies are not covered by the cycle fingerprint", sc.Policy)
	}
	return nil
}

// validateMulticore checks the cpus/placement/partitioner axis: the
// codec's set-but-ignored strictness (placement without cpus, a
// partitioner without partitioned placement, skip_admission on a
// platform that has no admission control) plus the multiprocessor
// feature restrictions.
func (sc *Scenario) validateMulticore() error {
	if sc.CPUs < 0 {
		return fmt.Errorf("scenario: cpus must be non-negative, got %d", sc.CPUs)
	}
	if sc.CPUs <= 1 {
		if sc.Placement != "" {
			return fmt.Errorf("scenario: placement %q requires cpus > 1", sc.Placement)
		}
		if sc.Partitioner != "" {
			return fmt.Errorf("scenario: partitioner %q requires placement %q", sc.Partitioner, PlacementPartitioned)
		}
		return nil
	}
	switch sc.Placement {
	case "", PlacementGlobal:
		if sc.Partitioner != "" {
			return fmt.Errorf("scenario: partitioner %q requires placement %q", sc.Partitioner, PlacementPartitioned)
		}
	case PlacementPartitioned:
		switch sc.Partitioner {
		case "", PartitionFirstFit, PartitionBestFit:
		default:
			return fmt.Errorf("scenario: unknown partitioner %q (want %q|%q)", sc.Partitioner, PartitionFirstFit, PartitionBestFit)
		}
	default:
		return fmt.Errorf("scenario: unknown placement %q (want %q|%q)", sc.Placement, PlacementGlobal, PlacementPartitioned)
	}
	if !treatmentIsNone(sc.Treatment) {
		return fmt.Errorf("scenario: treatment %q requires the uniprocessor platform (cpus > 1 supports treatment none only)", sc.Treatment)
	}
	if len(sc.Servers) > 0 {
		return fmt.Errorf("scenario: servers require the uniprocessor platform")
	}
	switch sc.Policy {
	case "", "fixed-priority", "edf":
	default:
		return fmt.Errorf("scenario: policy %q is uniprocessor-only (cpus > 1 supports fixed-priority and edf)", sc.Policy)
	}
	if sc.SkipAdmission {
		return fmt.Errorf("scenario: skip_admission is uniprocessor-only (cpus > 1 already bypasses admission control)")
	}
	if sc.Partitioned() {
		if _, err := sc.Partition(); err != nil {
			return err
		}
	}
	return nil
}

// Partitioned reports whether the scenario declares partitioned
// multiprocessor placement.
func (sc *Scenario) Partitioned() bool {
	return sc.CPUs > 1 && sc.Placement == PlacementPartitioned
}

// Partition computes the task-index→core assignment of a partitioned
// scenario by running the declared bin-packing heuristic (first-fit
// decreasing unless "best-fit" is named) over the exact uniprocessor
// admission test. It returns nil for global and uniprocessor
// scenarios, and an error when the heuristic finds no feasible
// packing — a partitioned scenario that cannot be placed is invalid.
func (sc *Scenario) Partition() ([]int, error) {
	if !sc.Partitioned() {
		return nil, nil
	}
	set, err := sc.TaskSet()
	if err != nil {
		return nil, err
	}
	pack := sched.FirstFitDecreasing
	if sc.Partitioner == PartitionBestFit {
		pack = sched.BestFitDecreasing
	}
	assignment, err := pack(set, sc.CPUs)
	if err != nil {
		return nil, fmt.Errorf("scenario: partitioned placement: %w", err)
	}
	return assignment, nil
}

// TaskSet builds the validated task set of the scenario, periodic
// tasks first, then one task per declared server.
func (sc *Scenario) TaskSet() (*taskset.Set, error) {
	if len(sc.Tasks) == 0 {
		return nil, fmt.Errorf("scenario: no tasks declared")
	}
	tasks := make([]taskset.Task, 0, len(sc.Tasks)+len(sc.Servers))
	for _, t := range sc.Tasks {
		tasks = append(tasks, t.Task())
	}
	for _, srv := range sc.Servers {
		tasks = append(tasks, srv.Task.Task())
	}
	return taskset.New(tasks...)
}

// FaultPlan compiles the declarative fault entries into a fault.Plan
// (not including server polling models — package sim wires those when
// it builds the runnable system).
func (sc *Scenario) FaultPlan() (fault.Plan, error) {
	if len(sc.Faults) == 0 {
		return nil, nil
	}
	plan := fault.Plan{}
	for i, f := range sc.Faults {
		spec := sc.taskByName(f.Task)
		if spec == nil {
			return nil, fmt.Errorf("scenario: fault %d targets unknown task %q", i, f.Task)
		}
		m, err := f.model(*spec, sc.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: fault %d (%s): %w", i, f.Task, err)
		}
		if prev, ok := plan[f.Task]; ok {
			if chain, isChain := prev.(fault.Chain); isChain {
				plan[f.Task] = append(chain, m)
			} else {
				plan[f.Task] = fault.Chain{prev, m}
			}
		} else {
			plan[f.Task] = m
		}
	}
	return plan, nil
}

func treatmentIsNone(name string) bool {
	tr, err := detect.ParseTreatment(name)
	return err == nil && tr == detect.NoDetection
}

func (sc *Scenario) taskByName(name string) *Task {
	for i := range sc.Tasks {
		if sc.Tasks[i].Name == name {
			return &sc.Tasks[i]
		}
	}
	for i := range sc.Servers {
		if sc.Servers[i].Task.Name == name {
			return &sc.Servers[i].Task
		}
	}
	return nil
}

func (f Fault) model(victim Task, scenarioSeed uint64) (fault.Model, error) {
	if err := f.checkFields(); err != nil {
		return nil, err
	}
	switch f.Kind {
	case FaultOverrunAt:
		return fault.OverrunAt{Job: f.Job, Extra: f.Extra.D()}, nil
	case FaultOverrunEvery:
		return fault.OverrunEvery{First: f.First, K: f.Every, Extra: f.Extra.D()}, nil
	case FaultUnderrunEvery:
		return fault.UnderrunEvery{Early: f.Early.D()}, nil
	case FaultJitter:
		seed := f.Seed
		if seed == 0 {
			seed = scenarioSeed
		}
		return fault.NewRandomJitter(seed, f.Max.D()), nil
	case FaultInterference:
		return fault.Interference{
			Offset: victim.Offset.D(),
			Period: victim.Period.D(),
			From:   vtime.Time(f.From),
			To:     vtime.Time(f.To),
			Extra:  f.Extra.D(),
		}, nil
	default:
		return nil, fmt.Errorf("unknown fault kind %q", f.Kind)
	}
}

// checkFields rejects parameter fields the selected kind does not
// read, extending the codec's strictness from field names to field
// relevance.
func (f Fault) checkFields() error {
	type uses struct{ job, first, every, extra, early, max, seed, window bool }
	var u uses
	switch f.Kind {
	case FaultOverrunAt:
		u = uses{job: true, extra: true}
	case FaultOverrunEvery:
		u = uses{first: true, every: true, extra: true}
	case FaultUnderrunEvery:
		u = uses{early: true}
	case FaultJitter:
		u = uses{max: true, seed: true}
	case FaultInterference:
		u = uses{extra: true, window: true}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	var dead []string
	if !u.job && f.Job != 0 {
		dead = append(dead, "job")
	}
	if !u.first && f.First != 0 {
		dead = append(dead, "first")
	}
	if !u.every && f.Every != 0 {
		dead = append(dead, "every")
	}
	if !u.extra && f.Extra != 0 {
		dead = append(dead, "extra")
	}
	if !u.early && f.Early != 0 {
		dead = append(dead, "early")
	}
	if !u.max && f.Max != 0 {
		dead = append(dead, "max")
	}
	if !u.seed && f.Seed != 0 {
		dead = append(dead, "seed")
	}
	if !u.window && (f.From != 0 || f.To != 0) {
		dead = append(dead, "from/to")
	}
	if len(dead) > 0 {
		return fmt.Errorf("kind %q does not use field(s): %s", f.Kind, strings.Join(dead, ", "))
	}
	return nil
}
