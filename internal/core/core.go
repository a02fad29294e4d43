// Package core is the library facade of the reproduction: it wires
// admission control (package analysis), the allowance computation
// (package allowance), the simulated real-time platform (package
// engine) and the fault detectors and treatments (package detect)
// into a single System that mirrors the paper's workflow — parse the
// tasks, run admission control, start the system with detectors, and
// collect the time-series log.
package core

import (
	"fmt"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/vtime"
)

// Config assembles a fault-tolerant real-time system run.
type Config struct {
	// Tasks is the periodic task system.
	Tasks *taskset.Set
	// Treatment selects the paper's fault response (§4); the zero
	// value is NoDetection (Figure 3).
	Treatment detect.Treatment
	// Faults injects cost overruns per task (nil = fault free).
	Faults fault.Plan
	// Horizon is the simulated duration (must be positive).
	Horizon vtime.Duration
	// TimerResolution quantizes detector releases (0 = exact;
	// detect.DefaultTimerResolution reproduces jRate's 10 ms).
	TimerResolution vtime.Duration
	// StopPoll is the stop-flag poll granularity (§4.1; 0 = 1 ms).
	StopPoll vtime.Duration
	// StopJitterMax bounds the unbounded-cost poll jitter (§4.1).
	StopJitterMax vtime.Duration
	// Seed drives all randomness (stop jitter).
	Seed uint64
	// ContextSwitch charges a dispatch-switch overhead.
	ContextSwitch vtime.Duration
	// Policy orders ready jobs; nil means the paper's preemptive
	// fixed-priority scheduler. Non-default policies only combine
	// with NoDetection: the detectors' WCRT arming presupposes
	// fixed-priority response-time analysis.
	Policy engine.Policy
	// SkipAdmission bypasses the paper's admission control: the run
	// starts without a feasibility report, allowance table or
	// supervisor (overload studies run deliberately infeasible sets).
	// It requires NoDetection, and CPUs > 1 implies it — there is no
	// uniprocessor admission test to apply to a multiprocessor.
	SkipAdmission bool
	// CPUs is the number of identical processors (0 or 1 = the
	// paper's uniprocessor).
	CPUs int
	// Partition, when non-nil, pins task i to core Partition[i]
	// (partitioned dispatch); nil with CPUs > 1 dispatches globally.
	Partition []int
	// Sources, when non-empty, aligns index-for-index with
	// Tasks.Tasks: a non-nil entry replaces that task's periodic
	// release law with source-driven releases (engine.Config.Sources).
	Sources []taskset.Source
	// Collect selects run-data retention: engine.Retain (default)
	// keeps the full event log, and the Report comes from
	// metrics.Analyze; engine.Stream bounds memory for long horizons —
	// the Report comes from a streaming metrics.Accumulator and
	// Result.Log stays empty.
	Collect engine.Collect
	// TraceSink, when non-nil, receives every trace event as it is
	// recorded: alongside the log under Retain, instead of it under
	// Stream (spill-to-disk via trace.NewWriterSink; the caller
	// flushes after Run). Under FastForward it sees no events for the
	// extrapolated cycles.
	TraceSink trace.Sink
	// FastForward enables the engine's steady-state cycle detection:
	// once two consecutive hyperperiod boundaries fingerprint equal,
	// the remaining whole cycles are extrapolated analytically and only
	// the tail is simulated (engine/fastforward.go). engine.New refuses
	// what the jump cannot serve; the TraceSink and the Oracle see no
	// events for the extrapolated cycles. Which features combine with
	// it is stated once, in the scenario capability table
	// (sim/scenario.Features), which package sim asks before a run.
	FastForward bool
	// Oracle, when non-nil, is the online invariant oracle (package
	// verify): every trace event is checked against the scheduling
	// axioms as it is recorded — in Retain and Stream collection
	// alike — and Run fails with a wrapped *verify.Error on any
	// violation. Build it for the same system (verify.ForScenario
	// does so for a scenario); a Checker serves one run.
	Oracle *verify.Checker
}

// Result is the outcome of a run.
type Result struct {
	// Log is the recorded time series (the paper's log file).
	Log *trace.Log
	// Report summarizes jobs and tasks from the log.
	Report *metrics.Report
	// Admission is the pre-run feasibility report.
	Admission *analysis.Report
	// Allowance is the tolerance analysis of an admitted run, under
	// every treatment (nil when admission control was skipped). The
	// run computed only the columns its treatment reads; the table
	// computes the others on first read.
	Allowance *allowance.Table
	// Detections counts detector-flagged faults.
	Detections int64
	// Switches counts dispatch switches (overhead sweeps).
	Switches int64
	// SkippedCycles counts the hyperperiod cycles fast-forward
	// extrapolated instead of simulating (zero unless
	// Config.FastForward engaged).
	SkippedCycles int64
}

// System is a configured, not-yet-run reproduction instance.
type System struct {
	cfg Config
	// sup and adm are nil when admission control was skipped.
	sup *detect.Supervisor
	adm *analysis.Report
}

// NewSystem validates the configuration and performs the paper's
// admission control. It fails when the declared system is not
// theoretically feasible — the paper's detectors presuppose an
// admitted system whose WCRTs exist. With SkipAdmission (or CPUs > 1)
// no admission control runs and the system carries no supervisor.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Tasks == nil {
		return nil, fmt.Errorf("core: no tasks configured")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: horizon must be positive")
	}
	if cfg.Policy != nil && cfg.Policy.Name() != (engine.FixedPriority{}).Name() &&
		cfg.Treatment != detect.NoDetection {
		return nil, fmt.Errorf("core: policy %q cannot combine with treatment %v: detectors presuppose fixed-priority analysis", cfg.Policy.Name(), cfg.Treatment)
	}
	if cfg.SkipAdmission || cfg.CPUs > 1 {
		if cfg.Treatment != detect.NoDetection {
			return nil, fmt.Errorf("core: treatment %v requires admission control (detectors arm on the admitted WCRTs)", cfg.Treatment)
		}
		return &System{cfg: cfg}, nil
	}
	adm, err := analysis.Feasible(cfg.Tasks)
	if err != nil {
		return nil, err
	}
	if !adm.Feasible {
		return nil, fmt.Errorf("core: admission control rejects the system (misses: %v)", adm.Misses)
	}
	sup, err := detect.NewSupervisorFromReport(cfg.Tasks, adm, detect.Config{
		Treatment:       cfg.Treatment,
		TimerResolution: cfg.TimerResolution,
	})
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, sup: sup, adm: adm}, nil
}

// Admission returns the pre-run feasibility report (nil when
// admission control was skipped).
func (s *System) Admission() *analysis.Report { return s.adm }

// Allowance returns the tolerance table backing the treatments (nil
// when admission control was skipped). Columns the treatment did not
// read are computed on first read.
func (s *System) Allowance() *allowance.Table {
	if s.sup == nil {
		return nil
	}
	return s.sup.Table()
}

// Supervisor exposes the detector supervisor (for dynamic admission;
// nil when admission control was skipped).
func (s *System) Supervisor() *detect.Supervisor { return s.sup }

// Run simulates the system to the horizon and returns the result.
// Run may be called once per System; build a fresh System to re-run.
func (s *System) Run() (*Result, error) {
	return s.RunWith(nil)
}

// RunWith exposes the engine to a caller-driven scenario (dynamic
// admission examples): setup runs after detectors are attached and
// may schedule events on the engine before it starts.
func (s *System) RunWith(setup func(e *engine.Engine, sup *detect.Supervisor)) (*Result, error) {
	p, err := s.prepare(setup)
	if err != nil {
		return nil, err
	}
	log := p.eng.Run()
	return s.finish(p, log)
}

// prepared is a wired-but-not-yet-run instance: the engine with its
// sink chain (accumulator, oracle, spill) assembled and the
// supervisor attached.
type prepared struct {
	eng *engine.Engine
	acc *metrics.Accumulator
}

// prepare assembles the sink chain and the engine — everything RunWith
// does before eng.Run(). Split out so the checkpoint entry points
// (RunToCheckpoint, RunFrom) reuse the exact wiring of a plain run.
func (s *System) prepare(setup func(e *engine.Engine, sup *detect.Supervisor)) (*prepared, error) {
	var acc *metrics.Accumulator
	sink := s.cfg.TraceSink
	if s.cfg.Collect == engine.Stream {
		// Streaming: the accumulator summarizes the event stream in
		// place of the post-hoc Analyze; the optional TraceSink sees
		// the same events (Tee skips it when nil).
		acc = metrics.NewAccumulator()
		sink = trace.Tee(acc, sink)
	}
	var obs engine.CycleObserver
	if s.cfg.FastForward {
		// The accumulator doubles as the cycle observer so the metrics
		// stay exact across the analytic jump.
		obs = acc
	}
	if s.cfg.Oracle != nil {
		sink = trace.Tee(s.cfg.Oracle, sink)
	}
	var hooks engine.Hooks
	if s.sup != nil {
		hooks = s.sup.Hooks()
	}
	eng, err := engine.New(engine.Config{
		Tasks:         s.cfg.Tasks,
		Sources:       s.cfg.Sources,
		Faults:        s.cfg.Faults,
		End:           vtime.Time(s.cfg.Horizon),
		Policy:        s.cfg.Policy,
		StopPoll:      s.cfg.StopPoll,
		StopJitterMax: s.cfg.StopJitterMax,
		Seed:          s.cfg.Seed,
		ContextSwitch: s.cfg.ContextSwitch,
		CPUs:          s.cfg.CPUs,
		Partition:     s.cfg.Partition,
		Collect:       s.cfg.Collect,
		Sink:          sink,
		FastForward:   s.cfg.FastForward,
		Observer:      obs,
		Hooks:         hooks,
	})
	if err != nil {
		return nil, err
	}
	if s.sup != nil {
		s.sup.Attach(eng)
	}
	if setup != nil {
		setup(eng, s.sup)
	}
	return &prepared{eng: eng, acc: acc}, nil
}

// finish settles a completed run: oracle verdict, report, result.
func (s *System) finish(p *prepared, log *trace.Log) (*Result, error) {
	if s.cfg.Oracle != nil {
		if verr := s.cfg.Oracle.FinishErr(); verr != nil {
			return nil, fmt.Errorf("core: invariant oracle: %w", verr)
		}
	}
	var rep *metrics.Report
	if p.acc != nil {
		rep = p.acc.Report()
	} else {
		rep = metrics.Analyze(log)
	}
	res := &Result{
		Log:           log,
		Report:        rep,
		Admission:     s.adm,
		Switches:      p.eng.Switches(),
		SkippedCycles: p.eng.SkippedCycles(),
	}
	if s.sup != nil {
		res.Allowance = s.sup.Table()
		res.Detections = s.sup.Detections()
	}
	return res, nil
}

// CheckpointState pairs the two halves of a mid-run snapshot: the
// engine's scheduling state and the streaming accumulator's metric
// state. Together with the originating Config they are everything a
// resumed run needs; the sim facade wraps them with the scenario into
// a self-contained file format.
type CheckpointState struct {
	Engine  *engine.Checkpoint
	Metrics *metrics.AccumulatorState
}

// RunToCheckpoint simulates the system up to instant at (exclusive of
// later events), then snapshots it. Events strictly before or at `at`
// have fired; the partial trace reaches cfg.TraceSink; the returned
// state resumes with RunFrom on a fresh System built from the same
// Config. Like Run, it consumes the System. The engine's Snapshot
// refuses what it cannot serialize (Retain collection, detector and
// other timers in flight, arrival sources).
func (s *System) RunToCheckpoint(at vtime.Duration) (*CheckpointState, error) {
	p, err := s.prepare(nil)
	if err != nil {
		return nil, err
	}
	if err := p.eng.RunUntil(vtime.Time(at)); err != nil {
		return nil, err
	}
	ecp, err := p.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	return &CheckpointState{Engine: ecp, Metrics: p.acc.State()}, nil
}

// RunFrom restores a checkpoint into this (not-yet-run) System and
// completes the horizon. The System must be built from the Config that
// produced the checkpoint; the resumed segment's events reach
// cfg.TraceSink, and the returned Report covers the whole run —
// segment one arrives inside the checkpoint's accumulator state.
func (s *System) RunFrom(cp *CheckpointState) (*Result, error) {
	if cp == nil || cp.Engine == nil || cp.Metrics == nil {
		return nil, fmt.Errorf("core: RunFrom needs both engine and metrics state")
	}
	p, err := s.prepare(nil)
	if err != nil {
		return nil, err
	}
	// The engine restores first: it refuses Retain collection, the
	// one configuration without an accumulator to restore into.
	if err := p.eng.Restore(cp.Engine); err != nil {
		return nil, err
	}
	if err := p.acc.RestoreState(cp.Metrics); err != nil {
		return nil, err
	}
	log := p.eng.Run()
	return s.finish(p, log)
}
