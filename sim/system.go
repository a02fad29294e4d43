package sim

import (
	"fmt"
	"io"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/aperiodic"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// System is a validated, not-yet-run simulation. Build with
// FromScenario or Load; each Run compiles a fresh instance, so a
// System may be run repeatedly (every run is identical — all
// randomness is seeded by the scenario).
type System struct {
	sc    Scenario
	spill io.Writer
	// progress, when set (by ObserveProgress), is teed into the run's
	// sink chain to report the advancing virtual clock.
	progress *progressSink
	// resume, when set (by Resume), makes Run continue the checkpointed
	// run instead of starting from time zero.
	resume *Checkpoint
}

// SpillTrace streams the trace's text encoding to w during the run —
// the same bytes RunResult.WriteLog would produce afterwards. It is
// how a streaming-collection run (collect mode CollectStream) keeps
// its event stream without the in-memory log; on a retained run
// it simply tees the log as it is recorded. Pass nil to disable.
func (s *System) SpillTrace(w io.Writer) { s.spill = w }

// SetVerify toggles the online invariant oracle on an already-built
// system (the post-load equivalent of the scenario's "verify": true —
// how cmd/rtrun -check arms it on a loaded file).
func (s *System) SetVerify(on bool) { s.sc.Verify = on }

// ObserveProgress registers fn to observe the run's advancing virtual
// clock: it is called from the engine loop with the instant of the
// first event recorded at or after each successive `every` boundary,
// so a long-horizon run reports roughly horizon/every times. The
// callback runs synchronously on the engine goroutine — keep it fast
// and non-blocking (rtserved's SSE progress stream hands the value to
// a channel). every must be positive; fn nil disarms. Watching is not
// a feature of the run, so it combines with everything, fast-forward
// included (the jump shows as one step of the clock). Checkpoint
// segments, up to RunToCheckpoint and after Resume, ignore it.
func (s *System) ObserveProgress(every Duration, fn func(at Duration)) {
	if fn == nil || every.D() <= 0 {
		s.progress = nil
		return
	}
	s.progress = &progressSink{every: every.D(), fn: fn}
}

// progressSink throttles trace events into ObserveProgress callbacks:
// one comparison per event, a callback only when the virtual clock
// crosses the next boundary.
type progressSink struct {
	every vtime.Duration
	next  vtime.Time
	fn    func(Duration)
}

func (p *progressSink) Append(e trace.Event) {
	if !e.At.Before(p.next) {
		p.fn(Duration(e.At.Sub(0)))
		p.next = e.At.Add(p.every)
	}
}

// FromScenario validates a declarative scenario into a System.
func FromScenario(sc Scenario) (*System, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &System{sc: sc}, nil
}

// Scenario returns the underlying declarative spec, e.g. to encode it
// back to JSON with scenario.Encode.
func (s *System) Scenario() Scenario { return s.sc }

// RunResult is the outcome of one scenario run.
type RunResult struct {
	// Scenario echoes the spec that produced the run.
	Scenario Scenario
	// Log is the recorded time series (the paper's log file). Empty
	// under streaming collection — use System.SpillTrace to keep the
	// stream, and Report (accumulated online) for the summaries.
	Log *trace.Log
	// Report summarizes jobs and tasks. Retained runs reconstruct it
	// from the log (per-job records included); streaming runs
	// accumulate it online (task summaries and sketch-backed
	// percentiles only — Report.Jobs is nil).
	Report *metrics.Report
	// Admission is the pre-run feasibility report (nil when the
	// scenario skipped admission control).
	Admission *analysis.Report
	// Allowance is the tolerance analysis (nil without admission). The
	// run computed only the columns its treatment reads; the table
	// computes the others on first read.
	Allowance *allowance.Table
	// Detections counts detector-flagged faults.
	Detections int64
	// Switches counts dispatch switches.
	Switches int64
	// SkippedCycles is the number of whole hyperperiod cycles a
	// fast-forward run extrapolated analytically (zero when
	// fast-forward was off or never detected a steady state).
	SkippedCycles int64
	// Served maps each declared server task name to its per-request
	// service outcomes.
	Served map[string][]aperiodic.Served
}

// Summary renders the per-task report.
func (r *RunResult) Summary() string { return r.Report.Render() }

// SuccessRatio is the fraction of released jobs that met their
// deadline.
func (r *RunResult) SuccessRatio() float64 { return r.Report.SuccessRatio() }

// WriteLog encodes the trace log (the format cmd/rtchart consumes).
func (r *RunResult) WriteLog(w io.Writer) error { return r.Log.Encode(w) }

// Policies returns the names of all registered scheduling policies.
func Policies() []string { return engine.PolicyNames() }

// Run compiles the scenario and simulates it to the horizon. On a
// System built by Resume it continues the checkpointed run instead.
// The run's features are checked first (see features), so a
// combination the platform cannot serve fails before the engine
// starts.
func (s *System) Run() (*RunResult, error) {
	if err := s.features(s.resume != nil).Check(); err != nil {
		return nil, err
	}
	c, err := s.compile(s.resume == nil)
	if err != nil {
		return nil, err
	}
	var r *core.Result
	if s.resume != nil {
		r, err = c.sys.RunFrom(&core.CheckpointState{Engine: s.resume.Engine, Metrics: s.resume.Metrics})
	} else {
		r, err = c.sys.Run()
	}
	if err != nil {
		// An invariant-oracle failure surfaces here after the engine
		// ran: the spilled trace of the violating run is exactly the
		// debugging artefact, so keep it (the run error wins over a
		// flush failure).
		_ = c.flush()
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	res := &RunResult{
		Scenario:      s.sc,
		Log:           r.Log,
		Report:        r.Report,
		Admission:     r.Admission,
		Allowance:     r.Allowance,
		Detections:    r.Detections,
		Switches:      r.Switches,
		SkippedCycles: r.SkippedCycles,
	}
	if len(c.servers) > 0 {
		res.Served = make(map[string][]aperiodic.Served, len(c.servers))
		for name, ps := range c.servers { // order-independent: fills a map
			res.Served[name] = ps.Analyze(res.Log)
		}
	}
	return res, nil
}

// features is what a run of s asks of the platform: the scenario as
// armed now (SetVerify does not re-validate), the spill, and whether
// the run stops at or resumes from a checkpoint.
func (s *System) features(checkpoint bool) scenario.Features {
	return scenario.Features{Scenario: &s.sc, Spill: s.spill != nil, Checkpoint: checkpoint}
}

// compiled is a scenario lowered onto core, plus what a run settles
// afterwards: the spill to flush and the servers whose service it
// analyzes.
type compiled struct {
	sys     *core.System
	spill   *trace.WriterSink
	servers map[string]*aperiodic.PollingServer
}

// flush drains the trace spill, if any.
func (c *compiled) flush() error {
	if c.spill == nil {
		return nil
	}
	if err := c.spill.Flush(); err != nil {
		return fmt.Errorf("sim: spilling trace: %w", err)
	}
	return nil
}

// compile is the one place a scenario becomes a runnable system, for
// Run, RunToCheckpoint and resumed runs alike. Admission control runs
// in core.NewSystem unless the scenario skips it (skip_admission, or
// cpus > 1, which has no uniprocessor admission test — partitioned
// placement is admitted per core by the bin packing in sc.Partition).
// observe tees the ObserveProgress callback into the trace sink.
func (s *System) compile(observe bool) (*compiled, error) {
	sc := s.sc
	// The set is the engine's task order: periodic tasks first, then
	// one task per server.
	set, err := sc.TaskSet()
	if err != nil {
		return nil, err
	}
	plan, err := sc.FaultPlan()
	if err != nil {
		return nil, err
	}
	if plan == nil && len(sc.Servers) > 0 {
		plan = fault.Plan{}
	}
	// Each server's polling model joins the plan. A fault entry
	// declared on a server task composes after the polling model (a
	// buggy server overrunning its declared capacity).
	c := &compiled{servers: make(map[string]*aperiodic.PollingServer, len(sc.Servers))}
	for _, spec := range sc.Servers {
		ps := spec.Server()
		// A source-fed server materializes its request stream from the
		// declared arrival source (up to the horizon) before the
		// polling model is compiled — the model replays a static
		// schedule, so the source resolves here, once, deterministically.
		// Validate never sees those requests, so check them here.
		if reqs, err := sc.ServerRequests(ps.Task.Name); err != nil {
			return nil, err
		} else if reqs != nil {
			ps.Requests = reqs
		}
		if err := ps.Validate(); err != nil {
			return nil, err
		}
		model := ps.Model()
		if declared, ok := plan[ps.Task.Name]; ok {
			model = fault.Chain{model, declared}
		}
		plan[ps.Task.Name] = model
		c.servers[ps.Task.Name] = ps
	}
	tr, err := detect.ParseTreatment(sc.Treatment)
	if err != nil {
		return nil, err
	}
	pol, err := engine.NewPolicy(sc.Policy)
	if err != nil {
		return nil, err
	}
	partition, err := sc.Partition()
	if err != nil {
		return nil, err
	}
	// Task-targeted arrival sources (validation pins them to
	// skip_admission). The slice aligns with the set: periodic tasks
	// first, then server tasks (nil there).
	sources, err := sc.TaskSources()
	if err != nil {
		return nil, err
	}
	var sink trace.Sink
	if s.spill != nil {
		c.spill = trace.NewWriterSink(s.spill)
		sink = c.spill
	}
	if observe && s.progress != nil {
		sink = trace.Tee(s.progress, sink)
	}
	var oracle *verify.Checker
	if sc.Verify {
		if oracle, err = verify.ForScenario(&sc); err != nil {
			return nil, err
		}
	}
	c.sys, err = core.NewSystem(core.Config{
		Tasks:           set,
		Treatment:       tr,
		Faults:          plan,
		Horizon:         sc.Horizon.D(),
		TimerResolution: sc.TimerResolution.D(),
		StopPoll:        sc.StopPoll.D(),
		StopJitterMax:   sc.StopJitterMax.D(),
		Seed:            sc.Seed,
		ContextSwitch:   sc.ContextSwitch.D(),
		Policy:          pol,
		SkipAdmission:   sc.SkipAdmission,
		CPUs:            sc.CPUs,
		Partition:       partition,
		Sources:         sources,
		Stream:          sc.Streaming(),
		TraceSink:       sink,
		FastForward:     sc.FastForward,
		Oracle:          oracle,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}
