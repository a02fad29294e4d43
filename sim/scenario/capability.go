package scenario

import (
	"errors"
	"slices"
	"strconv"
	"strings"

	"repro/internal/detect"
)

// Features is what one run asks of the platform: a scenario's declared
// features plus the two a scenario cannot declare, because they belong
// to the run. Check holds the only statement, above the engine, of
// which features combine: Validate asks it for the scenario alone, and
// package sim asks again before every run (Run, RunToCheckpoint,
// Resume) with the run's own spill and checkpoint set, so a
// combination the platform cannot serve is refused before any
// simulation work. Watching progress (sim.System.ObserveProgress) is
// not a feature: it reads only the virtual clock.
type Features struct {
	Scenario *Scenario
	// Spill is set when the run writes its trace to a caller's writer
	// (sim.System.SpillTrace).
	Spill bool
	// Checkpoint is set when the run stops at a checkpoint or resumes
	// from one.
	Checkpoint bool
}

// Check returns the reason of the first row of rules whose pair of
// facts the features carry, or nil when no row refuses them. It reads
// only fields: each field's grammar is Validate's, and admission and
// bin packing run elsewhere.
func (f Features) Check() error {
	has := f.facts()
	for _, r := range rules {
		if has[r.a] && has[r.b] {
			sc := f.Scenario
			return errors.New(strings.NewReplacer(
				"{treatment}", strconv.Quote(sc.Treatment),
				"{policy}", strconv.Quote(sc.Policy),
				"{arrival}", strconv.Itoa(sc.firstTaskArrival()),
			).Replace(r.reason))
		}
	}
	return nil
}

// fact is one thing the rules read: a feature a run carries, or the
// absence of a feature another one needs.
type fact int

const (
	treated          fact = iota // a fault treatment other than none
	skipsAdmission               // skip_admission
	admits                       // no skip_admission
	notFixedPriority             // a policy other than fixed-priority
	stateful                     // a policy other than fixed-priority and edf
	dOver                        // policy d-over
	streams                      // streaming collection
	retains                      // retained collection
	servers                      // polling servers
	multicore                    // cpus > 1
	taskArrivals                 // a task-targeted arrival source
	arrivals                     // any arrival source
	fastForward                  // fast_forward
	faults                       // a fault plan
	stopJitter                   // stop_jitter_max
	verify                       // the online oracle
	spill                        // a trace spill
	checkpoint                   // a checkpoint
	nFacts
)

// facts computes every fact once per check, into a value that holds
// no pointer.
func (f Features) facts() [nFacts]bool {
	sc := f.Scenario
	tr, err := detect.ParseTreatment(sc.Treatment)
	return [nFacts]bool{
		treated:          err != nil || tr != detect.NoDetection,
		skipsAdmission:   sc.SkipAdmission,
		admits:           !sc.SkipAdmission,
		notFixedPriority: sc.Policy != "" && sc.Policy != "fixed-priority",
		stateful:         sc.Policy != "" && sc.Policy != "fixed-priority" && sc.Policy != "edf",
		dOver:            sc.Policy == "d-over",
		streams:          sc.Streaming(),
		retains:          !sc.Streaming(),
		servers:          len(sc.Servers) > 0,
		multicore:        sc.CPUs > 1,
		taskArrivals:     sc.firstTaskArrival() >= 0,
		arrivals:         len(sc.Arrivals) > 0,
		fastForward:      sc.FastForward,
		faults:           len(sc.Faults) > 0,
		stopJitter:       sc.StopJitterMax > 0,
		verify:           sc.Verify,
		spill:            f.Spill,
		checkpoint:       f.Checkpoint,
	}
}

// firstTaskArrival is the index of the first task-targeted arrival
// source, or -1.
func (sc *Scenario) firstTaskArrival() int {
	return slices.IndexFunc(sc.Arrivals, func(a Arrival) bool { return a.Task != "" })
}

// rule refuses a pair of facts and says why. In reason, {treatment},
// {policy} and {arrival} stand for the quoted treatment, the quoted
// policy and the index of the first task-targeted arrival.
type rule struct {
	a, b   fact
	reason string
}

// rules is the capability table, one row per rule. When features break
// several rules, the first row reports.
var rules = []rule{
	// The paper's own rule: detectors arm on the WCRTs that
	// fixed-priority admission control computes.
	{treated, skipsAdmission, "scenario: skip_admission requires treatment none, got {treatment}"},
	{treated, notFixedPriority, "scenario: policy {policy} cannot combine with treatment {treatment}: detectors presuppose fixed-priority analysis"},

	// cpus > 1 has no admission control to run or skip, and no server
	// or stateful-policy support.
	{multicore, treated, "scenario: treatment {treatment} requires the uniprocessor platform (cpus > 1 supports treatment none only)"},
	{multicore, servers, "scenario: servers require the uniprocessor platform"},
	{multicore, stateful, "scenario: policy {policy} is uniprocessor-only (cpus > 1 supports fixed-priority and edf)"},
	{multicore, skipsAdmission, "scenario: skip_admission is uniprocessor-only (cpus > 1 already bypasses admission control)"},

	{taskArrivals, admits, "scenario: arrival {arrival}: task-targeted sources require skip_admission (open arrivals have no periodic admission analysis)"},
	{streams, servers, `scenario: collect mode "stream" cannot combine with servers: aperiodic service analysis needs the retained log`},

	// Fast-forward jumps whole hyperperiods, so it needs periodic
	// recurrence and no observer of the skipped events. Streaming
	// already excludes servers.
	{fastForward, retains, `scenario: fast_forward requires collect mode "stream"`},
	{fastForward, treated, "scenario: fast_forward requires treatment none (detector timers re-arm every period), got {treatment}"},
	{fastForward, faults, "scenario: fast_forward cannot combine with faults (fault arrivals break hyperperiod periodicity)"},
	{fastForward, arrivals, "scenario: fast_forward cannot combine with arrivals (source-driven releases have no hyperperiod)"},
	{fastForward, stopJitter, "scenario: fast_forward cannot combine with stop_jitter_max (random draws break hyperperiod periodicity)"},
	{fastForward, verify, "scenario: fast_forward cannot combine with verify (extrapolated cycles emit no events to check)"},
	{fastForward, stateful, "scenario: fast_forward requires an order-only policy (fixed-priority or edf), got {policy} — stateful overload policies are not covered by the cycle fingerprint"},
	{fastForward, spill, "sim: fast-forward cannot combine with a trace spill (extrapolated cycles emit no events to spill)"},

	// A checkpoint holds runtime state as plain data: closure-bearing
	// timers, the retained log and source iterators are not, and the
	// oracle's verdict needs the whole trace.
	{checkpoint, treated, "sim: checkpointing requires treatment none, have {treatment}"},
	{checkpoint, servers, "sim: checkpointing cannot combine with polling servers (their timers are not serializable)"},
	{checkpoint, dOver, "sim: policy d-over is not checkpointable (its latest-start-time watchdog holds timers)"},
	{checkpoint, retains, `sim: checkpointing requires streaming collection ("collect": {"mode": "stream"})`},
	{checkpoint, verify, "sim: checkpointing cannot combine with the online oracle; replay the concatenated trace instead"},
	{checkpoint, fastForward, "sim: checkpointing cannot combine with fast-forward (the analytic jump skips the boundary instants a snapshot would capture)"},
	{checkpoint, taskArrivals, "sim: checkpointing cannot combine with task-targeted arrivals (a source's iterator state is not serializable)"},
}
