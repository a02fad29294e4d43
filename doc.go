// Package repro is a from-scratch Go reproduction of "Fault Tolerance
// with Real-Time Java" (Damien Masson and Serge Midonnet, WPDRTS/IPPS
// 2006): admission control for fixed-priority periodic task systems
// (exact worst-case response-time analysis with arbitrary deadlines),
// temporal-fault detectors armed at each task's WCRT, and three fault
// treatments (immediate stop, equitable allowance, system allowance).
//
// The paper ran on the jRate RTSJ virtual machine over a TimeSys
// real-time kernel; this reproduction substitutes a deterministic
// discrete-event uniprocessor simulator with a nanosecond virtual
// clock (Go's garbage collector makes wall-clock hard real time
// unattainable, and virtual time makes every published figure exactly
// and deterministically reproducible). The README's "Experiments"
// section lists every reproduced table, figure and extension sweep
// with the command that regenerates it.
//
// Layout:
//
//   - sim — the public facade: the declarative Scenario spec, and
//     the policy and experiment registries (start here)
//   - sim/scenario — the JSON scenario codec (canonical, strict)
//   - internal/analysis — admission control (paper Section 2)
//   - internal/allowance — tolerance factors (Section 4.2/4.3)
//   - internal/detect — detectors and treatments (Sections 3–4)
//   - internal/engine — the simulated RT platform
//   - internal/rtsj — RTSJ-flavoured API (RealtimeThreadExtended…)
//   - internal/baselines — best-effort/RED/D-over comparators
//   - internal/experiments — one constructor per table and figure
//   - internal/runner — the parallel experiment-execution substrate
//   - internal/serve — the simulation-as-a-service HTTP layer
//     (content-addressed result cache, admission control, SSE)
//   - internal/verify — the online invariant oracle (+ gen, the
//     scenario fuzzer and shrinker)
//   - cmd/rtrun, cmd/rtchart, cmd/rtfeas, cmd/rtexp, cmd/rtworker,
//     cmd/rtserved, cmd/rtload — tools
//   - examples/ — runnable walkthroughs (examples/scenario shows
//     the sim facade end to end)
//
// # Public simulation API
//
// Package repro/sim is the supported entry point for building
// workloads. A simulation is described by one declarative,
// JSON-round-trippable value, sim.Scenario: written as a Go literal
// and built with sim.FromScenario, or decoded from disk with sim.Load.
// Both validate it and compile it into the same internal core.System.
// That compilation is one path for every run — admitted, overload
// (skip_admission), multiprocessor, checkpointed or resumed: the
// scenario's skip_admission, cpus, partition and arrival sources
// become core.Config fields, and core.System alone wires admission,
// allowance, detectors, the oracle and the engine. Two name→factory
// registries make the description fully declarative: scheduling
// policies (fixed-priority plus the overload baselines; see
// sim.Policies) and experiments (every paper table, figure and
// extension sweep; see sim.Experiments). cmd/rtrun
// -scenario runs a spec file end to end, and cmd/rtexp -list
// enumerates the experiment registry.
//
// # Allowance on demand
//
// An admitted run runs admission control (analysis.Feasible) once:
// core.NewSystem hands its report to the supervisor
// (detect.NewSupervisorFromReport). The allowance table is lazy per
// column, and the supervisor reads only what its treatment uses: none,
// detect and stop arm their detectors on the WCRTs alone, equitable
// reads the equitable allowance and its shifted WCRTs (Table 3), and
// system the per-task maximum overruns. core.Result.Allowance,
// core.System.Allowance and sim.RunResult.Allowance compute any other
// column on first read; allowance.Compute, which cmd/rtfeas and the
// experiments use, returns every column computed.
//
// The columns that are read are cheaper. analysis.Analyzer sorts a
// set's priority order once, and an allowance probe edits its scratch
// cost vector instead of cloning the set. Each search bisects up to
// the first granularity multiple past D − C, where the overrunning
// task misses its deadline by definition.
// TestTableMatchesReference pins every column to the former
// full-clone doubling search on over 1 000 sets at 1 ms and 1 µs.
//
// # Parallel experiment execution
//
// Every simulation sweep (X1, X2, X3, X5 and the X4 baseline
// comparison) submits its independent simulations to
// internal/runner, a context-aware worker
// pool that shards jobs across GOMAXPROCS goroutines behind a bounded
// queue. Three properties make the parallel path safe to use for
// reproduction artefacts:
//
//   - results are collected in input order, so rendered tables are
//     byte-identical to a serial run (cross-checked by tests and by
//     BenchmarkParallelSpeedup);
//   - no simulation shares RNG state — each job derives its own
//     SplitMix64 seed via runner.DeriveSeed;
//   - cancellation (rtexp ^C) stops submission promptly, and a
//     failing simulation cancels the remainder while every observed
//     error is aggregated via errors.Join.
//
// cmd/rtexp exposes the pool: -parallel N picks the worker count
// (0 = all cores), -serial forces the one-at-a-time path, -progress
// reports live done/total counts on stderr, and -json switches the
// artefacts to machine-readable JSON lines. X9 (the blocking
// trade-off) is a single closed-form analysis rather than a
// simulation sweep, so it runs inline and ignores those knobs.
//
// # Streaming collection
//
// The engine has one event path and no collection mode: every event
// goes to its sink (engine.Config.Sink), and it keeps no log of its
// own and a Job record only while its job is live — a record comes
// from a pool at release and goes back at termination, and what
// happened to a job afterwards is read from the events. Whether a run
// keeps its events is decided in one place, package core. A run
// retains, by default, every trace event: core tees a trace.Log it
// owns into the engine's sink chain and analyzes it after the run —
// memory linear in the horizon, but little time. trace.Log packs each
// event into a pointer-free varint record of about 7 bytes that names
// its task by an index into the log's table of names, in byte chunks
// that double from 2 KiB up to 64 KiB, so growth never copies a
// recorded byte and a short run allocates a short log.
// metrics.Analyze rebuilds the jobs in one pass, finding each event's
// task by its table index and each job through a per-task index, with
// no map entry or pointer per job. On BenchmarkCollectRetain10m a
// retained run costs 132 bytes per job against the streamed run's 12
// (2-core container, go1.24.0).
// Streaming collection (the scenario "collect" block, mode
// sim.CollectStream, rtrun -stream) bounds memory for long-horizon and
// soak runs: core keeps no log and tees a metrics.Accumulator into the
// sink chain, which maintains per-task counts, success
// ratios, response min/mean/max and an ε-approximate quantile sketch
// online, optionally beside a trace.WriterSink that spills the
// byte-identical text log to disk (System.SpillTrace, rtrun
// -trace-out). The accumulator keeps one record per task — summary,
// sketch, fast-forward cycle bookkeeping and the task's live jobs in a
// short q-ordered slice — so an event costs one task-name lookup and a
// short scan, and a job allocates nothing. Streaming reports equal
// retained reports exactly on every summary field; percentiles carry
// a ±εn rank-error bound (metrics.DefaultSketchEpsilon). Only a
// streamed run fast-forwards or checkpoints: a retained log would miss
// the extrapolated cycles, and a checkpoint cannot carry it, so core
// refuses both on a retained config before building the engine.
// Cross-mode equivalence, the sketch bound, and the allocation-free
// steady state (TestAccumulatorSteadyStateAllocFree) are pinned by
// tests and by BenchmarkCollectRetain10m/BenchmarkCollectStream10m.
//
// # Typed event loop
//
// The engine's core loop dispatches typed, pointer-free event records
// (release, deadline check, completion prediction) through a switch
// instead of heap-allocated closures, so the steady-state loop
// allocates nothing per event; only external timers — detectors,
// supervisor stops, test hooks — carry a callback. Cancellation is
// eager: the event heap tracks the position of every cancellable
// entry, a job's deadline check is removed the instant the job
// finishes, and each core's completion prediction is updated in
// place, so the heap stays proportional to the live work (pending
// jobs + one release per task + one completion per core + external
// timers) rather than accumulating stale entries behind epoch guards.
// A completion is rekeyed only when its instant moves — a dispatch, a
// stop request, a context-switch charge — because the heap orders it
// by rule rather than by insertion: at equal instant and class, a
// completion runs after every other event, and completions run in
// core order. Every loop step ends by re-predicting the completions,
// so that rule is exactly the order a fresh push per step once gave. Dispatch pops the
// next job from an incrementally maintained policy-ordered ready
// queue — O(log tasks) per update — replacing the historical
// O(tasks) scan, which makes hundreds-of-tasks systems a first-class
// scenario dimension (the X10 sweep, rtexp -exp x10). Behavioural
// equivalence with the pre-rework engine is pinned byte-for-byte by
// the trace goldens under testdata/goldens.
//
// # Multiprocessor scheduling
//
// The paper's platform is a uniprocessor and every uniprocessor run
// is byte-identical to what it always was, but the engine itself is
// M-core (the scenario "cpus" field, rtrun -cpus).
// Global dispatch — the default — feeds all M cores from one shared
// policy-ordered ready queue, running the M policy-best ready jobs
// at every scheduling instant; a preempted job may resume on another
// core, recorded as a trace "migrate" event with the core id carried
// on begin/resume/preempt. The running set is kept incrementally, as
// in LITMUS^RT's global schedulers: the ready queue holds only the
// waiting heads, a free core takes the ready top, and the ready top
// displaces the policy-worst running job only while it beats it, so
// an event usually costs zero or one comparison and a completion
// refills only its own core. Partitioned dispatch (the scenario
// "placement": "partitioned") instead pins every task to one core
// before the run via utilization-decreasing bin packing —
// sched.FirstFitDecreasing by default, sched.BestFitDecreasing with
// "partitioner": "best-fit" — each core's feasibility proved by the paper's exact
// response-time analysis; cores then schedule independently and jobs
// never migrate. Multiprocessor runs skip admission control (it and
// the fault treatments are uniprocessor machinery), so
// cpus > 1 admits treatment "none", no servers, and the
// fixed-priority/edf policies only — the strict codec rejects
// anything else. Checkpoints serialize per-core running state, the
// invariant oracle generalizes (per-core occupancy, migration
// legality, work conservation), and the x13 registry entry (rtexp
// -exp x13, run by make ci) sweeps seeded task sets under both
// disciplines, requiring global dispatch to succeed at least as
// often as any feasible partition of the same set, and some global
// run to migrate.
//
// # Verification
//
// Beyond the byte-pinned goldens, internal/verify is an online
// invariant oracle: a trace.Sink that checks every recorded event
// against the scheduling axioms — monotone timestamps, single
// occupancy per core (with migration legality and work conservation
// on M-core runs), releases exactly per the task's declared release
// law — strictly periodic, or record-for-record against a fresh
// replay of its arrival source — resolved by their deadlines,
// policy-consistent dispatch order (fixed-priority exact, the EDF
// family via recomputed keys), no newly waiting job outranking a
// running one at a settled instant (a missed preemption), detector
// fires at the paper's
// latest-detection bound, per-task conservation, and server budgets.
// Arm it with core.Config.Oracle, the scenario "verify": true,
// sim.System.SetVerify, or rtrun -check; a violation fails the run with a
// *verify.Error naming each breach. internal/verify/gen fuzzes the
// scenario space (seeded UUniFast task sets × fault chains × policies
// × servers × collection modes × core counts) and shrinks a failing
// scenario to a
// minimal reproducer under testdata/shrunk. The x11 registry entry
// (rtexp -exp x11, run by make ci) sweeps 60 generated scenarios
// through the oracle in both collection modes and cross-checks the
// retained and streamed reports; go test -fuzz=FuzzScenario
// ./internal/verify/gen explores open-endedly, and the goldens
// themselves are replayed through the oracle so they stay valid
// semantically as well as byte-wise.
//
// # Open arrivals and trace replay
//
// The paper's model is strictly periodic; internal/taskset's Source
// abstraction opens it. A scenario "arrivals" block (rtrun -arrive)
// replaces a task's periodic release law with a seeded stochastic
// source — "poisson" (exponential inter-arrivals) or
// "mmpp" (a two-state Markov-modulated Poisson process for bursty
// traffic) — or with "trace", the replay of a recorded arrival log
// whose records carry per-release cost and deadline overrides.
// Task-targeted sources require skip_admission (open arrivals have no
// periodic admission analysis, so the run skips it), while
// server-targeted sources generate an aperiodic server's request
// stream in place of a static list. The trace grammar is canonical
// JSONL with strictly increasing releases — out-of-order input is
// rejected, not sorted — so ParseTrace ∘ EncodeTrace is the
// byte-for-byte identity; rtserved refuses path-referenced traces
// (their bytes are invisible to the content digest) but serves inline
// records. Sources are deterministic per seed, so the oracle replays
// each one independently and checks every release record for record,
// including arrivals due before the horizon that never released. The
// x15 registry entry (rtexp -exp x15, run by make ci) sweeps 18
// seeded scenarios across all three kinds in both collection modes,
// KS-tests realized Poisson gaps against the declared law, and
// round-trips every trace.
//
// # Checkpoints and process-sharded sweeps
//
// Engine state is serializable: with streaming collection, treatment
// "none" and no aperiodic servers, a run's complete dynamic state —
// virtual clock, typed event heap, per-task release/budget/job state,
// RNG and fault-model positions, plus the metrics.Accumulator
// (counters and mergeable quantile sketches) — round-trips through a
// versioned canonical-JSON checkpoint. sim.System.RunToCheckpoint
// stops at an instant and returns one; sim.Resume (rtrun -checkpoint
// / -resume on the command line) completes it, possibly in another
// process. The differential guarantee, pinned across fuzzed scenarios
// (FuzzCheckpoint) and at every split fraction, is exact: the two
// trace spills concatenate byte-identically to the unsplit run's
// trace and the final report is equal on every field, percentiles
// included.
//
// Serializable state is what lets sweeps shard across processes, not
// just goroutines: internal/runner.MapProc fans jobs out to worker
// subprocesses over a JSON-lines stdin/stdout protocol (re-dispatching
// on worker death), and sim.ShardedSweep runs scenario batches on
// such workers — each streams back its serialized accumulator state,
// which the parent merges (metrics sketches merge with summed ε
// bounds) or compares per-scenario. Workers are the re-executed
// parent binary (sim.RunShardWorkerIfEnv) or the standalone
// cmd/rtworker, so non-Go orchestrators can dispatch too. The x12
// registry entry (rtexp -exp x12, run by make ci) proves
// process-sharded ≡ serial across a 24-scenario sweep.
//
// # Fast-forward
//
// Strictly periodic task sets revisit the same scheduling state every
// hyperperiod once transients drain, so long horizons mostly
// re-simulate one cycle. With fast-forward (the scenario
// "fast_forward" field, rtrun -fast-forward) the engine
// fingerprints its clock-relative state at each hyperperiod boundary
// (FNV-1a over the event heap, pending/running jobs, release
// positions and RNG); when two consecutive boundaries match it jumps
// the remaining whole cycles analytically — counts and response
// moments scale linearly, the quantile sketch absorbs the repeated
// cycle via metrics.ScaleMerge (total rank error at most 2ε however
// many cycles are skipped), and clock/heap/release state shift by a
// multiple of the hyperperiod — then simulates the tail. That turns
// O(horizon) runs into O(transient + one cycle): ~931× at a 10-hour
// horizon (BenchmarkEngineFastForward, with derived
// fastforward_speedup rows in BENCH_engine.json). Eligibility is
// strict because the jump is exact only under deterministic periodic
// recurrence with no observer of the skipped events; the capability
// table (scenario.Features, sim/scenario/capability.go) states each
// rule once, and validation, Run, RunToCheckpoint and Resume ask it
// before the engine starts. Watching progress is not a feature, so a
// fast-forwarded run may be observed (rtserved's SSE stream). The x14
// registry entry (rtexp -exp x14, run by make ci) pins the
// differential: 48 seeded eligible scenarios run full (oracle armed,
// retained) and fast-forwarded, with exact agreement required on
// every count and moment and percentiles inside the widened ±2εn
// rank window.
//
// # Serving
//
// cmd/rtserved (over internal/serve) exposes the simulator as a
// long-running HTTP/JSON service: POST a canonical scenario document
// to /v1/simulate and receive exactly the report a local rtrun
// -scenario run prints — byte-equal, pinned by test — in a JSON
// envelope or raw via ?format=report. Results are deduplicated
// through a content-addressed cache keyed by scenario.Digest (SHA-256
// of the canonical scenario bytes plus scenario.SchemaVersion, so an
// engine behaviour change invalidates every stale key): repeat
// requests are cache hits, and N concurrent identical POSTs are
// single-flighted into one simulation. A raw-body index in front of
// the digest keys each entry by the SHA-256 of request bodies exactly
// as received, recorded once a body has decoded, passed the path
// check and been digested; an exact byte repeat joins its entry
// without decoding or digesting and answers the same bytes. An entry
// keeps at most 4 raw keys, which leave with it on eviction or a
// failed run. A body is read whole under the body cap: past the cap
// it is a 413 even when a valid document ends first, and anything but
// whitespace after the document is a 400. Work is admitted onto a
// bounded internal/runner pool; a full accept queue sheds load with
// HTTP 429 + Retry-After rather than queueing without bound, and GET
// /healthz + GET /metrics (counters including raw_hits, queue depth,
// in-flight, cache and raw-index sizes, and a GK-sketch latency
// histogram) make the shedding observable.
// ?stream=sse upgrades a request to server-sent events carrying
// queued/progress/result. cmd/rtload is the matching load generator:
// paced open-loop bursts over a scenario mix with exit-code
// assertions on the p99 SLO (-slo-p99), on observed shedding
// (-min-throttled), and with -unique to defeat the cache and load
// the simulators themselves. scripts/serve_smoke.sh (make
// serve-smoke, run by make ci) pins the whole contract end to end.
//
// The benchmark harness in bench_test.go regenerates every published
// artefact (go test -bench=. -benchmem); make bench-json distills the
// BENCH_engine.json/BENCH_stream.json artefacts, and
// scripts/bench_gate.sh gates CI against the committed baseline under
// bench/history (>15% events/sec loss fails).
package repro
