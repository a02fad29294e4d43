// Command rtrun is the paper's first measurement tool: it parses a
// description of the system, builds and runs the tasks automatically,
// and writes the collected key dates to a log file that cmd/rtchart
// can turn into a time-series chart.
//
// Usage:
//
//	rtrun -tasks system.tasks [-treatment stop] [-horizon 3000]
//	      [-fault tau1:5:40] [-resolution 10] [-o run.log] [-check]
//	rtrun -scenario scenario.json [-o run.log] [-check]
//	rtrun -tasks system.tasks -horizon 3600000 -stream [-trace-out run.log]
//
// The -fault flag injects a cost overrun (task:job:extraMS) like the
// paper's §6 voluntary overrun on the priority task. The -scenario
// flag instead loads a complete declarative scenario (tasks, faults,
// policy, treatment, servers, horizon, seed — see repro/sim/scenario)
// from a JSON file, so arbitrary workloads run with zero code
// changes.
//
// The -arrive flag replaces a task's periodic release law with an
// open arrival source (repeatable, comma separated):
//
//	rtrun -tasks system.tasks -arrive tau1:poisson:30        (meanMS[:seed])
//	rtrun -tasks system.tasks -arrive tau1:mmpp:60:8:400:150 (meanMS:burstMeanMS:dwellMS:burstDwellMS[:seed])
//	rtrun -tasks system.tasks -arrive tau1:trace:run.jsonl   (JSON-lines trace file)
//
// Source-driven releases have no periodic admission analysis, so
// -arrive implies skip_admission (and so treatment none).
// In a scenario file the equivalent is the "arrivals" block, which
// additionally supports inline trace records and server-fed sources.
//
// -stream switches to streaming collection for long horizons: metrics
// are accumulated online with bounded memory instead of retaining
// every job and event, and the summary still prints. The trace is
// discarded unless -trace-out spills it during the run ('-' for
// stdout) — the spilled bytes are identical to the -o log of the same
// retained run. In a scenario file the equivalent is the
// {"collect": {"mode": "stream"}} block.
//
// -cpus runs the task set on M identical processors (treatment none
// only): dispatch defaults to global (one shared ready queue, jobs
// migrate freely) and -placement partitioned instead pins every task
// to one core by utilization-decreasing bin packing (-partitioner
// first-fit or best-fit). In a scenario file the equivalents are the
// "cpus", "placement" and "partitioner" fields:
//
//	rtrun -tasks system.tasks -cpus 4 -placement partitioned -check
//
// -fast-forward arms hyperperiod cycle detection on a streaming run:
// the engine fingerprints the scheduling state at every hyperperiod
// boundary and, once two consecutive boundaries match, extrapolates
// the remaining whole cycles analytically — a 10-hour horizon costs
// milliseconds once the transient settles. Counts and summaries stay
// exact; percentiles keep the streaming sketch's rank-error bound. It
// needs streaming collection and treatment none (no faults, servers
// or stop jitter) and conflicts with -check, -trace-out and
// -checkpoint, which all need the full event stream. The scenario
// file equivalent is "fast_forward": true:
//
//	rtrun -tasks system.tasks -horizon 36000000 -stream -fast-forward
//
// -check arms the online invariant oracle: the run's events are
// validated against the scheduling axioms (see internal/verify) as
// they are recorded, in either collection mode, and the command exits
// non-zero listing the violations if any axiom breaks. The scenario
// file equivalent is "verify": true.
//
// -checkpoint/-checkpoint-at split a run in two: the simulation stops
// at the given instant and writes a self-contained checkpoint JSON
// (scenario + engine + accumulator state); -resume completes it,
// possibly in another process or on another host. The concatenation
// of the two -trace-out spills is byte-identical to the unsplit run's
// trace, and the resumed summary covers the whole run. Checkpoints
// need streaming collection with treatment none and no servers:
//
//	rtrun -scenario long.json -checkpoint half.ckpt -checkpoint-at 1800000
//	rtrun -resume half.ckpt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/vtime"
	"repro/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tasksPath  = fs.String("tasks", "", "task description file (this or -scenario is required)")
		scenPath   = fs.String("scenario", "", "declarative scenario JSON file")
		treatment  = fs.String("treatment", "none", "fault treatment: none|detect|stop|equitable|system")
		horizonMS  = fs.Int64("horizon", 3000, "simulated horizon in milliseconds")
		faultSpec  = fs.String("fault", "", "inject a cost overrun: task:job:extraMS (repeatable, comma separated)")
		arriveSpec = fs.String("arrive", "", "drive a task by an arrival source: task:poisson:meanMS[:seed] | task:mmpp:meanMS:burstMeanMS:dwellMS:burstDwellMS[:seed] | task:trace:file.jsonl (repeatable, comma separated; implies skip_admission)")
		resolution = fs.Int64("resolution", 10, "detector timer resolution in ms (0 = exact)")
		outPath    = fs.String("o", "", "log output file (default stdout)")
		summary    = fs.Bool("summary", true, "print the per-task summary to stderr")
		stream     = fs.Bool("stream", false, "streaming collection: bounded memory, no retained log (long horizons)")
		traceOut   = fs.String("trace-out", "", "stream the trace to this file during the run ('-' for stdout; needs streaming collection)")
		check      = fs.Bool("check", false, "verify the run against the scheduling invariants (online oracle); exit non-zero on any violation")
		cpus       = fs.Int("cpus", 0, "number of identical processors (0 or 1 = the paper's uniprocessor; >1 needs treatment none)")
		placement  = fs.String("placement", "", "multiprocessor dispatch: global|partitioned (needs -cpus > 1)")
		partition  = fs.String("partitioner", "", "partitioned bin-packing heuristic: first-fit|best-fit (needs -placement partitioned)")
		fastFwd    = fs.Bool("fast-forward", false, "extrapolate steady-state hyperperiod cycles analytically (needs streaming collection and treatment none)")
		ckptPath   = fs.String("checkpoint", "", "stop at -checkpoint-at and write a resumable checkpoint JSON to this file")
		ckptAt     = fs.Int64("checkpoint-at", -1, "checkpoint instant in ms from time zero (requires -checkpoint)")
		resumePath = fs.String("resume", "", "resume a run from a checkpoint file written by -checkpoint (replaces -tasks/-scenario)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rtrun:", err)
		return 1
	}
	if (*ckptPath == "") != (*ckptAt < 0) {
		fmt.Fprintln(stderr, "rtrun: -checkpoint and -checkpoint-at go together")
		return 2
	}
	if *resumePath != "" {
		// The checkpoint file carries the whole run description
		// (scenario included), so every flag that would redefine it
		// conflicts. -trace-out and -summary still apply.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tasks", "scenario", "treatment", "horizon", "fault", "arrive",
				"resolution", "stream", "check", "checkpoint", "checkpoint-at", "o",
				"cpus", "placement", "partitioner", "fast-forward":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "rtrun: -%s conflicts with -resume (the checkpoint defines the run)\n", conflict)
			return 2
		}
	} else if (*tasksPath == "") == (*scenPath == "") {
		fmt.Fprintln(stderr, "rtrun: exactly one of -tasks and -scenario is required")
		fs.Usage()
		return 2
	}
	if *scenPath != "" {
		// The scenario file carries the whole run description; a
		// legacy flag set alongside it would be silently ignored or
		// contradicted, so reject the combination outright
		// (-stream's scenario form is the "collect" block).
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "treatment", "horizon", "fault", "arrive", "resolution", "stream",
				"cpus", "placement", "partitioner":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "rtrun: -%s conflicts with -scenario (the scenario file defines the run)\n", conflict)
			return 2
		}
	}
	var (
		sys *sim.System
		err error
	)
	if *resumePath != "" {
		cp, cerr := sim.DecodeCheckpointFile(*resumePath)
		if cerr != nil {
			return fail(cerr)
		}
		sys, err = sim.Resume(cp)
	} else if *scenPath != "" {
		sys, err = sim.Load(*scenPath)
	} else {
		faults, perr := parseFaults(*faultSpec)
		if perr != nil {
			return fail(perr)
		}
		arrivals, perr := parseArrivals(*arriveSpec)
		if perr != nil {
			return fail(perr)
		}
		opts := []sim.Option{
			sim.WithTaskFile(*tasksPath),
			sim.WithTreatment(*treatment),
			sim.WithHorizon(vtime.Millis(*horizonMS)),
			sim.WithTimerResolution(vtime.Millis(*resolution)),
			sim.WithFaults(faults...),
		}
		if len(arrivals) > 0 {
			// Open arrivals have no periodic admission analysis, so
			// -arrive implies skip_admission (validation rejects any
			// other treatment).
			opts = append(opts, sim.WithArrivals(arrivals...), sim.WithoutAdmission())
		}
		if *stream {
			opts = append(opts, sim.WithCollection(sim.CollectStream))
		}
		if *cpus != 0 {
			opts = append(opts, sim.WithCPUs(*cpus))
		}
		if *placement != "" {
			opts = append(opts, sim.WithPlacement(*placement))
		}
		if *partition != "" {
			opts = append(opts, sim.WithPartitioner(*partition))
		}
		sys, err = sim.New(opts...)
	}
	if err != nil {
		return fail(err)
	}
	if *fastFwd {
		// Every consumer of the full event stream conflicts with the
		// analytic jump: extrapolated cycles produce no events for the
		// oracle, spill or snapshot to see.
		conflict, why := "", ""
		switch {
		case *check:
			conflict, why = "-check", "the oracle needs the full event stream"
		case *traceOut != "":
			conflict, why = "-trace-out", "extrapolated cycles produce no events to spill"
		case *ckptPath != "":
			conflict, why = "-checkpoint", "the jump skips the boundary instants a snapshot would capture"
		}
		if conflict != "" {
			fmt.Fprintf(stderr, "rtrun: -fast-forward conflicts with %s (%s)\n", conflict, why)
			return 2
		}
		// Composes with both front doors like -check; the eligibility
		// grammar (streaming collection, treatment none, no faults)
		// re-validates here.
		if err := sys.SetFastForward(true); err != nil {
			return fail(err)
		}
	}
	if *check {
		// -check composes with both front doors: it arms the oracle on
		// top of whatever the flags or the scenario file declared
		// (a scenario's own "verify": true stays armed either way).
		sys.SetVerify(true)
	}
	sc := sys.Scenario()
	streaming := sc.Streaming()
	if streaming && *outPath != "" {
		fmt.Fprintln(stderr, "rtrun: -o conflicts with streaming collection (no retained log; use -trace-out to spill the trace during the run)")
		return 2
	}
	if *traceOut != "" && !streaming {
		fmt.Fprintln(stderr, "rtrun: -trace-out needs streaming collection (-stream, or a scenario collect mode \"stream\"); a retained run writes its log via -o")
		return 2
	}
	if *traceOut != "" {
		w := stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		sys.SpillTrace(w)
	}
	if *ckptPath != "" {
		cp, err := sys.RunToCheckpoint(sim.Duration(vtime.Millis(*ckptAt)))
		if err != nil {
			return fail(err)
		}
		f, err := os.Create(*ckptPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := sim.EncodeCheckpoint(f, cp); err != nil {
			return fail(err)
		}
		if *summary {
			fmt.Fprintf(stderr, "checkpoint at %s written to %s (resume with: rtrun -resume %s)\n",
				vtime.Millis(*ckptAt), *ckptPath, *ckptPath)
		}
		return 0
	}
	res, err := sys.Run()
	if err != nil {
		return fail(err)
	}
	if !streaming {
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			out = f
		}
		if err := res.WriteLog(out); err != nil {
			return fail(err)
		}
	}
	if *summary {
		if res.SkippedCycles > 0 {
			fmt.Fprintf(stderr, "fast-forwarded %d hyperperiod cycles\n", res.SkippedCycles)
		}
		fmt.Fprint(stderr, res.Summary())
	}
	return 0
}

// parseFaults turns the -fault task:job:extraMS entries into scenario
// fault specs, in order. Several entries for one task compose (via
// fault.Chain), exactly as the equivalent scenario JSON does.
func parseFaults(spec string) ([]sim.Fault, error) {
	if spec == "" {
		return nil, nil
	}
	var faults []sim.Fault
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("fault spec %q is not task:job:extraMS", part)
		}
		job, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault job: %v", err)
		}
		extra, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault extra: %v", err)
		}
		faults = append(faults, sim.Fault{
			Task:  fields[0],
			Kind:  sim.FaultOverrunAt,
			Job:   job,
			Extra: sim.Duration(vtime.Millis(extra)),
		})
	}
	return faults, nil
}

// parseArrivals turns the -arrive entries into scenario arrival
// sources, in order. Each entry names the task it drives and the
// source kind; the remaining fields are the kind's parameters, with
// durations in milliseconds exactly like the scenario JSON's:
//
//	task:poisson:meanMS[:seed]
//	task:mmpp:meanMS:burstMeanMS:dwellMS:burstDwellMS[:seed]
//	task:trace:file.jsonl
func parseArrivals(spec string) ([]sim.Arrival, error) {
	if spec == "" {
		return nil, nil
	}
	ms := func(field, s string) (sim.Duration, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("arrive %s: %q is not a positive millisecond count", field, s)
		}
		return sim.Duration(vtime.Millis(v)), nil
	}
	var arrivals []sim.Arrival
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 3 || fields[0] == "" {
			return nil, fmt.Errorf("arrive spec %q is not task:kind:params", part)
		}
		a := sim.Arrival{Task: fields[0], Kind: fields[1]}
		params := fields[2:]
		var err error
		switch a.Kind {
		case sim.ArrivalPoisson:
			if len(params) != 1 && len(params) != 2 {
				return nil, fmt.Errorf("arrive spec %q is not task:poisson:meanMS[:seed]", part)
			}
			if a.Mean, err = ms("mean", params[0]); err != nil {
				return nil, err
			}
			if len(params) == 2 {
				if a.Seed, err = strconv.ParseUint(params[1], 10, 64); err != nil {
					return nil, fmt.Errorf("arrive seed: %v", err)
				}
			}
		case sim.ArrivalMMPP:
			if len(params) != 4 && len(params) != 5 {
				return nil, fmt.Errorf("arrive spec %q is not task:mmpp:meanMS:burstMeanMS:dwellMS:burstDwellMS[:seed]", part)
			}
			if a.Mean, err = ms("mean", params[0]); err != nil {
				return nil, err
			}
			if a.BurstMean, err = ms("burst mean", params[1]); err != nil {
				return nil, err
			}
			if a.Dwell, err = ms("dwell", params[2]); err != nil {
				return nil, err
			}
			if a.BurstDwell, err = ms("burst dwell", params[3]); err != nil {
				return nil, err
			}
			if len(params) == 5 {
				if a.Seed, err = strconv.ParseUint(params[4], 10, 64); err != nil {
					return nil, fmt.Errorf("arrive seed: %v", err)
				}
			}
		case sim.ArrivalTrace:
			// Re-join so Windows-style or otherwise colonful paths
			// survive the field split.
			a.Path = strings.Join(params, ":")
		default:
			return nil, fmt.Errorf("arrive kind %q is not poisson, mmpp or trace", a.Kind)
		}
		arrivals = append(arrivals, a)
	}
	return arrivals, nil
}
