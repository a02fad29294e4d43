package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/runner"
	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim"
	"repro/sim/scenario"
)

// batchKind is one entry of batch-long's corpus. The seed varies the
// task parameters, never the shape, and each horizon is set so the
// entry releases about sizes.batchJobs jobs: an entry costs about the
// same on every seed, which keeps the workload's latency quantiles
// seed-independent.
type batchKind struct {
	name  string
	cpus  int
	tasks int
	// util is the total utilization the task set is drawn at.
	util   float64
	policy string
	// admitted entries pass the paper's admission control (and run
	// through core); the others run the bare engine.
	admitted  bool
	treatment string
	stream    bool
	// arrivals switches two tasks to an open arrival source.
	arrivals string
	verify   bool
}

// batchKinds is the corpus. Fifteen entries put the median and the
// 90th percentile in the middle of one entry's band of latencies
// (positions 7.5 and 13.5 of 15), not on a boundary between two. Only
// two entries retain their logs: a retained log grows by slice
// doubling, so its footprint steps with the seed's event count, and
// four of them made peak_rss_mb swing 7–9% from seed to seed.
var batchKinds = []batchKind{
	{name: "global-c2-fp", cpus: 2, tasks: 20, util: 1.1, stream: true},
	{name: "global-c4-fp", cpus: 4, tasks: 40, util: 2.2, stream: true},
	{name: "global-c8-fp", cpus: 8, tasks: 80, util: 4.4, stream: true},
	{name: "global-c2-edf", cpus: 2, tasks: 20, util: 1.1, policy: "edf", stream: true},
	{name: "global-c4-edf", cpus: 4, tasks: 40, util: 2.2, policy: "edf", stream: true},
	{name: "global-c8-edf", cpus: 8, tasks: 80, util: 4.4, policy: "edf", stream: true},
	{name: "uni-10-stream", tasks: 10, util: 0.6, admitted: true, stream: true},
	{name: "uni-10-retain", tasks: 10, util: 0.6, admitted: true},
	{name: "scaling-100", tasks: 100, util: 0.6, stream: true},
	{name: "soak-stop-retain", tasks: 5, util: 0.5, admitted: true, treatment: "stop"},
	{name: "soak-stop-stream", tasks: 5, util: 0.5, admitted: true, treatment: "stop", stream: true},
	{name: "poisson", tasks: 10, util: 0.6, arrivals: scenario.ArrivalPoisson, stream: true},
	{name: "mmpp", tasks: 10, util: 0.6, arrivals: scenario.ArrivalMMPP, stream: true},
	{name: "verify-uni-10", tasks: 10, util: 0.6, admitted: true, stream: true, verify: true},
	{name: "verify-global-c4", cpus: 4, tasks: 40, util: 2.2, stream: true, verify: true},
}

// batchScenario derives one corpus entry from its seed.
func batchScenario(k batchKind, seed uint64, jobs int) (scenario.Scenario, error) {
	r := taskset.NewRand(seed)
	var set *taskset.Set
	for attempt := 0; set == nil; attempt++ {
		g := taskset.NewGenerator(r.Uint64())
		g.PeriodMin = 10 * vtime.Millisecond
		g.PeriodMax = 100 * vtime.Millisecond
		s, err := g.Generate(k.tasks, k.util)
		if err != nil {
			return scenario.Scenario{}, err
		}
		if !k.admitted {
			set = s
		} else if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			set = s
		} else if attempt == 64 {
			return scenario.Scenario{}, fmt.Errorf("%s: no admissible draw", k.name)
		}
	}
	sc := scenario.Scenario{
		Name:          fmt.Sprintf("batch-%s-%016x", k.name, seed),
		Description:   "long-horizon batch entry (perfbench batch-long)",
		Policy:        k.policy,
		Treatment:     k.treatment,
		SkipAdmission: !k.admitted && k.cpus <= 1,
		Seed:          r.Uint64(),
		Verify:        k.verify,
	}
	if k.cpus > 1 {
		sc.CPUs = k.cpus
	}
	if k.stream {
		sc.Collect = &scenario.Collect{Mode: scenario.CollectStream}
	}
	// rate is the expected number of releases per virtual second.
	rate := 0.0
	for _, t := range set.Tasks {
		sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
		rate += releaseRate(t.Period)
	}
	if k.treatment == "stop" {
		// The recurring overrun the stop treatment must contain: every
		// third job of one task overruns by a quarter of its period.
		victim := sc.Tasks[r.Intn(len(sc.Tasks))]
		sc.TimerResolution = scenario.Duration(10 * vtime.Millisecond)
		sc.Faults = []scenario.Fault{{Task: victim.Name, Kind: scenario.FaultOverrunEvery,
			First: 1, Every: 3, Extra: scenario.Duration(victim.Period.D() / 4)}}
	}
	if k.arrivals != "" {
		for _, i := range []int{0, len(sc.Tasks) - 1} {
			t := sc.Tasks[i]
			a := scenario.Arrival{Task: t.Name, Kind: k.arrivals, Mean: t.Period, Seed: r.Uint64() | 1}
			if k.arrivals == scenario.ArrivalMMPP {
				// Three quarters of the time at the base rate, a quarter
				// in bursts five times as dense: twice the base rate.
				a.BurstMean = scenario.Duration(t.Period.D() / 5)
				a.Dwell = scenario.Duration(300 * vtime.Millisecond)
				a.BurstDwell = scenario.Duration(100 * vtime.Millisecond)
				rate += releaseRate(t.Period.D())
			}
			sc.Arrivals = append(sc.Arrivals, a)
		}
	}
	sc.Horizon = scenario.Duration(vtime.Duration(float64(jobs) / rate * float64(vtime.Second)).Ceil(vtime.Millisecond))
	if err := sc.Validate(); err != nil {
		return scenario.Scenario{}, fmt.Errorf("%s: %w", k.name, err)
	}
	return sc, nil
}

// releaseRate is the number of releases per virtual second of a periodic
// task with the given period.
func releaseRate(period vtime.Duration) float64 {
	return float64(vtime.Second) / float64(period)
}

// batchCorpus is batch-long's input: the generated documents and the
// scenarios decoded from them.
type batchCorpus struct {
	bodies [][]byte
	scs    []scenario.Scenario
}

func buildBatch(cfg config) (*batchCorpus, error) {
	c := &batchCorpus{}
	for i, k := range batchKinds {
		sc, err := batchScenario(k, runner.DeriveSeed(cfg.seed, i), cfg.size.batchJobs)
		if err != nil {
			return nil, err
		}
		b, err := scenario.Marshal(&sc)
		if err != nil {
			return nil, err
		}
		// The program receives only the generated bytes.
		dec, err := scenario.Decode(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, b)
		c.scs = append(c.scs, *dec)
	}
	return c, nil
}

// batchOp is one timed scenario run.
type batchOp struct {
	entry    int
	lat, run time.Duration
	jobs     int
	report   [sha256.Size]byte
	err      error
}

// batchPhase runs the corpus round-robin on a closed loop of runner
// workers until the deadline; in-flight runs finish.
func batchPhase(c *batchCorpus, workers int, d time.Duration, spans *spanLog) (*phase, []batchOp) {
	const maxOps = 1 << 16
	jobs := make([]int, maxOps)
	for i := range jobs {
		jobs[i] = i % len(c.scs)
	}
	var mu sync.Mutex
	ops := make([]batchOp, 0, 1024)
	p := &phase{}
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(d))
	defer cancel()
	// The only error Map can return is the deadline: every job
	// reports its failure in its batchOp instead.
	_, _ = runner.Map(ctx, runner.Options{Parallelism: workers}, jobs, func(_ context.Context, i int, entry int) (struct{}, error) {
		op := batchOp{entry: entry}
		t0 := time.Now()
		sys, err := sim.FromScenario(c.scs[entry])
		t1 := time.Now()
		var t2, t3 time.Time
		if err == nil {
			var res *sim.RunResult
			res, err = sys.Run()
			t2 = time.Now()
			if err == nil {
				s := res.Summary()
				t3 = time.Now()
				op.report = sha256.Sum256([]byte(s))
				op.jobs = res.Report.TotalReleased()
			}
		}
		op.err = err
		if err == nil {
			op.lat, op.run = t3.Sub(t0), t2.Sub(t1)
			if spans != nil {
				id := int64(i)
				spans.add("runner.op", id, "", t0, t3)
				spans.add("sim.from_scenario", id, "runner.op", t0, t1)
				spans.add("sim.run", id, "runner.op", t1, t2)
				spans.add("sim.summary", id, "runner.op", t2, t3)
			}
		}
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
		return struct{}{}, nil
	})
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	p.exhausted = len(ops) == maxOps
	for _, op := range ops {
		p.attempted++
		if op.err != nil {
			p.failed++
			continue
		}
		p.lat = append(p.lat, op.lat)
	}
	return p, ops
}

// sameReports requires every run of an entry to render the report its
// first run rendered; first maps each entry to that report's hash.
func sameReports(rep *report, first map[int][sha256.Size]byte, ops []batchOp) {
	for _, op := range ops {
		if op.err != nil {
			rep.problem("batch-long %s: %v", batchKinds[op.entry].name, op.err)
			continue
		}
		if want, ok := first[op.entry]; !ok {
			first[op.entry] = op.report
		} else if op.report != want {
			rep.failed++
			rep.problem("batch-long %s: two runs rendered different reports", batchKinds[op.entry].name)
		}
	}
}

// verifyEntries re-runs every entry with the oracle armed: zero
// violations, and the report its timed runs rendered.
func verifyEntries(rep *report, c *batchCorpus, first map[int][sha256.Size]byte, workers int) {
	type verified struct {
		report [sha256.Size]byte
		jobs   int
	}
	idx := make([]int, len(c.scs))
	for i := range idx {
		idx[i] = i
	}
	res, err := runner.Map(context.Background(), runner.Options{Parallelism: workers}, idx,
		func(_ context.Context, _ int, i int) (verified, error) {
			sys, err := sim.FromScenario(c.scs[i])
			if err != nil {
				return verified{}, err
			}
			sys.SetVerify(true)
			r, err := sys.Run()
			if err != nil {
				return verified{}, fmt.Errorf("%s: %w", batchKinds[i].name, err)
			}
			return verified{sha256.Sum256([]byte(r.Summary())), r.Report.TotalReleased()}, nil
		})
	if err != nil {
		rep.problem("batch-long oracle re-run: %v", err)
		return
	}
	jobs := 0
	for i, v := range res {
		jobs += v.jobs
		if want, ok := first[i]; ok && v.report != want {
			rep.problem("batch-long %s: the oracle-armed re-run rendered another report", batchKinds[i].name)
		}
	}
	rep.count("checked_jobs", int64(jobs))
}

func batchLong(cfg config, rep *report) error {
	c, setups, err := repeatSetup(cfg, func() (*batchCorpus, error) { return buildBatch(cfg) },
		func(*batchCorpus) {})
	if err != nil {
		return err
	}
	rep.setInputs(cfg.workload, len(c.bodies), bodiesFingerprint(c.bodies))
	workers := runtime.GOMAXPROCS(0)
	warm, warmOps := batchPhase(c, workers, cfg.warmup(), nil)
	warmed(rep, warm)
	windows, err := startRSSWindows(cfg.rssWindow())
	if err != nil {
		return err
	}
	p, ops := batchPhase(c, workers, cfg.phaseLen(), nil)
	rss, err := windows.finish()
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = p.attempted, p.failed
	byEntry := make([][]time.Duration, len(c.scs))
	for _, op := range ops {
		byEntry[op.entry] = append(byEntry[op.entry], op.lat)
	}
	for i, lats := range byEntry {
		rep.note("entry %-17s runs=%-3d p50_ms=%.2f", batchKinds[i].name, len(lats), ms(median(lats)))
	}
	first := make(map[int][sha256.Size]byte)
	sameReports(rep, first, append(warmOps, ops...))
	verifyEntries(rep, c, first, workers)
	p.failed = rep.failed

	if !cfg.trace {
		endToEnd(rep, p, setups, rss)
		return nil
	}
	runtimeLayer(rep, p)
	var busy time.Duration
	for _, l := range p.lat {
		busy += l
	}
	rep.set("runner.utilization", float64(busy)/(float64(p.elapsed)*float64(workers)), "ratio")
	// No server on this path: its layers did no work.
	for _, name := range []string{"serve.hit_ratio", "serve.sims_per_request"} {
		rep.set(name, 0, "ratio")
	}
	rep.set("serve.errors", 0, "count")
	for _, name := range []string{"serve.handler_p50_ms", "serve.handler_p90_ms", "serve.transport_p50_ms"} {
		rep.set(name, 0, "ms")
	}

	spans := newSpanLog()
	tp, tops := batchPhase(c, workers, cfg.phaseLen(), spans)
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	sameReports(rep, first, tops)
	if err := writeSpans(rep, cfg, spans); err != nil {
		return err
	}
	traceOverhead(rep, p, tp)
	var runs []runSample
	for _, op := range tops {
		if op.err == nil {
			runs = append(runs, runSample{run: op.run, jobs: op.jobs, cpus: max(1, c.scs[op.entry].CPUs)})
		}
	}
	var docs []layerDoc
	for _, b := range c.bodies {
		docs = append(docs, layerDoc{body: b, weight: 1, simulate: true})
	}
	recs, err := layerPass(docs)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	layerMetrics(rep, recs, runs)
	var parts, whole time.Duration
	for _, name := range []string{"sim.from_scenario", "sim.run", "sim.summary"} {
		for _, d := range spans.durations(name) {
			parts += d
		}
	}
	for _, d := range spans.durations("runner.op") {
		whole += d
	}
	ratio := float64(parts) / float64(max(whole, 1))
	rep.set("trace.coverage", ratio, "ratio")
	rep.note("coverage spans_s=%.4f busy_s=%.4f ratio=%.4f", parts.Seconds(), whole.Seconds(), ratio)
	return nil
}
