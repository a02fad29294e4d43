// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per artefact) plus the extension
// sweeps listed in the README's "Experiments" section. Each benchmark
// validates the reproduced shape against the paper's published
// statement and reports the domain quantities via b.ReportMetric, so
// `go test -bench=.` doubles as the reproduction record.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/aperiodic"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

// BenchmarkTable1 regenerates Table 1 / Figure 1: per-job response
// times of τ2 across the level-2 busy period (5, 6, 4 ms), worst case
// at the second job.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	tau2 := rows[1]
	if tau2.WCRT != ms(6) || tau2.Jobs[1].Response != ms(6) || tau2.Jobs[0].Response != ms(5) {
		b.Fatalf("Table 1 shape broken: %+v", tau2)
	}
	b.ReportMetric(float64(tau2.WCRT.Milliseconds()), "wcrt_ms")
	b.ReportMetric(float64(tau2.Jobs[1].Q), "worst_job_index")
}

// BenchmarkTable2 regenerates Table 2: WCRT 29/58/87 ms and the
// equitable allowance A = 11 ms.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	want := []int64{29, 58, 87}
	for i, r := range rows {
		if r.WCRT != ms(want[i]) || r.Allowance != ms(11) {
			b.Fatalf("Table 2 shape broken: %+v", r)
		}
	}
	b.ReportMetric(11, "allowance_ms")
	b.ReportMetric(33, "max_overrun_ms")
}

// BenchmarkTable3 regenerates Table 3: WCRTs with equitable overruns
// shift by +11/+22/+33 ms.
func BenchmarkTable3(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	shifts := []int64{11, 22, 33}
	for i, r := range rows {
		if r.Shift != ms(shifts[i]) {
			b.Fatalf("Table 3 shape broken: %+v", r)
		}
	}
	b.ReportMetric(float64(rows[2].EquitableWCRT.Milliseconds()), "tau3_shifted_wcrt_ms")
}

// benchFigure runs one §6 figure scenario per iteration and checks
// the published outcome.
func benchFigure(b *testing.B, fig experiments.Figure, check func(o experiments.FigureOutcome) bool) {
	var o experiments.FigureOutcome
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure(fig)
		if err != nil {
			b.Fatal(err)
		}
		o = experiments.Outcome(fig, res)
	}
	if !check(o) {
		b.Fatalf("%s: outcome does not match the paper: %+v", fig.Title(), o)
	}
	b.ReportMetric(float64(o.Tau1End.Milliseconds()), "tau1_end_ms")
	b.ReportMetric(float64(o.Tau3End.Milliseconds()), "tau3_end_ms")
	b.ReportMetric(float64(o.Detections), "detections")
}

// BenchmarkFigure3: no detection — τ1/τ2 meet, τ3 misses at 1120 ms.
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, experiments.Figure3, func(o experiments.FigureOutcome) bool {
		return !o.Tau1Failed && !o.Tau2Failed && o.Tau3Failed && o.Tau3End == vtime.AtMillis(1127)
	})
}

// BenchmarkFigure4: detection without treatment — same schedule, with
// detector delays of 1/2/3 ms from the 10 ms timer (§6.2).
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, experiments.Figure4, func(o experiments.FigureOutcome) bool {
		return o.Tau3Failed && o.Detections >= 1
	})
}

// BenchmarkFigure5: immediate stop — only τ1 fails; slack remains.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, experiments.Figure5, func(o experiments.FigureOutcome) bool {
		return o.Tau1Failed && !o.Tau2Failed && !o.Tau3Failed && o.Tau1End == vtime.AtMillis(1030)
	})
}

// BenchmarkFigure6: equitable allowance — τ1 stopped at WCRT+11,
// runs longer than under Figure 5; τ2/τ3 meet with CPU left unused.
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, experiments.Figure6, func(o experiments.FigureOutcome) bool {
		return o.Tau1End == vtime.AtMillis(1040) && !o.Tau2Failed && !o.Tau3Failed
	})
}

// BenchmarkFigure7: system allowance — τ1 stopped at WCRT+33 (1062),
// τ2 and τ3 finish just before their deadlines (1091 and 1120).
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, experiments.Figure7, func(o experiments.FigureOutcome) bool {
		return o.Tau1End == vtime.AtMillis(1062) &&
			o.Tau2End == vtime.AtMillis(1091) &&
			o.Tau3End == vtime.AtMillis(1120) &&
			!o.Tau2Failed && !o.Tau3Failed
	})
}

// BenchmarkSweepFaultMagnitude (X2) generalizes Figures 3–7 into a
// success-ratio curve over the injected overrun.
func BenchmarkSweepFaultMagnitude(b *testing.B) {
	var points []experiments.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.FaultMagnitudeSweepCtx(context.Background(), ms(60), ms(20), experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstNoDet, worstStop float64 = 1, 1
	for _, p := range points {
		switch p.Treatment {
		case detect.NoDetection:
			if p.SuccessRatio < worstNoDet {
				worstNoDet = p.SuccessRatio
			}
		case detect.Stop:
			if p.SuccessRatio < worstStop {
				worstStop = p.SuccessRatio
			}
		}
	}
	if worstStop < worstNoDet {
		b.Fatalf("stop treatment must dominate no-detection: %v vs %v", worstStop, worstNoDet)
	}
	b.ReportMetric(worstNoDet, "worst_success_nodetect")
	b.ReportMetric(worstStop, "worst_success_stop")
}

// BenchmarkSweepFaultMagnitudeSerial runs the 13-magnitude × 5-
// treatment X2 sweep (65 simulations) strictly serially — the
// baseline the parallel benchmarks are read against.
func BenchmarkSweepFaultMagnitudeSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FaultMagnitudeSweepCtx(context.Background(), ms(60), ms(5),
			experiments.RunOptions{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFaultMagnitudeParallel shards the same 65 simulations
// across every core via internal/runner.
func BenchmarkSweepFaultMagnitudeParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FaultMagnitudeSweepCtx(context.Background(), ms(60), ms(5),
			experiments.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup measures, inside one benchmark, the
// wall-clock ratio of the serial X2 sweep (65 independent
// simulations) to the same sweep on four runner workers, checks the
// two renders are byte-identical, and reports the ratio as
// speedup_x. On a multi-core machine the acceptance bar is > 1.5.
func BenchmarkParallelSpeedup(b *testing.B) {
	ctx := context.Background()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := experiments.FaultMagnitudeSweepCtx(ctx, ms(60), ms(5),
			experiments.RunOptions{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		serialDur := time.Since(t0)

		t0 = time.Now()
		par, err := experiments.FaultMagnitudeSweepCtx(ctx, ms(60), ms(5),
			experiments.RunOptions{Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
		parDur := time.Since(t0)

		if experiments.RenderSweep(serial) != experiments.RenderSweep(par) {
			b.Fatal("parallel sweep diverged from serial")
		}
		speedup = float64(serialDur) / float64(parDur)
	}
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkSweepDetectorOverhead (X1) quantifies the §6.2 remark that
// more tasks mean more sensors and more overhead.
func BenchmarkSweepDetectorOverhead(b *testing.B) {
	var points []experiments.OverheadPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.DetectorOverheadSweepCtx(context.Background(), []int{4, 8, 16}, 7, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := points[len(points)-1]
	b.ReportMetric(float64(last.Switches), "switches_16tasks_detectors")
	b.ReportMetric(float64(last.TraceBytes), "trace_bytes_16tasks")
}

// BenchmarkSweepTimerResolution (X3) ablates jRate's 10 ms timer
// quantization against exact timers.
func BenchmarkSweepTimerResolution(b *testing.B) {
	var points []experiments.ResolutionPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.TimerResolutionSweepCtx(context.Background(), experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Collateral != 0 {
			b.Fatalf("collateral failures at resolution %v under %v", p.Resolution, p.Treatment)
		}
	}
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkSweepBaselines (X4) compares the paper's approach with the
// overload schedulers it cites.
func BenchmarkSweepBaselines(b *testing.B) {
	var points []experiments.BaselinePoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.BaselineComparisonCtx(context.Background(), ms(50), 6*vtime.Second, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	byName := map[string]experiments.BaselinePoint{}
	for _, p := range points {
		byName[p.Policy] = p
	}
	paper := byName["fp+detectors(stop)"]
	fpRaw := byName["fixed-priority"]
	if paper.Tau3Success < fpRaw.Tau3Success {
		b.Fatalf("detectors must protect tau3 at least as well as raw FP: %v vs %v",
			paper.Tau3Success, fpRaw.Tau3Success)
	}
	if paper.Tau3Success < 0.999 {
		b.Fatalf("the paper's approach must fully protect tau3, got %v", paper.Tau3Success)
	}
	b.ReportMetric(paper.SuccessRatio, "success_paper")
	b.ReportMetric(fpRaw.SuccessRatio, "success_fp_raw")
	b.ReportMetric(byName["edf"].SuccessRatio, "success_edf")
	b.ReportMetric(byName["best-effort"].SuccessRatio, "success_besteffort")
	b.ReportMetric(byName["red"].SuccessRatio, "success_red")
	b.ReportMetric(byName["d-over"].SuccessRatio, "success_dover")
}

// BenchmarkSweepAcceptance (X5) compares the admission tests'
// acceptance ratios on random task sets — why the paper implements
// the exact Figure 2 analysis.
func BenchmarkSweepAcceptance(b *testing.B) {
	var points []experiments.AcceptancePoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.AcceptanceSweepCtx(context.Background(), []float64{0.6, 0.8, 0.95}, 50, 5, 11, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	hi := points[len(points)-1]
	if hi.LLAccept > hi.ExactAccpt {
		b.Fatal("LL bound cannot accept more than the exact test")
	}
	b.ReportMetric(hi.LLAccept, "ll_accept_u095")
	b.ReportMetric(hi.HypAccept, "hyp_accept_u095")
	b.ReportMetric(hi.ExactAccpt, "exact_accept_u095")
}

// BenchmarkDynamicAdmission (X6) exercises the paper's §7 dynamic
// mode: admissions, a rejection, and a removal per iteration.
func BenchmarkDynamicAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := taskset.MustNew(
			taskset.Task{Name: "a", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(20)},
		)
		sup, err := detect.NewSupervisor(base, detect.Config{Treatment: detect.Stop, TimerResolution: ms(10)})
		if err != nil {
			b.Fatal(err)
		}
		e, err := engine.New(engine.Config{Tasks: base, End: vtime.AtMillis(2000), Hooks: sup.Hooks()})
		if err != nil {
			b.Fatal(err)
		}
		sup.Attach(e)
		e.Schedule(vtime.AtMillis(100), func(now vtime.Time) {
			if err := sup.AdmitTask(e, taskset.Task{Name: "b", Priority: 5, Period: ms(200), Deadline: ms(200), Cost: ms(30)}); err != nil {
				b.Errorf("admit b: %v", err)
			}
		})
		e.Schedule(vtime.AtMillis(200), func(now vtime.Time) {
			if err := sup.AdmitTask(e, taskset.Task{Name: "c", Priority: 4, Period: ms(100), Deadline: ms(100), Cost: ms(90)}); err == nil {
				b.Error("c must be rejected")
			}
		})
		e.Schedule(vtime.AtMillis(1000), func(now vtime.Time) {
			if err := sup.RemoveTask(e, "b"); err != nil {
				b.Errorf("remove b: %v", err)
			}
		})
		e.Run()
	}
}

// BenchmarkWCRTAnalysis measures the Figure 2 algorithm itself on
// random 20-task sets (the cost the paper calls "expensive algorithms
// in time" for static systems, §7).
func BenchmarkWCRTAnalysis(b *testing.B) {
	gen := taskset.NewGenerator(3)
	sets := make([]*taskset.Set, 32)
	for i := range sets {
		s, err := gen.Generate(20, 0.85)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sets[i%len(sets)]
		if _, err := analysis.Feasible(s); err != nil {
			b.Fatal(err)
		}
	}
}

// admittedSets returns 32 fixed admitted generated sets of 5–10 tasks
// with constrained deadlines, the inputs of the allowance benchmarks.
func admittedSets(b *testing.B) []*taskset.Set {
	gen := taskset.NewGenerator(5)
	gen.DeadlineFactor = 0.8
	var sets []*taskset.Set
	for len(sets) < 32 {
		s, err := gen.Generate(5+len(sets)%6, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			sets = append(sets, s)
		}
	}
	return sets
}

// BenchmarkNewSupervisor measures building one run's supervisor per
// treatment: admission control plus the allowance columns the
// treatment reads (none, detect and stop read only the WCRTs).
func BenchmarkNewSupervisor(b *testing.B) {
	sets := admittedSets(b)
	for _, name := range []string{"none", "detect", "stop", "equitable", "system"} {
		tr, err := detect.ParseTreatment(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("treatment="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := detect.NewSupervisor(sets[i%len(sets)], detect.Config{Treatment: tr}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllowanceCompute measures the full allowance table (every
// column) at the paper's 1 ms granularity and at 1 µs.
func BenchmarkAllowanceCompute(b *testing.B) {
	sets := admittedSets(b)
	for _, c := range []struct {
		name string
		gran vtime.Duration
	}{{"1ms", vtime.Millisecond}, {"1us", vtime.Microsecond}} {
		b.Run("gran="+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := allowance.Compute(sets[i%len(sets)], c.gran); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingSink tallies trace events without retaining them — the
// observer for pure engine-loop benchmarks.
type countingSink struct{ n int64 }

func (c *countingSink) Append(trace.Event) { c.n++ }

// engineThroughput drives 30 simulated seconds of the Table 2 system
// with detectors and a recurring fault in the given collection mode
// and reports events_per_sec over the event loop alone (setup — the
// admission-control analysis building the supervisor — is a different
// subsystem and is reported only through ns/op).
func engineThroughput(b *testing.B, mode engine.Collect) {
	var events int64
	var loop time.Duration
	for i := 0; i < b.N; i++ {
		sup, err := detect.NewSupervisor(experiments.FigureSet(), detect.Config{
			Treatment: detect.Stop, TimerResolution: ms(10),
		})
		if err != nil {
			b.Fatal(err)
		}
		sink := &countingSink{}
		e, err := engine.New(engine.Config{
			Tasks:   experiments.FigureSet(),
			Faults:  fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
			End:     vtime.Time(30 * vtime.Second),
			Collect: mode,
			Sink:    sink,
			Hooks:   sup.Hooks(),
		})
		if err != nil {
			b.Fatal(err)
		}
		sup.Attach(e)
		t0 := time.Now()
		e.Run()
		loop += time.Since(t0)
		events = sink.n
	}
	b.ReportAllocs()
	b.ReportMetric(float64(events), "trace_events")
	b.ReportMetric(float64(events)*float64(b.N)/loop.Seconds(), "events_per_sec")
}

// engineThroughputCores drives 30 simulated seconds of a seeded
// 10·cores-task set (utilization 0.55 per core, 10–100ms periods) on
// the bare engine with M cores under global dispatch, in streaming
// collection, and reports events_per_sec over the event loop alone.
// One fixed seed per core count keeps every size comparable across
// commits.
func engineThroughputCores(b *testing.B, cores int) {
	g := taskset.NewGenerator(uint64(11 + cores))
	g.PeriodMin = 10 * vtime.Millisecond
	g.PeriodMax = 100 * vtime.Millisecond
	set, err := g.Generate(10*cores, 0.55*float64(cores))
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	var loop time.Duration
	for i := 0; i < b.N; i++ {
		sink := &countingSink{}
		e, err := engine.New(engine.Config{
			Tasks:   set,
			End:     vtime.Time(30 * vtime.Second),
			CPUs:    cores,
			Collect: engine.Stream,
			Sink:    sink,
		})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		e.Run()
		loop += time.Since(t0)
		events = sink.n
	}
	b.ReportAllocs()
	b.ReportMetric(float64(events), "trace_events")
	b.ReportMetric(float64(events)*float64(b.N)/loop.Seconds(), "events_per_sec")
}

// BenchmarkEngineThroughput measures simulated events per wall second
// — the substrate cost the typed, allocation-free event loop bounds —
// across the core-count axis: cores=1 is the uniprocessor loop, the
// larger counts price the shared ready queue feeding M cores under
// global dispatch. Streaming collection (the long-horizon
// configuration); the full pair of gate benchmarks is this family
// plus the Retain workload below.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) { engineThroughputCores(b, cores) })
	}
}

// BenchmarkEngineThroughputRetain is the same workload with the full
// in-memory log retained.
func BenchmarkEngineThroughputRetain(b *testing.B) { engineThroughput(b, engine.Retain) }

// BenchmarkEngineScaling runs the X10 task-count axis (10..500
// synthetic tasks, 60 s horizon, streaming collection): the per-event
// cost must stay flat-ish as the task count grows — the ready-queue
// rework's acceptance surface. CI distils the series into
// BENCH_engine.json.
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range experiments.ScalingSizes {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			var p experiments.ScalingPoint
			var err error
			for i := 0; i < b.N; i++ {
				p, err = experiments.RunScalingPoint(n, experiments.ScalingHorizon, experiments.ScalingSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ReportMetric(float64(p.Events), "events")
			b.ReportMetric(float64(p.Switches), "switches")
			b.ReportMetric(p.EventsPerSec, "events_per_sec")
		})
	}
}

// TestDispatchCostSubLinear pins the X10 acceptance bar: growing the
// task count 10× (50 → 500) must grow the per-event cost sub-linearly
// — the incrementally maintained ready queue replaces the historical
// O(tasks) scan per dispatch, so the measured ratio sits near the
// log-factor (~1–2×), far from the linear ~10×. The generous 4×
// threshold keeps slow or noisy CI hosts from flaking while still
// failing decisively if a linear scan sneaks back in.
func TestDispatchCostSubLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under the race detector")
	}
	perEvent := func(n int) float64 {
		var events int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunScalingPoint(n, 5*vtime.Second, experiments.ScalingSeed)
				if err != nil {
					b.Fatal(err)
				}
				events = p.Events
			}
		})
		return float64(r.NsPerOp()) / float64(events)
	}
	small, large := perEvent(50), perEvent(500)
	if ratio := large / small; ratio > 4 {
		t.Errorf("per-event cost grew %.1f× from 50 to 500 tasks (%.1f → %.1f ns/event); want sub-linear growth (<= 4×)",
			ratio, small, large)
	}
}

// benchCollect runs the Figure system for a 10-minute virtual horizon
// (≈ 5800 jobs, ≈ 42k trace events) under the stop treatment with a
// recurring overrun, in the given collection mode. Run with -benchmem:
// the Retain/Stream pair pins the memory story — streaming keeps
// allocations O(1) per job (no retained log, no per-job records; B/op
// and allocs/op drop accordingly) while reproducing the same report.
// CI extracts the pair into BENCH_stream.json.
func benchCollect(b *testing.B, mode engine.Collect) {
	var jobs int
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{
			Tasks:           experiments.FigureSet(),
			Treatment:       detect.Stop,
			Faults:          fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
			Horizon:         600 * vtime.Second,
			TimerResolution: detect.DefaultTimerResolution,
			Collect:         mode,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		jobs = res.Report.TotalReleased()
		if jobs < 5000 {
			b.Fatalf("10-minute horizon released only %d jobs", jobs)
		}
		if mode == engine.Stream && res.Log.Len() != 0 {
			b.Fatalf("streaming run retained %d events", res.Log.Len())
		}
	}
	b.ReportAllocs()
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkCollectRetain10m is the baseline: the full log retained
// over a 10-minute virtual horizon and analysed after the run.
func BenchmarkCollectRetain10m(b *testing.B) { benchCollect(b, engine.Retain) }

// BenchmarkCollectStream10m is the bounded-memory path: same
// simulation, metrics accumulated online, nothing retained.
func BenchmarkCollectStream10m(b *testing.B) { benchCollect(b, engine.Stream) }

// TestStreamAllocsPerJobConstant pins the O(1)-per-job steady state:
// doubling the horizon (and so the job count) must not raise the
// per-job allocation count — streaming holds no structure that grows
// with completed jobs, so the per-job cost is flat.
func TestStreamAllocsPerJobConstant(t *testing.T) {
	perJob := func(horizon vtime.Duration) float64 {
		var jobs int
		allocs := testing.AllocsPerRun(3, func() {
			sys, err := core.NewSystem(core.Config{
				Tasks:           experiments.FigureSet(),
				Treatment:       detect.Stop,
				Faults:          fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
				Horizon:         horizon,
				TimerResolution: detect.DefaultTimerResolution,
				Collect:         engine.Stream,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			jobs = res.Report.TotalReleased()
		})
		return allocs / float64(jobs)
	}
	short := perJob(600 * vtime.Second)
	long := perJob(1200 * vtime.Second)
	// Identical workload shape at both horizons; allow 10% noise from
	// map growth and GC timing.
	if long > short*1.10 {
		t.Errorf("allocs per job grew with the horizon: %.2f at 10m vs %.2f at 20m", short, long)
	}
}

// benchFastForward runs the eligible Table 2 variant (the figure
// system under treatment none — hyperperiod 3000 ms) to the given
// horizon in streaming collection, with or without fast-forward. The
// full/ff pair per horizon is the tentpole's acceptance surface: the
// ff run must do O(transient + one cycle + tail) work regardless of
// the horizon, so its ns/op stays flat while the full run's grows
// linearly. CI distils the pairs into BENCH_engine.json as
// fastforward_speedup rows.
func benchFastForward(b *testing.B, horizon vtime.Duration, ff bool) {
	var jobs int
	var skipped int64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{
			Tasks:       experiments.FigureSet(),
			Treatment:   detect.NoDetection,
			Horizon:     horizon,
			Collect:     engine.Stream,
			FastForward: ff,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		jobs = res.Report.TotalReleased()
		skipped = res.SkippedCycles
	}
	if ff && skipped == 0 {
		b.Fatal("fast-forward never engaged on the benchmark system")
	}
	b.ReportAllocs()
	b.ReportMetric(float64(jobs), "jobs")
	b.ReportMetric(float64(skipped), "skipped_cycles")
}

// BenchmarkEngineFastForward prices the steady-state jump across the
// horizon axis: full (event-by-event) vs ff (fast-forward) at 10
// minutes, 1 hour and 10 hours of virtual time on the same system.
func BenchmarkEngineFastForward(b *testing.B) {
	for _, h := range []struct {
		name    string
		horizon vtime.Duration
	}{
		{"10m", 600 * vtime.Second},
		{"1h", 3600 * vtime.Second},
		{"10h", 36000 * vtime.Second},
	} {
		for _, m := range []struct {
			name string
			ff   bool
		}{{"full", false}, {"ff", true}} {
			b.Run(fmt.Sprintf("horizon=%s/mode=%s", h.name, m.name), func(b *testing.B) {
				benchFastForward(b, h.horizon, m.ff)
			})
		}
	}
}

// BenchmarkEngineOpenArrivals (X15) prices source-driven releases: 30
// simulated seconds of a periodic task beside a Poisson-driven and an
// MMPP-driven task on the bare engine, streaming collection. The
// per-release override staging must keep the open-arrival loop in the
// same events_per_sec family as the periodic one — CI distils the row
// into BENCH_engine.json and the gate watches it.
func BenchmarkEngineOpenArrivals(b *testing.B) {
	set := taskset.MustNew(
		taskset.Task{Name: "steady", Priority: 10, Period: ms(40), Deadline: ms(40), Cost: ms(4)},
		taskset.Task{Name: "open-poisson", Priority: 7, Period: ms(50), Deadline: ms(30), Cost: ms(2)},
		taskset.Task{Name: "open-mmpp", Priority: 5, Period: ms(60), Deadline: ms(40), Cost: ms(2)},
	)
	var events int64
	var loop time.Duration
	for i := 0; i < b.N; i++ {
		// Sources are consumed by the run, so rebuild per iteration —
		// fixed seeds keep every iteration (and commit) comparable.
		poisson, err := taskset.NewPoisson(ms(12), 0x0BE5)
		if err != nil {
			b.Fatal(err)
		}
		mmpp, err := taskset.NewMMPP(ms(45), ms(5), ms(300), ms(120), 0x0FED)
		if err != nil {
			b.Fatal(err)
		}
		sink := &countingSink{}
		e, err := engine.New(engine.Config{
			Tasks:   set,
			End:     vtime.Time(30 * vtime.Second),
			Collect: engine.Stream,
			Sink:    sink,
			Sources: []taskset.Source{nil, poisson, mmpp},
		})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		e.Run()
		loop += time.Since(t0)
		events = sink.n
	}
	b.ReportAllocs()
	b.ReportMetric(float64(events), "trace_events")
	b.ReportMetric(float64(events)*float64(b.N)/loop.Seconds(), "events_per_sec")
}

// BenchmarkAperiodicServer (X7, §7 outlook) runs the polling-server
// scenario: a 3×20 ms burst through a 10 ms / 50 ms server beside a
// hard periodic task; the hard task must never miss.
func BenchmarkAperiodicServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		periodic := taskset.MustNew(
			taskset.Task{Name: "hard", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(30)},
		)
		srv := &aperiodic.PollingServer{
			Task: taskset.Task{Name: "server", Priority: 5, Period: ms(50), Deadline: ms(50), Cost: ms(10)},
			Requests: []aperiodic.Request{
				{ID: "a", Arrival: vtime.AtMillis(300), Cost: ms(20)},
				{ID: "b", Arrival: vtime.AtMillis(300), Cost: ms(20)},
				{ID: "c", Arrival: vtime.AtMillis(300), Cost: ms(20)},
			},
		}
		e, served, err := srv.Run(periodic, nil, vtime.Second)
		if err != nil {
			b.Fatal(err)
		}
		// hard releases at 0, 100, ..., 1000 ms.
		if hard := metrics.Analyze(e.Log()).Tasks["hard"]; hard == nil || hard.Released != 11 || hard.Failed != 0 {
			b.Fatalf("hard task under aperiodic burst: %+v, want 11 released, none failed", hard)
		}
		done := 0
		var worst vtime.Duration
		for _, r := range served {
			if r.Done {
				done++
				if r.Response > worst {
					worst = r.Response
				}
			}
		}
		if done != len(served) {
			b.Fatalf("burst only %d/%d served within 1s", done, len(served))
		}
		b.ReportMetric(float64(worst.Milliseconds()), "worst_response_ms")
	}
}

// BenchmarkPriorityAssignment compares RM, DM and Audsley's OPA
// acceptance on constrained-deadline random sets — the assignment
// machinery behind the admission control.
func BenchmarkPriorityAssignment(b *testing.B) {
	gen := taskset.NewGenerator(17)
	gen.DeadlineFactor = 0.8
	sets := make([]*taskset.Set, 24)
	for i := range sets {
		s, err := gen.Generate(5, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = s
	}
	var rm, dm, opa int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm, dm, opa = 0, 0, 0
		for _, s := range sets {
			if sched.Feasible(sched.RateMonotonic(s)) {
				rm++
			}
			if sched.Feasible(sched.DeadlineMonotonic(s)) {
				dm++
			}
			if got, err := sched.Audsley(s); err == nil && sched.Feasible(got) {
				opa++
			}
		}
	}
	if opa < dm || dm < rm {
		b.Fatalf("optimality order violated: RM %d, DM %d, OPA %d", rm, dm, opa)
	}
	b.ReportMetric(float64(rm), "rm_feasible")
	b.ReportMetric(float64(dm), "dm_feasible")
	b.ReportMetric(float64(opa), "opa_feasible")
}

// BenchmarkSweepBlocking (X9, §7) regenerates the blocking-vs-
// allowance trade-off table.
func BenchmarkSweepBlocking(b *testing.B) {
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = experiments.BlockingSweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out) == 0 {
		b.Fatal("empty sweep")
	}
}
