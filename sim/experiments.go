package sim

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/vtime"
)

// experimentTable holds the paper's tables, figures and extension
// sweeps in the order cmd/rtexp has always printed them. Each entry
// delegates to internal/experiments, so a table-driven run is
// byte-identical to the direct calls (pinned by
// TestRegistryMatchesDirectCalls).
var experimentTable = []Experiment{
	{"table1",
		"Table 1 / Figure 1 — per-job response times; the worst case is not the critical-instant job",
		table(experiments.Table1, experiments.RenderTable1)},
	{"table2",
		"Table 2 — the tested task system: WCRTs, equitable allowance and per-task maximum overrun",
		table(experiments.Table2, experiments.RenderTable2)},
	{"table3",
		"Table 3 — worst-case response times when every task overruns by the equitable allowance",
		table(experiments.Table3, experiments.RenderTable3)},
	figure(experiments.Figure3),
	figure(experiments.Figure4),
	figure(experiments.Figure5),
	figure(experiments.Figure6),
	figure(experiments.Figure7),
	{"x1",
		"X1 — detector overhead vs task count (the paper's §6.2 sensor-count remark, quantified)",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.DetectorOverheadSweepCtx(ctx, []int{2, 4, 8, 16}, 7, opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderOverhead(points)}, nil
		}},
	{"x2",
		"X2 — success ratio vs fault magnitude, generalizing Figures 3–7 over every treatment",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(5), opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderSweep(points)}, nil
		}},
	{"x3",
		"X3 — detector timer-resolution sensitivity of the Figure 5–7 treatments",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.TimerResolutionSweepCtx(ctx, opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderResolution(points)}, nil
		}},
	{"x9",
		"X9 — blocking versus allowance trade-off on the Table 2 system (paper §7)",
		func(context.Context, RunOptions) (Result, error) {
			out, err := experiments.BlockingSweep()
			if err != nil {
				return Result{}, err
			}
			return Result{Data: out, Text: out}, nil
		}},
	{"x5",
		"X5 — acceptance ratio of Liu–Layland, hyperbolic and exact admission tests vs utilization",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.AcceptanceSweepCtx(ctx,
				[]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 200, 5, 11, opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderAcceptance(points)}, nil
		}},
	{"x4",
		"X4 — the paper's admission-control-plus-detectors approach vs overload schedulers",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.BaselineComparisonCtx(ctx, vtime.Millis(50), 6*vtime.Second, opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderBaselines(points)}, nil
		}},
	{"x10",
		"X10 — engine events/sec and switches vs task count (10..500 tasks, 60s horizon)",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := experiments.TaskScalingSweepCtx(ctx,
				experiments.ScalingSizes, experiments.ScalingHorizon, opt.internal())
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: experiments.RenderScaling(points)}, nil
		}},
	{"x11",
		"X11 — differential invariant sweep: fuzzed scenarios property-verified in both collection modes",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := DifferentialSweep(ctx, DifferentialSeed, DifferentialCount, opt)
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: RenderDifferential(points)}, nil
		}},
	{"x12",
		"X12 — process-sharded sweep: streamed worker accumulators reproduce serial reports exactly",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := ShardDifferentialSweep(ctx, ShardSeed, ShardCount, opt)
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: RenderShardDifferential(points)}, nil
		}},
	{"x13",
		"X13 — multiprocessor differential sweep: global vs partitioned dispatch under the invariant oracle",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := MulticoreSweep(ctx, MulticoreSeed, MulticoreCount, opt)
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: RenderMulticore(points)}, nil
		}},
	{"x14",
		"X14 — fast-forward differential sweep: analytic hyperperiod jumps vs oracle-verified full runs",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := FastForwardSweep(ctx, FastForwardSeed, FastForwardCount, opt)
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: RenderFastForward(points)}, nil
		}},
	{"x15",
		"X15 — open-arrivals differential sweep: Poisson/MMPP/trace sources oracle-verified, retain vs stream",
		func(ctx context.Context, opt RunOptions) (Result, error) {
			points, err := OpenArrivalsSweep(ctx, OpenArrivalsSeed, OpenArrivalsCount, opt)
			if err != nil {
				return Result{}, err
			}
			return Result{Data: points, Text: RenderOpenArrivals(points)}, nil
		}},
}

// table runs one of the paper's tables: its rows and their rendering.
func table[R any](rows func() (R, error), render func(R) string) func(context.Context, RunOptions) (Result, error) {
	return func(context.Context, RunOptions) (Result, error) {
		r, err := rows()
		if err != nil {
			return Result{}, err
		}
		return Result{Data: r, Text: render(r)}, nil
	}
}

// figure is the entry of one of the paper's charts.
func figure(fig experiments.Figure) Experiment {
	return Experiment{
		Name:        fmt.Sprintf("fig%d", int(fig)),
		Description: fig.Title(),
		Run: func(context.Context, RunOptions) (Result, error) {
			outcome, text, err := experiments.FigureArtefact(fig, "")
			if err != nil {
				return Result{}, err
			}
			return Result{Data: outcome, Text: text}, nil
		},
	}
}

func (o RunOptions) internal() experiments.RunOptions {
	return experiments.RunOptions{Parallelism: o.Parallelism, Progress: o.Progress}
}
