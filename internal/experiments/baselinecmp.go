package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/allowance"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/vtime"
)

// BaselinePoint is one sample of the X4 comparison: the paper's
// admission-control-plus-detectors approach versus the overload
// schedulers of its related work (§1), on the same task system under
// the same recurring fault.
type BaselinePoint struct {
	Policy string
	// SuccessRatio over all jobs of the run.
	SuccessRatio float64
	// Tau1Success, Tau3Success isolate the faulty task and the most
	// exposed victim.
	Tau1Success float64
	Tau3Success float64
}

// BaselineComparisonCtx (extension X4) runs the Table 2 system (τ3
// offset 1000 ms) with τ1 overrunning by extra on every other job,
// under: the paper's FPP + detectors + Stop; plain fixed priorities
// with no detection; EDF; Locke best-effort; RED; and D-over. The
// paper's positioning — prevention through admission control plus
// cheap detectors, rather than generic overload handling — shows up
// as the FPP+Stop row protecting τ2/τ3 completely. Each policy's run
// is an independent simulation on the runner pool, the paper's
// detector-supervised run first, the five overload schedulers after,
// collected in that order.
func BaselineComparisonCtx(ctx context.Context, extra vtime.Duration, horizon vtime.Duration, opt RunOptions) ([]BaselinePoint, error) {
	faults := fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 2, Extra: extra}}

	// A nil policy marks the paper's approach (core.System with
	// detectors); the rest skip admission and run under that policy.
	policies := []engine.Policy{
		nil,
		engine.FixedPriority{},
		baselines.EDF{},
		baselines.BestEffort{},
		baselines.RED{},
		baselines.DOver{},
	}
	return runner.Map(ctx, opt.pool(), policies, func(_ context.Context, _ int, p engine.Policy) (BaselinePoint, error) {
		cfg := core.Config{
			Tasks:   FigureSet(),
			Faults:  faults,
			Horizon: horizon,
			Collect: opt.collect(),
		}
		name := "fp+detectors(stop)"
		if p == nil {
			cfg.Treatment = detect.Stop
			cfg.TimerResolution = detect.DefaultTimerResolution
		} else {
			cfg.Policy = p
			cfg.SkipAdmission = true
			name = p.Name()
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return BaselinePoint{}, err
		}
		res, err := sys.Run()
		if err != nil {
			return BaselinePoint{}, err
		}
		return point(name, res.Report), nil
	})
}

func point(name string, rep *metrics.Report) BaselinePoint {
	bp := BaselinePoint{Policy: name, SuccessRatio: rep.SuccessRatio()}
	if s, ok := rep.Tasks["tau1"]; ok {
		bp.Tau1Success = s.SuccessRatio()
	}
	if s, ok := rep.Tasks["tau3"]; ok {
		bp.Tau3Success = s.SuccessRatio()
	}
	return bp
}

// RenderBaselines prints the X4 table.
func RenderBaselines(points []BaselinePoint) string {
	var b strings.Builder
	b.WriteString("X4 — paper's approach vs overload schedulers (tau1 overruns every 2nd job)\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s\n", "policy", "success", "tau1", "tau3")
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s %9.4f %9.4f %9.4f\n", p.Policy, p.SuccessRatio, p.Tau1Success, p.Tau3Success)
	}
	return b.String()
}

// BlockingSweep (extension X9, paper §7: "the influence of tolerance
// on the determination of the blocking time bi") sweeps a uniform
// blocking term over the Table 2 system and reports the surviving
// equitable allowance, plus the converse: the blocking tolerance left
// at each partial allowance grant.
func BlockingSweep() (string, error) {
	s := Table2Set()
	tab, err := allowance.SweepBlocking(s, vtime.Millis(40), vtime.Millis(5), 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("X9 — blocking vs allowance (Table 2 system)\n")
	fmt.Fprintf(&b, "%12s %12s\n", "blocking", "allowance")
	for i := range tab.Blocking {
		a := "infeasible"
		if tab.Allowance[i] >= 0 {
			a = tab.Allowance[i].String()
		}
		fmt.Fprintf(&b, "%12v %12s\n", tab.Blocking[i], a)
	}
	b.WriteString("\n    granted A     blocking tolerance left\n")
	for _, grant := range []vtime.Duration{0, vtime.Millis(5), vtime.Millis(11)} {
		bt, err := allowance.MaxBlockingTolerance(s, grant, 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%12v %12v\n", grant, bt)
	}
	return b.String(), nil
}
