// Package experiments defines one constructor per table and figure of
// the paper's evaluation, plus the extension sweeps listed in the
// README's "Experiments" section. Each experiment produces printable
// rows in the shape the paper reports, so the benchmark harness and
// cmd/rtexp regenerate the published artefacts.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// RunOptions configures how a sweep executes its independent
// simulations through the internal/runner worker pool. The zero value
// uses every core. Because the runner collects results in input order
// and every job draws from its own derived seed, the rendered tables
// are byte-identical at any parallelism — Parallelism: 1 is the
// serial escape hatch the cross-check tests diff against.
type RunOptions struct {
	// Parallelism is the worker count: 0 = GOMAXPROCS, 1 = serial.
	Parallelism int
	// Progress, when non-nil, observes completed-simulation counts.
	Progress func(done, total int)
}

func (o RunOptions) pool() runner.Options {
	return runner.Options{Parallelism: o.Parallelism, Progress: o.Progress}
}

// Table1Set returns the paper's Table 1 system (the arbitrary-deadline
// response-time demonstration).
func Table1Set() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(6), Deadline: vtime.Millis(6), Cost: vtime.Millis(3)},
		taskset.Task{Name: "tau2", Priority: 15, Period: vtime.Millis(4), Deadline: vtime.Millis(6), Cost: vtime.Millis(2)},
	)
}

// Table2Set returns the paper's Table 2 evaluation system.
func Table2Set() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(200), Deadline: vtime.Millis(70), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: vtime.Millis(250), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: vtime.Millis(1500), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
	)
}

// FigureSet returns the Table 2 system as run in Figures 3–7: τ3
// carries a 1000 ms release offset so that the published window —
// τ1's job 5, τ2's job 4 and a τ3 job all released at t = 1000 ms —
// occurs.
func FigureSet() *taskset.Set {
	s := Table2Set()
	s.Tasks[2].Offset = vtime.Millis(1000)
	return s
}

// FaultyJob identifies the injected fault of the figures: τ1's job
// released at t = 1000 ms is job index 5 (jobs 0..4 release at
// 0..800 ms).
const FaultyJob = 5

// FigureFaultExtra is the injected overrun. The paper does not print
// the magnitude; 40 ms reproduces every published outcome: without
// treatment τ1 finishes at 1069 (before its 1070 deadline), τ2 at
// 1098 (before 1120), τ3 at 1127 (missing 1120) — Figure 3's "τ1 ends
// before its deadline, just as task τ2, but task τ3 misses its
// deadline".
const FigureFaultExtra = 40 * vtime.Millisecond

// FigureWindow is the charted interval around the faulty activation.
func FigureWindow() (from, to vtime.Time) {
	return vtime.AtMillis(990), vtime.AtMillis(1140)
}

// FigureHorizon covers one full hyperperiod beyond the fault window.
const FigureHorizon = 1500 * vtime.Millisecond

// Table1Row is one line of the Table 1 / Figure 1 reproduction.
type Table1Row struct {
	Task string
	Jobs []analysis.JobResponse
	WCRT vtime.Duration
}

// Table1 computes per-job response times over the level-i busy period
// for both Table 1 tasks.
func Table1() ([]Table1Row, error) {
	s := Table1Set()
	out := make([]Table1Row, 0, s.Len())
	for i, t := range s.Tasks {
		jobs, err := analysis.JobResponseTimes(s, i, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 task %s: %w", t.Name, err)
		}
		wcrt, err := analysis.WCResponseTime(s, i, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{Task: t.Name, Jobs: jobs, WCRT: wcrt})
	}
	return out, nil
}

// RenderTable1 prints the rows in the paper's layout plus the per-job
// responses charted in Figure 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 / Figure 1 — worst case is not the critical-instant job\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s WCRT=%v  per-job responses:", r.Task, r.WCRT)
		for _, j := range r.Jobs {
			fmt.Fprintf(&b, " q%d=%v", j.Q, j.Response)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table2Row is one line of the paper's Table 2 (with allowance).
type Table2Row struct {
	Task       taskset.Task
	WCRT       vtime.Duration
	Allowance  vtime.Duration
	MaxOverrun vtime.Duration
}

// Table2 reproduces the paper's Table 2: parameters, WCRTs and the
// equitable allowance Ai, plus the §4.3 per-task maximum overrun.
func Table2() ([]Table2Row, error) {
	s := Table2Set()
	tab, err := allowance.Compute(s, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Table2Row, s.Len())
	for i, t := range s.Tasks {
		out[i] = Table2Row{Task: t, WCRT: tab.WCRT[i], Allowance: tab.Equitable(), MaxOverrun: tab.MaxOverrun()[i]}
	}
	return out, nil
}

// RenderTable2 prints Table 2 in the paper's column order.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2 — tested tasks system\n")
	fmt.Fprintf(&b, "%-6s %4s %6s %6s %6s %8s %5s %6s\n", "task", "P", "T", "D", "C", "WCRT", "A", "maxOv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4d %6d %6d %6d %8d %5d %6d\n",
			r.Task.Name, r.Task.Priority,
			r.Task.Period.Milliseconds(), r.Task.Deadline.Milliseconds(), r.Task.Cost.Milliseconds(),
			r.WCRT.Milliseconds(), r.Allowance.Milliseconds(), r.MaxOverrun.Milliseconds())
	}
	return b.String()
}

// Table3Row is one line of the paper's Table 3 (WCRT with overruns).
type Table3Row struct {
	Task          string
	WCRT          vtime.Duration
	EquitableWCRT vtime.Duration
	Shift         vtime.Duration
}

// Table3 reproduces the paper's Table 3: the worst case response
// times when every task overruns by the equitable allowance.
func Table3() ([]Table3Row, error) {
	s := Table2Set()
	tab, err := allowance.Compute(s, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Table3Row, s.Len())
	for i, t := range s.Tasks {
		out[i] = Table3Row{
			Task:          t.Name,
			WCRT:          tab.WCRT[i],
			EquitableWCRT: tab.EquitableWCRT()[i],
			Shift:         tab.EquitableWCRT()[i] - tab.WCRT[i],
		}
	}
	return out, nil
}

// RenderTable3 prints Table 3 in the paper's shape.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3 — worst case response time with cost overruns\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s WCRT+%dms = %v\n", r.Task, r.Shift.Milliseconds(), r.EquitableWCRT)
	}
	return b.String()
}

// Figure identifies one of the paper's execution figures.
type Figure int

// The five execution charts of Section 6.
const (
	Figure3 Figure = 3 // no detection
	Figure4 Figure = 4 // detection, no treatment
	Figure5 Figure = 5 // immediate stop
	Figure6 Figure = 6 // equitable allowance
	Figure7 Figure = 7 // system allowance
)

// Treatment maps the figure to its §4 treatment.
func (f Figure) Treatment() detect.Treatment {
	switch f {
	case Figure3:
		return detect.NoDetection
	case Figure4:
		return detect.DetectOnly
	case Figure5:
		return detect.Stop
	case Figure6:
		return detect.Equitable
	case Figure7:
		return detect.SystemAllowance
	default:
		panic(fmt.Sprintf("experiments: unknown figure %d", int(f)))
	}
}

// Title echoes the paper's subsection captions.
func (f Figure) Title() string {
	switch f {
	case Figure3:
		return "Figure 3 — execution without detection"
	case Figure4:
		return "Figure 4 — execution with detection, without treatments"
	case Figure5:
		return "Figure 5 — instantaneous stop of the faulty tasks"
	case Figure6:
		return "Figure 6 — allowance granted equitably to all tasks"
	case Figure7:
		return "Figure 7 — allowance granted totally to the first faulty task"
	default:
		return fmt.Sprintf("figure %d", int(f))
	}
}

// RunFigure executes the paper's §6 scenario under the figure's
// treatment: the Table 2 system, τ3 offset 1000 ms, a 40 ms overrun
// injected into τ1's job 5, jRate's 10 ms timer resolution.
func RunFigure(f Figure) (*core.Result, error) {
	sys, err := core.NewSystem(core.Config{
		Tasks:           FigureSet(),
		Treatment:       f.Treatment(),
		Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: FaultyJob, Extra: FigureFaultExtra}},
		Horizon:         FigureHorizon,
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// FigureOutcome condenses a figure run into the facts the paper's
// prose states: per-task failure of the jobs released at t = 1000 ms
// and the completion instants.
type FigureOutcome struct {
	Figure Figure
	// Tau1End, Tau2End, Tau3End are the termination instants of the
	// jobs released at 1000 ms (stop or completion).
	Tau1End, Tau2End, Tau3End vtime.Time
	// Tau1Failed etc. report job failure (miss or stop).
	Tau1Failed, Tau2Failed, Tau3Failed bool
	// Detections counts flagged faults over the whole run.
	Detections int64
}

// Outcome extracts the FigureOutcome from a run result.
func Outcome(f Figure, res *core.Result) FigureOutcome {
	o := FigureOutcome{Figure: f, Detections: res.Detections}
	if j, ok := res.Report.Job("tau1", FaultyJob); ok {
		o.Tau1End, o.Tau1Failed = j.End, j.Failed()
	}
	if j, ok := res.Report.Job("tau2", 4); ok {
		o.Tau2End, o.Tau2Failed = j.End, j.Failed()
	}
	if j, ok := res.Report.Job("tau3", 0); ok {
		o.Tau3End, o.Tau3Failed = j.End, j.Failed()
	}
	return o
}

// RenderOutcome prints the outcome next to the paper's statement.
func RenderOutcome(o FigureOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", o.Figure.Title())
	fmt.Fprintf(&b, "  tau1 job%d end=%v failed=%v\n", FaultyJob, o.Tau1End, o.Tau1Failed)
	fmt.Fprintf(&b, "  tau2 job4 end=%v failed=%v\n", o.Tau2End, o.Tau2Failed)
	fmt.Fprintf(&b, "  tau3 job0 end=%v failed=%v\n", o.Tau3End, o.Tau3Failed)
	fmt.Fprintf(&b, "  detections=%d\n", o.Detections)
	return b.String()
}

// SweepPoint is one sample of the X2 fault-magnitude sweep.
type SweepPoint struct {
	Extra        vtime.Duration
	Treatment    detect.Treatment
	SuccessRatio float64
	Tau2Failed   int
	Tau3Failed   int
}

// FaultMagnitudeSweepCtx generalizes Figures 3–7 (extension X2): it
// sweeps the injected overrun of τ1's job 5 from 0 to max in steps,
// for every treatment, reporting the system success ratio and the
// collateral failures of the lower-priority tasks. Every (magnitude,
// treatment) point is an independent simulation submitted to the
// runner pool.
func FaultMagnitudeSweepCtx(ctx context.Context, maxExtra, step vtime.Duration, opt RunOptions) ([]SweepPoint, error) {
	treatments := []detect.Treatment{
		detect.NoDetection, detect.DetectOnly, detect.Stop,
		detect.Equitable, detect.SystemAllowance,
	}
	type job struct {
		extra vtime.Duration
		tr    detect.Treatment
	}
	var jobs []job
	for extra := vtime.Duration(0); extra <= maxExtra; extra += step {
		for _, tr := range treatments {
			jobs = append(jobs, job{extra, tr})
		}
	}
	return runner.Map(ctx, opt.pool(), jobs, func(_ context.Context, _ int, j job) (SweepPoint, error) {
		sys, err := core.NewSystem(core.Config{
			Tasks:           FigureSet(),
			Treatment:       j.tr,
			Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: FaultyJob, Extra: j.extra}},
			Horizon:         FigureHorizon,
			TimerResolution: detect.DefaultTimerResolution,
		})
		if err != nil {
			return SweepPoint{}, err
		}
		res, err := sys.Run()
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{
			Extra:        j.extra,
			Treatment:    j.tr,
			SuccessRatio: res.Report.SuccessRatio(),
			Tau2Failed:   res.Report.Tasks["tau2"].Failed,
			Tau3Failed:   res.Report.Tasks["tau3"].Failed,
		}, nil
	})
}

// RenderSweep prints the X2 sweep as a series table.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("X2 — success ratio vs fault magnitude (tau1 job 5 overrun)\n")
	fmt.Fprintf(&b, "%8s %-20s %9s %6s %6s\n", "extra", "treatment", "success", "tau2F", "tau3F")
	for _, p := range points {
		fmt.Fprintf(&b, "%8v %-20s %9.4f %6d %6d\n", p.Extra, p.Treatment, p.SuccessRatio, p.Tau2Failed, p.Tau3Failed)
	}
	return b.String()
}

// ResolutionPoint is one sample of the X3 timer-resolution sweep.
type ResolutionPoint struct {
	Resolution vtime.Duration
	Treatment  detect.Treatment
	// Tau1Ran is how long the faulty job executed before ending.
	Tau1Ran vtime.Duration
	// Collateral counts failures of tau2/tau3.
	Collateral int
}

// TimerResolutionSweepCtx (extension X3) reruns the Figure 5–7
// scenarios under detector quantizations of 0 (exact), 1, 5 and
// 10 ms, measuring how much CPU the faulty task obtained and whether
// the quantization-induced delay caused collateral misses. It runs
// one simulation per (resolution, treatment) point on the runner
// pool.
func TimerResolutionSweepCtx(ctx context.Context, opt RunOptions) ([]ResolutionPoint, error) {
	type job struct {
		res vtime.Duration
		tr  detect.Treatment
	}
	var jobs []job
	for _, res := range []vtime.Duration{0, vtime.Millis(1), vtime.Millis(5), vtime.Millis(10)} {
		for _, tr := range []detect.Treatment{detect.Stop, detect.Equitable, detect.SystemAllowance} {
			jobs = append(jobs, job{res, tr})
		}
	}
	return runner.Map(ctx, opt.pool(), jobs, func(_ context.Context, _ int, j job) (ResolutionPoint, error) {
		sys, err := core.NewSystem(core.Config{
			Tasks:           FigureSet(),
			Treatment:       j.tr,
			Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: FaultyJob, Extra: FigureFaultExtra}},
			Horizon:         FigureHorizon,
			TimerResolution: j.res,
		})
		if err != nil {
			return ResolutionPoint{}, err
		}
		r, err := sys.Run()
		if err != nil {
			return ResolutionPoint{}, err
		}
		p := ResolutionPoint{Resolution: j.res, Treatment: j.tr}
		if jb, ok := r.Report.Job("tau1", FaultyJob); ok {
			p.Tau1Ran = jb.End.Sub(jb.Begin)
		}
		p.Collateral = r.Report.Tasks["tau2"].Failed + r.Report.Tasks["tau3"].Failed
		return p, nil
	})
}

// OverheadPoint is one sample of the X1 detector-overhead sweep.
type OverheadPoint struct {
	Tasks      int
	Detectors  bool
	Switches   int64
	TraceBytes int
}

// DetectorOverheadSweepCtx (extension X1) quantifies the paper's §6.2
// remark — "the more tasks in the system, the more sensors, hence the
// higher the influence of this overrun" — by running n-task systems
// with and without detectors and comparing dispatch switches, on the
// runner pool. Each (size, detectors) point regenerates its task set
// from a fresh Generator seeded identically, so no job shares RNG
// state yet both detector settings of a size see the very same
// system.
func DetectorOverheadSweepCtx(ctx context.Context, sizes []int, seed uint64, opt RunOptions) ([]OverheadPoint, error) {
	type job struct {
		n       int
		withDet bool
	}
	var jobs []job
	for _, n := range sizes {
		jobs = append(jobs, job{n, false}, job{n, true})
	}
	return runner.Map(ctx, opt.pool(), jobs, func(_ context.Context, _ int, j job) (OverheadPoint, error) {
		gen := taskset.NewGenerator(seed)
		gen.DeadlineFactor = 1.0
		s, err := gen.Generate(j.n, 0.5)
		if err != nil {
			return OverheadPoint{}, err
		}
		tr := detect.NoDetection
		if j.withDet {
			tr = detect.DetectOnly
		}
		sys, err := core.NewSystem(core.Config{
			Tasks:           s,
			Treatment:       tr,
			Horizon:         2 * vtime.Second,
			TimerResolution: detect.DefaultTimerResolution,
		})
		if err != nil {
			return OverheadPoint{}, err
		}
		r, err := sys.Run()
		if err != nil {
			return OverheadPoint{}, err
		}
		return OverheadPoint{
			Tasks:      j.n,
			Detectors:  j.withDet,
			Switches:   r.Switches,
			TraceBytes: len(r.Log.EncodeString()),
		}, nil
	})
}

// AcceptancePoint is one sample of the X5 admission-test comparison.
type AcceptancePoint struct {
	U          float64
	LLAccept   float64
	HypAccept  float64
	ExactAccpt float64
}

// AcceptanceSweepCtx (extension X5) measures, over random implicit-
// deadline task sets, the acceptance ratio of the Liu–Layland bound,
// the hyperbolic bound and the exact response-time test at each
// utilization level — the classical justification for implementing
// Figure 2 rather than relying on Eq. 1. It runs one job per
// utilization level on the runner pool. Each level draws its task
// sets from its own runner.DeriveSeed(seed, level) stream instead of
// one generator shared across levels, so levels are independent of
// execution order and the sweep renders identically at any
// parallelism.
func AcceptanceSweepCtx(ctx context.Context, levels []float64, perLevel int, n int, seed uint64, opt RunOptions) ([]AcceptancePoint, error) {
	return runner.Map(ctx, opt.pool(), levels, func(_ context.Context, i int, u float64) (AcceptancePoint, error) {
		gen := taskset.NewGenerator(runner.DeriveSeed(seed, i))
		var ll, hyp, exact int
		for k := 0; k < perLevel; k++ {
			s, err := gen.Generate(n, u)
			if err != nil {
				return AcceptancePoint{}, err
			}
			if analysis.LiuLaylandBound(s) == analysis.VerdictFeasible {
				ll++
			}
			if analysis.HyperbolicBound(s) == analysis.VerdictFeasible {
				hyp++
			}
			rep, err := analysis.Feasible(s)
			if err == nil && rep.Feasible {
				exact++
			}
		}
		return AcceptancePoint{
			U:          u,
			LLAccept:   float64(ll) / float64(perLevel),
			HypAccept:  float64(hyp) / float64(perLevel),
			ExactAccpt: float64(exact) / float64(perLevel),
		}, nil
	})
}

// RenderAcceptance prints the X5 series.
func RenderAcceptance(points []AcceptancePoint) string {
	var b strings.Builder
	b.WriteString("X5 — acceptance ratio by admission test\n")
	fmt.Fprintf(&b, "%6s %8s %8s %8s\n", "U", "LL", "hyperb", "exact")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.2f %8.3f %8.3f %8.3f\n", p.U, p.LLAccept, p.HypAccept, p.ExactAccpt)
	}
	return b.String()
}

// SummaryOf is a convenience for benches: per-task failures as a map.
func SummaryOf(res *core.Result) map[string]metrics.TaskSummary {
	out := make(map[string]metrics.TaskSummary, len(res.Report.Tasks))
	for name, s := range res.Report.Tasks {
		out[name] = *s
	}
	return out
}
