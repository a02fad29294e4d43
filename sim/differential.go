package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/verify"
	"repro/internal/verify/gen"
	"repro/sim/scenario"
)

// The X11 differential sweep: N seeded random scenarios (package
// internal/verify/gen), each run under the online invariant oracle in
// every legal collection mode, asserting (a) zero invariant
// violations and (b) that the streamed report matches the retained
// one task-summary for task-summary. It is the registry's standing
// answer to "did the last engine change break an axiom on a workload
// no golden pins?" — a failing scenario is shrunk to a minimal
// reproducer under testdata/shrunk/ before the sweep errors out.

// DifferentialSeed and DifferentialCount parameterize the default
// sweep (the "x11" registry entry and `make ci`).
const (
	DifferentialSeed  uint64 = 0x5EED_D1FF
	DifferentialCount        = 60
)

// DifferentialPoint summarizes one scenario of the sweep.
type DifferentialPoint struct {
	// Seed derives the scenario (gen.Scenario(Seed)).
	Seed uint64 `json:"seed"`
	// Name is the generated scenario name.
	Name string `json:"name"`
	// Policy, Treatment and FaultKinds echo the drawn configuration.
	Policy     string   `json:"policy"`
	Treatment  string   `json:"treatment"`
	FaultKinds []string `json:"fault_kinds,omitempty"`
	// Tasks counts periodic tasks; Servers counts polling servers.
	Tasks   int `json:"tasks"`
	Servers int `json:"servers,omitempty"`
	// Overload marks a deliberately infeasible (skip-admission) run.
	Overload bool `json:"overload,omitempty"`
	// Modes lists the collection modes run ("retain", "stream").
	Modes []string `json:"modes"`
	// Released totals released jobs across tasks (retained run).
	Released int `json:"released"`
}

// DifferentialSweep runs the sweep over seeds derived from base. Every
// scenario must pass the oracle in each legal mode and, when both
// modes ran, produce equivalent reports; the first divergence aborts
// the sweep with a shrunk reproducer.
func DifferentialSweep(ctx context.Context, base uint64, n int, opt RunOptions) ([]DifferentialPoint, error) {
	seeds := runner.Seeds(base, n)
	return runner.Map(ctx, runner.Options{Parallelism: opt.Parallelism, Progress: opt.Progress}, seeds,
		func(ctx context.Context, i int, seed uint64) (DifferentialPoint, error) {
			return differentialOne(seed)
		})
}

// differentialOne runs one seed through the oracle in every legal
// mode and cross-checks the reports.
func differentialOne(seed uint64) (DifferentialPoint, error) {
	sc := gen.Scenario(seed)
	point := DifferentialPoint{
		Seed:      seed,
		Name:      sc.Name,
		Policy:    sc.Policy,
		Treatment: sc.Treatment,
		Tasks:     len(sc.Tasks),
		Servers:   len(sc.Servers),
		Overload:  sc.SkipAdmission,
	}
	for _, f := range sc.Faults {
		point.FaultKinds = append(point.FaultKinds, f.Kind)
	}
	modes := gen.LegalCollectModes(&sc)
	reports := make(map[string]*RunResult, len(modes))
	for _, mode := range modes {
		res, err := runDifferentialMode(sc, mode)
		if err != nil {
			// Stamp the failing mode onto the scenario before shrinking
			// and let each candidate run with its *own* collect block,
			// so a stream-only failure keeps "collect" in the written
			// reproducer (the shrinker may only drop it if the failure
			// also reproduces retained).
			failing := sc
			failing.Collect = &scenario.Collect{Mode: mode}
			repro := gen.Reproduce(gen.ReproducerPath(), failing, OracleFailure)
			return point, fmt.Errorf("seed %#x (%s collection): %w\nreproducer: %s", seed, mode, err, repro)
		}
		reports[mode] = res
		point.Modes = append(point.Modes, mode)
	}
	if res := reports[scenario.CollectRetain]; res != nil {
		for _, s := range res.Report.Tasks { // order-independent: a sum
			point.Released += s.Released
		}
	}
	if len(modes) == 2 {
		if diff := reportDivergence(reports[scenario.CollectRetain], reports[scenario.CollectStream]); diff != "" {
			repro := gen.Reproduce(gen.ReproducerPath(), sc, func(cand scenario.Scenario) bool {
				if len(cand.Servers) > 0 {
					return false
				}
				r, errR := runDifferentialMode(cand, scenario.CollectRetain)
				s, errS := runDifferentialMode(cand, scenario.CollectStream)
				return errR == nil && errS == nil && reportDivergence(r, s) != ""
			})
			return point, fmt.Errorf("seed %#x: retain and stream reports diverge: %s\nreproducer (compare a retain and a stream run of it): %s", seed, diff, repro)
		}
	}
	return point, nil
}

// runDifferentialMode runs the scenario in one collection mode with
// the oracle armed.
func runDifferentialMode(sc scenario.Scenario, mode string) (*RunResult, error) {
	sc.Collect = &scenario.Collect{Mode: mode}
	return verifiedRun(sc)
}

// verifiedRun runs the scenario as declared (its own collect block)
// with the oracle armed.
func verifiedRun(sc scenario.Scenario) (*RunResult, error) {
	sc.Verify = true
	sys, err := FromScenario(sc)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// OracleFailure reports whether running the scenario as declared
// (its own collect block), with the invariant oracle armed, ends in
// an oracle violation. A run erroring for any other reason — invalid
// spec, infeasible set — reports false, honouring gen.Failure's
// contract, so it is the shrink predicate behind the x11 sweep and
// the FuzzScenario harness alike.
func OracleFailure(cand Scenario) bool {
	_, err := verifiedRun(cand)
	var verr *verify.Error
	return errors.As(err, &verr)
}

// reportDivergence compares a retained and a streamed run of the same
// scenario on everything streaming promises to reproduce exactly:
// detections, switches, and every exported TaskSummary counter and
// response statistic. It returns "" when equivalent, else the first
// difference.
func reportDivergence(retained, streamed *RunResult) string {
	if retained.Detections != streamed.Detections {
		return fmt.Sprintf("detections %d vs %d", retained.Detections, streamed.Detections)
	}
	if retained.Switches != streamed.Switches {
		return fmt.Sprintf("switches %d vs %d", retained.Switches, streamed.Switches)
	}
	a, b := retained.Report.Tasks, streamed.Report.Tasks
	if len(a) != len(b) {
		return fmt.Sprintf("task count %d vs %d", len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for name := range a { // order-independent: sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb == nil {
			return fmt.Sprintf("task %s missing from streamed report", name)
		}
		type row struct {
			field    string
			av, bv   any
			diverges bool
		}
		rows := []row{
			{"released", ra.Released, rb.Released, ra.Released != rb.Released},
			{"finished", ra.Finished, rb.Finished, ra.Finished != rb.Finished},
			{"stopped", ra.Stopped, rb.Stopped, ra.Stopped != rb.Stopped},
			{"missed", ra.Missed, rb.Missed, ra.Missed != rb.Missed},
			{"failed", ra.Failed, rb.Failed, ra.Failed != rb.Failed},
			{"detected", ra.Detected, rb.Detected, ra.Detected != rb.Detected},
			{"min response", ra.MinResponse, rb.MinResponse, ra.MinResponse != rb.MinResponse},
			{"max response", ra.MaxResponse, rb.MaxResponse, ra.MaxResponse != rb.MaxResponse},
			{"mean response", ra.MeanResponse, rb.MeanResponse, ra.MeanResponse != rb.MeanResponse},
		}
		for _, r := range rows {
			if r.diverges {
				return fmt.Sprintf("task %s %s %v vs %v", name, r.field, r.av, r.bv)
			}
		}
	}
	return ""
}

// RenderDifferential prints the sweep in the artefact table style.
func RenderDifferential(points []DifferentialPoint) string {
	var b strings.Builder
	b.WriteString("X11 — differential invariant sweep: every scenario oracle-clean, retain ≡ stream\n")
	fmt.Fprintf(&b, "%-22s %-14s %-10s %5s %5s %8s  %-13s %s\n",
		"scenario", "policy", "treatment", "tasks", "srv", "released", "modes", "faults")
	var scenarios, streamed int
	for _, p := range points {
		scenarios++
		if len(p.Modes) == 2 {
			streamed++
		}
		faults := strings.Join(p.FaultKinds, ",")
		if faults == "" {
			faults = "-"
		}
		name := p.Name
		if p.Overload {
			name += "*"
		}
		fmt.Fprintf(&b, "%-22s %-14s %-10s %5d %5d %8d  %-13s %s\n",
			name, p.Policy, p.Treatment, p.Tasks, p.Servers, p.Released,
			strings.Join(p.Modes, "+"), faults)
	}
	fmt.Fprintf(&b, "%d scenarios verified, %d cross-checked retain vs stream, 0 invariant violations (* = overload, admission skipped)\n",
		scenarios, streamed)
	return b.String()
}

// The "x11" registry entry is registered from experiments.go's init,
// keeping the artefact order cmd/rtexp has always printed.
