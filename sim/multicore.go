package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// The X13 multiprocessor differential sweep: seeded random task sets
// run on M cores under BOTH dispatch modes with the invariant oracle
// armed. Every run must be oracle-clean (per-core occupancy,
// migration legality, work conservation — see internal/verify), and
// whenever the partitioned bin packing finds a feasible placement the
// global run of the *same* task set must succeed at least as often:
// global dispatch can use the slack a partition strands on other
// cores, so losing jobs to migration freedom would be an engine bug.
// High-utilization draws usually defeat the packing and become
// global-only points, exercising migration under pressure. The sweep
// also fails if no global run migrated at all: its overloaded sets
// must migrate, so a dispatcher that never preempts or never moves a
// job would otherwise pass every check trivially.

// MulticoreSeed and MulticoreCount parameterize the default sweep
// (the "x13" registry entry and `make ci`).
const (
	MulticoreSeed  uint64 = 0x5EED_C04E
	MulticoreCount        = 24
)

// MulticorePoint summarizes one task set of the sweep.
type MulticorePoint struct {
	// Seed derives the task set (and names the reproducer).
	Seed uint64 `json:"seed"`
	// Name labels the generated scenario.
	Name string `json:"name"`
	// Policy is the drawn scheduling policy (fixed-priority or edf).
	Policy string `json:"policy"`
	// CPUs is the drawn core count.
	CPUs int `json:"cpus"`
	// Tasks counts the generated periodic tasks.
	Tasks int `json:"tasks"`
	// Util is the set's total utilization (demand across all cores).
	Util float64 `json:"util"`
	// PartitionFeasible reports whether first-fit decreasing packed
	// the set; when false only the global run exists.
	PartitionFeasible bool `json:"partition_feasible"`
	// GlobalRatio and PartitionedRatio are the success ratios of the
	// two runs (PartitionedRatio is meaningful only when feasible).
	GlobalRatio      float64 `json:"global_ratio"`
	PartitionedRatio float64 `json:"partitioned_ratio,omitempty"`
	// Migrations counts JobMigrate events in the global run.
	Migrations int `json:"migrations"`
}

// MulticoreSweep runs the global-vs-partitioned differential over
// seeds derived from base. Both runs of every point must be
// oracle-clean, on every feasible-partition point the global success
// ratio must be at least the partitioned one, and some global run
// must migrate; the first violation aborts the sweep.
func MulticoreSweep(ctx context.Context, base uint64, n int, opt RunOptions) ([]MulticorePoint, error) {
	seeds := runner.Seeds(base, n)
	points, err := runner.Map(ctx, runner.Options{Parallelism: opt.Parallelism, Progress: opt.Progress}, seeds,
		func(ctx context.Context, i int, seed uint64) (MulticorePoint, error) {
			return multicoreOne(seed)
		})
	if err != nil {
		return points, err
	}
	for _, p := range points {
		if p.Migrations > 0 {
			return points, nil
		}
	}
	return points, fmt.Errorf("sim: x13: no global run migrated across %d task sets — global dispatch never moved a job", len(points))
}

// multicoreOne runs one seeded task set through both dispatch modes.
func multicoreOne(seed uint64) (MulticorePoint, error) {
	sc := multicoreScenario(seed)
	point := MulticorePoint{
		Seed:   seed,
		Name:   sc.Name,
		Policy: sc.Policy,
		CPUs:   sc.CPUs,
		Tasks:  len(sc.Tasks),
	}
	for _, t := range sc.Tasks {
		point.Util += float64(t.Cost.D()) / float64(t.Period.D())
	}
	resG, err := verifiedRun(sc)
	if err != nil {
		return point, fmt.Errorf("seed %#x (global, %d cpus): %w", seed, sc.CPUs, err)
	}
	point.GlobalRatio = resG.SuccessRatio()
	for e := range resG.Log.All() {
		if e.Kind == trace.JobMigrate {
			point.Migrations++
		}
	}
	part := sc
	part.Placement = scenario.PlacementPartitioned
	if _, perr := part.Partition(); perr != nil {
		// No feasible packing: a legitimate global-only point (the
		// heuristic found no per-core-schedulable split).
		return point, nil
	}
	point.PartitionFeasible = true
	resP, err := verifiedRun(part)
	if err != nil {
		return point, fmt.Errorf("seed %#x (partitioned, %d cpus): %w", seed, sc.CPUs, err)
	}
	point.PartitionedRatio = resP.SuccessRatio()
	if point.GlobalRatio+1e-12 < point.PartitionedRatio {
		return point, fmt.Errorf("seed %#x: global success ratio %.4f below partitioned %.4f on the same task set — migration freedom must not lose jobs",
			seed, point.GlobalRatio, point.PartitionedRatio)
	}
	return point, nil
}

// multicoreScenario derives a multiprocessor scenario from the seed:
// 2 or 4 cores, fixed-priority or EDF, and a UUniFast task set in one
// of two utilization bands. The moderate band (≈0.25–0.35 per core,
// no task above utilization ½) sits inside the global-RM and
// global-EDF sufficient bounds, so both dispatch modes meet every
// deadline and the global ≥ partitioned criterion is exercised on a
// feasible partition. The overload band (>1.0 per core) provably
// defeats any partitioning — pigeonhole puts some core above
// utilization 1 — so those points run global-only, exercising
// migration and deadline handling under pressure.
func multicoreScenario(seed uint64) scenario.Scenario {
	r := taskset.NewRand(seed)
	cpus := 2
	if r.Float64() < 0.5 {
		cpus = 4
	}
	policy := "fixed-priority"
	if r.Float64() < 0.5 {
		policy = "edf"
	}
	perCore, umax := 0.25+0.10*r.Float64(), 0.5
	n := cpus + 1 + r.Intn(2*cpus)
	if r.Float64() < 0.35 {
		// Overload band. Many sub-0.7 tasks keep UUniFast from
		// clamping any draw at utilization 1.0, so the realized total
		// stays above cpus and — by pigeonhole — no partition onto
		// cpus unit-capacity cores can exist.
		perCore, umax = 1.05+0.15*r.Float64(), 0.7
		n = 4 * cpus
	}
	// Redraw concentration outliers: comparison points with a single
	// task above ½ utilization can trip the Dhall effect, where global
	// dispatch legitimately misses a deadline the partitioned split
	// meets. That is a property of the policy, not an engine bug, so
	// keep the comparison band inside the global-schedulability bounds.
	var set *taskset.Set
	var err error
	for attempt := 0; ; attempt++ {
		g := taskset.NewGenerator(r.Uint64())
		g.PeriodMin = 20 * vtime.Millisecond
		g.PeriodMax = 400 * vtime.Millisecond
		if set, err = g.Generate(n, perCore*float64(cpus)); err != nil {
			panic(fmt.Sprintf("sim: multicore task generation: %v", err)) // generator bug
		}
		if maxUtil(set) <= umax {
			break
		}
		if attempt >= 64 {
			panic(fmt.Sprintf("sim: multicore seed %#x: no draw within umax %.2f", seed, umax))
		}
	}
	sc := scenario.Scenario{
		Name:        fmt.Sprintf("mc-%016x", seed),
		Description: "seeded multiprocessor differential scenario (x13)",
		Policy:      policy,
		CPUs:        cpus,
		Horizon:     Duration(2 * vtime.Second),
		Seed:        seed,
	}
	for _, t := range set.Tasks {
		sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
	}
	return sc
}

// maxUtil returns the largest single-task utilization of the set.
func maxUtil(set *taskset.Set) float64 {
	var u float64
	for _, t := range set.Tasks {
		if v := float64(t.Cost) / float64(t.Period); v > u {
			u = v
		}
	}
	return u
}

// RenderMulticore prints the sweep in the artefact table style.
func RenderMulticore(points []MulticorePoint) string {
	var b strings.Builder
	b.WriteString("X13 — multiprocessor differential sweep: oracle-clean on every run, global ≥ partitioned where a partition exists\n")
	fmt.Fprintf(&b, "%-22s %-14s %4s %5s %6s  %-11s %8s %8s %10s\n",
		"scenario", "policy", "cpus", "tasks", "util", "partition", "global", "part", "migrations")
	var feasible, migrations int
	for _, p := range points {
		placed, ratio := "infeasible", "-"
		if p.PartitionFeasible {
			feasible++
			placed = "first-fit"
			ratio = fmt.Sprintf("%.4f", p.PartitionedRatio)
		}
		migrations += p.Migrations
		fmt.Fprintf(&b, "%-22s %-14s %4d %5d %6.3f  %-11s %8.4f %8s %10d\n",
			p.Name, p.Policy, p.CPUs, p.Tasks, p.Util, placed, p.GlobalRatio, ratio, p.Migrations)
	}
	fmt.Fprintf(&b, "%d task sets verified on both dispatch modes, %d feasible partitions beaten-or-matched by global dispatch, %d migrations observed, 0 invariant violations\n",
		len(points), feasible, migrations)
	return b.String()
}
