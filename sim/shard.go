package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/verify/gen"
	"repro/sim/scenario"
)

// Process-sharded sweeps: ShardedSweep fans whole scenarios across N
// worker *processes* (runner.MapProc) instead of goroutines. Each
// worker runs its scenario with streaming collection and streams back
// the serialized accumulator state (metrics.AccumulatorState), which
// the parent turns back into reports — field-for-field equal to an
// in-process run, the property the x12 sweep pins. Worker processes
// are the current binary re-executing itself: RunShardWorkerIfEnv is
// the hook a main() calls first, and cmd/rtworker is the standalone
// worker binary.

// ShardWorkerEnv, when set in a process's environment, marks it as a
// shard worker: RunShardWorkerIfEnv serves scenario jobs on
// stdin/stdout and exits instead of running the program.
const ShardWorkerEnv = "RTSIM_SHARD_WORKER"

// ShardResult is what a worker streams back for one scenario: the
// run's summary counters and the full serialized accumulator —
// everything needed to rebuild the report (ShardReport) or fold many
// shards into an aggregate (metrics.Accumulator.Absorb).
type ShardResult struct {
	Name       string                    `json:"name"`
	Switches   int64                     `json:"switches"`
	Detections int64                     `json:"detections,omitempty"`
	Metrics    *metrics.AccumulatorState `json:"metrics"`
}

// Report rebuilds the worker-side streaming report.
func (r *ShardResult) Report() (*metrics.Report, error) {
	return metrics.ReportFromState(r.Metrics)
}

// ServeShardWorker is the worker loop: scenario in, ShardResult out,
// until EOF on r. Scenarios must declare streaming collection (the
// serialized accumulator is the wire format; a retained run has no
// accumulator to ship).
func ServeShardWorker(r io.Reader, w io.Writer) error {
	return runner.ServeProc(r, w, func(job json.RawMessage) (json.RawMessage, error) {
		sc, err := scenario.Decode(bytes.NewReader(job))
		if err != nil {
			return nil, err
		}
		if !sc.Streaming() {
			return nil, fmt.Errorf("sim: shard worker needs streaming collection, scenario %q retains", sc.Name)
		}
		sys, err := FromScenario(*sc)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run()
		if err != nil {
			return nil, err
		}
		st, err := metrics.StateFromReport(res.Report)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ShardResult{
			Name:       sc.Name,
			Switches:   res.Switches,
			Detections: res.Detections,
			Metrics:    st,
		})
	})
}

// RunShardWorkerIfEnv turns the current process into a shard worker
// when ShardWorkerEnv is set, and never returns in that case. Call it
// first in main() of any binary that launches ShardedSweep with the
// default self-exec command.
func RunShardWorkerIfEnv() {
	if os.Getenv(ShardWorkerEnv) == "" {
		return
	}
	if err := ServeShardWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ShardOptions tunes a ShardedSweep.
type ShardOptions struct {
	// Workers is the worker-process count (<= 0 means 1).
	Workers int
	// MaxRetries bounds per-job re-dispatches after worker deaths
	// (<= 0 means 2 — see runner.ProcOptions).
	MaxRetries int
	// Command overrides how a worker process is spawned. The default
	// re-executes the current binary with ShardWorkerEnv set.
	Command func() *exec.Cmd
	// Progress observes completed-scenario counts, as in RunOptions.
	Progress func(done, total int)
}

func (o ShardOptions) command() func() *exec.Cmd {
	if o.Command != nil {
		return o.Command
	}
	return func() *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), ShardWorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// ShardedSweep runs every scenario in a pool of worker processes and
// returns results in input order. Workers that die are respawned and
// their in-flight scenario re-dispatched; a scenario that *fails*
// (invalid, oracle, infeasible) fails the sweep with its index.
func ShardedSweep(ctx context.Context, opt ShardOptions, scs []Scenario) ([]ShardResult, error) {
	jobs := make([]json.RawMessage, len(scs))
	for i := range scs {
		raw, err := scenario.Marshal(&scs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: scenario %d: %w", i, err)
		}
		jobs[i] = raw
	}
	raws, err := runner.MapProc(ctx, runner.ProcOptions{
		Workers:    opt.Workers,
		MaxRetries: opt.MaxRetries,
		Command:    opt.command(),
		Progress:   opt.Progress,
	}, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]ShardResult, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("sim: shard result %d: %w", i, err)
		}
		if out[i].Metrics == nil {
			return nil, fmt.Errorf("sim: shard result %d carries no accumulator state", i)
		}
	}
	return out, nil
}

// AggregateShards folds every shard's accumulator state into one
// aggregate report — the cross-scenario view of a sharded sweep
// (counters sum, extremes fold, sketches merge with the widened
// εa+εb rank bound).
func AggregateShards(results []ShardResult) (*metrics.Report, error) {
	agg := metrics.NewAccumulator()
	for i := range results {
		if err := agg.Absorb(results[i].Metrics); err != nil {
			return nil, fmt.Errorf("sim: absorbing shard %d: %w", i, err)
		}
	}
	return agg.Report(), nil
}

// The X12 sweep: N seeded streaming scenarios run twice — serially
// in-process and sharded across worker processes — asserting the
// sharded reports equal the serial ones on every task-summary field,
// switches included. It is the standing proof that the process
// executor's serialization pipeline (StateFromReport → JSON →
// ReportFromState) loses nothing.

// ShardSeed, ShardCount and ShardWorkers parameterize the default x12
// sweep.
const (
	ShardSeed    uint64 = 0x0C12_5EED
	ShardCount          = 24
	ShardWorkers        = 3
)

// ShardPoint summarizes one scenario of the x12 sweep.
type ShardPoint struct {
	Seed     uint64 `json:"seed"`
	Name     string `json:"name"`
	Policy   string `json:"policy"`
	Tasks    int    `json:"tasks"`
	Overload bool   `json:"overload,omitempty"`
	Released int    `json:"released"`
	Switches int64  `json:"switches"`
}

// ShardDifferentialSweep runs the x12 comparison over seeds derived
// from base. The first serial-vs-sharded divergence aborts the sweep.
func ShardDifferentialSweep(ctx context.Context, base uint64, n int, opt RunOptions) ([]ShardPoint, error) {
	seeds := runner.Seeds(base, n)
	scs := make([]Scenario, n)
	for i, seed := range seeds {
		scs[i] = gen.Checkpointable(seed)
	}

	serial, err := runner.Map(ctx, runner.Options{Parallelism: opt.Parallelism}, scs,
		func(ctx context.Context, i int, sc Scenario) (*RunResult, error) {
			sys, err := FromScenario(sc)
			if err != nil {
				return nil, err
			}
			return sys.Run()
		})
	if err != nil {
		return nil, fmt.Errorf("sim: x12 serial leg: %w", err)
	}

	sharded, err := ShardedSweep(ctx, ShardOptions{Workers: ShardWorkers, Progress: opt.Progress}, scs)
	if err != nil {
		return nil, fmt.Errorf("sim: x12 sharded leg: %w", err)
	}

	points := make([]ShardPoint, n)
	for i := range scs {
		rep, err := sharded[i].Report()
		if err != nil {
			return nil, fmt.Errorf("sim: seed %#x: rebuilding shard report: %w", seeds[i], err)
		}
		shardRes := &RunResult{
			Report:     rep,
			Switches:   sharded[i].Switches,
			Detections: sharded[i].Detections,
		}
		if diff := reportDivergence(serial[i], shardRes); diff != "" {
			return nil, fmt.Errorf("sim: seed %#x (%s): sharded report diverges from serial: %s",
				seeds[i], scs[i].Name, diff)
		}
		p := ShardPoint{
			Seed:     seeds[i],
			Name:     scs[i].Name,
			Policy:   scs[i].Policy,
			Tasks:    len(scs[i].Tasks),
			Overload: scs[i].SkipAdmission,
			Switches: sharded[i].Switches,
		}
		for _, s := range rep.Tasks { // order-independent: a sum
			p.Released += s.Released
		}
		points[i] = p
	}
	return points, nil
}

// RenderShardDifferential prints the sweep in the artefact table
// style.
func RenderShardDifferential(points []ShardPoint) string {
	var b strings.Builder
	b.WriteString("X12 — process-sharded sweep: worker-process reports ≡ serial in-process reports\n")
	fmt.Fprintf(&b, "%-24s %-14s %5s %8s %8s\n", "scenario", "policy", "tasks", "released", "switches")
	for _, p := range points {
		name := p.Name
		if p.Overload {
			name += "*"
		}
		fmt.Fprintf(&b, "%-24s %-14s %5d %8d %8d\n", name, p.Policy, p.Tasks, p.Released, p.Switches)
	}
	fmt.Fprintf(&b, "%d scenarios sharded across %d worker processes, 0 divergences vs serial (* = overload, admission skipped)\n",
		len(points), ShardWorkers)
	return b.String()
}
