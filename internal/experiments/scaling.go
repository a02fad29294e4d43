package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Extension X10 — task-count scaling of the simulation substrate.
// The paper's §6.2 observation ("the more tasks in the system, the
// more sensors, hence the higher the influence of this overrun")
// makes task count a first-class workload axis, but exploring it is
// only honest if the simulator's own per-event cost does not grow
// with the task count. X10 pins that: synthetic systems from 10 to
// 500 tasks run to the same horizon, their events counted and not
// kept, and the engine-loop events/sec is reported next to the
// dispatch switches. With the policy-ordered ready queue the
// per-event cost grows sub-linearly (logarithmically) in the task
// count — pinned by TestDispatchCostSubLinear at the repository root.

// ScalingSizes is the default X10 axis.
var ScalingSizes = []int{10, 50, 100, 250, 500}

// Scaling sweep constants: every point draws its task set from a
// per-size derived seed at the same total utilization and runs to the
// same horizon.
const (
	ScalingHorizon     = 60 * vtime.Second
	ScalingUtilization = 0.6
	ScalingSeed        = 23
)

// ScalingPoint is one sample of the X10 task-count scaling sweep.
type ScalingPoint struct {
	Tasks int
	// Jobs counts released jobs over the horizon.
	Jobs int64
	// Events counts trace events — the loop iterations the engine
	// actually performed.
	Events int64
	// Switches counts dispatch switches.
	Switches int64
	// Wall is the wall-clock time of the engine loop alone.
	Wall time.Duration
	// EventsPerSec = Events / Wall.
	EventsPerSec float64
}

// scalingSink counts events and releases without retaining anything.
type scalingSink struct{ events, jobs int64 }

func (s *scalingSink) Append(ev trace.Event) {
	s.events++
	if ev.Kind == trace.JobRelease {
		s.jobs++
	}
}

// ScalingSet draws the synthetic n-task system of the X10 sweep:
// UUniFast utilizations at U=0.6, log-uniform periods, rate-monotonic
// priorities, from a per-size derived seed. The generator's default
// 1 ms cost granule would inflate a 500-task set's utilization ~8×
// past 1 (every task's cost rounds up to ≥ 1 ms) and the sweep would
// measure backlog growth, not dispatch — 10 µs granules keep the
// drawn utilization honest, so the live job count (and the engine's
// memory) stays bounded at every size. The scripts/ generator bakes
// the 100-task instance into testdata/scenarios/scaling-100.json.
func ScalingSet(n int, seed uint64) (*taskset.Set, error) {
	gen := taskset.NewGenerator(runner.DeriveSeed(seed, n))
	gen.DeadlineFactor = 1.0
	gen.Granularity = 10 * vtime.Microsecond
	return gen.Generate(n, ScalingUtilization)
}

// RunScalingPoint simulates one synthetic n-task system drawn by
// ScalingSet to the horizon, counting events in a sink that keeps
// none, and measures the engine loop. Admission control is
// deliberately skipped: X10 measures the substrate, not the analysis.
func RunScalingPoint(n int, horizon vtime.Duration, seed uint64) (ScalingPoint, error) {
	s, err := ScalingSet(n, seed)
	if err != nil {
		return ScalingPoint{}, err
	}
	sink := &scalingSink{}
	e, err := engine.New(engine.Config{
		Tasks: s,
		End:   vtime.Time(horizon),
		Sink:  sink,
	})
	if err != nil {
		return ScalingPoint{}, err
	}
	t0 := time.Now()
	e.Run()
	wall := time.Since(t0)
	p := ScalingPoint{
		Tasks:    n,
		Jobs:     sink.jobs,
		Events:   sink.events,
		Switches: e.Switches(),
		Wall:     wall,
	}
	if wall > 0 {
		p.EventsPerSec = float64(p.Events) / wall.Seconds()
	}
	return p, nil
}

// TaskScalingSweepCtx runs X10 over the given sizes. Unlike the
// other sweeps it is always serial: each point measures wall-clock
// events/sec, and concurrent simulations would contend for the CPU
// being measured. The context cancels between points; Progress is
// honoured.
func TaskScalingSweepCtx(ctx context.Context, sizes []int, horizon vtime.Duration, opt RunOptions) ([]ScalingPoint, error) {
	out := make([]ScalingPoint, 0, len(sizes))
	for i, n := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := RunScalingPoint(n, horizon, ScalingSeed)
		if err != nil {
			return nil, fmt.Errorf("experiments: x10 at %d tasks: %w", n, err)
		}
		out = append(out, p)
		if opt.Progress != nil {
			opt.Progress(i+1, len(sizes))
		}
	}
	return out, nil
}

// RenderScaling prints the X10 series. The simulated columns (jobs,
// events, switches) are deterministic; events/sec and ns/event
// reflect the measuring host.
func RenderScaling(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("X10 — engine throughput vs task count (U=0.6, 60s horizon, streaming)\n")
	fmt.Fprintf(&b, "%6s %9s %9s %9s %12s %9s\n", "tasks", "jobs", "events", "switches", "events/sec", "ns/event")
	for _, p := range points {
		nsPerEvent := 0.0
		if p.Events > 0 {
			nsPerEvent = float64(p.Wall.Nanoseconds()) / float64(p.Events)
		}
		fmt.Fprintf(&b, "%6d %9d %9d %9d %12.0f %9.1f\n",
			p.Tasks, p.Jobs, p.Events, p.Switches, p.EventsPerSec, nsPerEvent)
	}
	return b.String()
}
