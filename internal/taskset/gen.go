package taskset

import (
	"fmt"
	"math"

	"repro/internal/vtime"
)

// Generator produces deterministic synthetic task sets for the sweep
// experiments (X1–X5). Utilizations follow the UUniFast
// algorithm (Bini & Buttazzo), periods are log-uniform over a range,
// and priorities are assigned rate-monotonically by default — the
// standard methodology in the fixed-priority literature the paper
// builds on.
type Generator struct {
	rng *Rand
	// PeriodMin and PeriodMax bound the log-uniform period draw.
	PeriodMin, PeriodMax vtime.Duration
	// DeadlineFactor scales deadlines relative to periods:
	// D = DeadlineFactor * T. 1.0 gives implicit deadlines; values
	// below 1 give constrained deadlines like the paper's Table 2.
	DeadlineFactor float64
	// Granularity rounds periods and costs to a multiple of this
	// duration (default 1 ms) so that hyperperiods stay tractable.
	Granularity vtime.Duration
}

// NewGenerator returns a Generator with the given seed and defaults:
// periods in [10ms, 1s], implicit deadlines, 1 ms granularity.
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		rng:            NewRand(seed),
		PeriodMin:      10 * vtime.Millisecond,
		PeriodMax:      1000 * vtime.Millisecond,
		DeadlineFactor: 1.0,
		Granularity:    vtime.Millisecond,
	}
}

// UUniFast draws n task utilizations summing to totalU. It is the
// classic unbiased algorithm: each step splits the remaining
// utilization with an appropriately-powered uniform draw.
func (g *Generator) UUniFast(n int, totalU float64) []float64 {
	us := make([]float64, n)
	sum := totalU
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(g.rng.Float64(), 1.0/float64(n-i-1))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	return us
}

// Generate builds a validated set of n tasks with total utilization
// totalU. Priorities are rate monotonic (shorter period = higher
// priority; ties broken by draw order). Costs are rounded up to the
// granularity and forced to be at least one granule, so the achieved
// utilization can slightly exceed totalU on tiny draws.
func (g *Generator) Generate(n int, totalU float64) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("taskset: generator needs n > 0, got %d", n)
	}
	if totalU <= 0 {
		return nil, fmt.Errorf("taskset: generator needs totalU > 0, got %g", totalU)
	}
	us := g.UUniFast(n, totalU)
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		period := g.logUniformPeriod()
		cost := vtime.Duration(float64(period) * us[i])
		cost = cost.Ceil(g.Granularity)
		if cost < g.Granularity {
			cost = g.Granularity
		}
		if cost > period {
			cost = period
		}
		deadline := vtime.Duration(float64(period) * g.DeadlineFactor).Floor(g.Granularity)
		// Guarantee cost ≤ deadline ≤ period with at least one granule
		// of slack whenever the draw leaves room. The historical clamp
		// (deadline = cost) produced zero-slack tasks on small
		// DeadlineFactor draws — the ceil'd cost overtook the floor'd
		// deadline — which skewed acceptance sweeps with trivially
		// infeasible-in-practice points. When cost already fills the
		// whole period no slack exists to give, and the deadline pins to
		// the period.
		minDeadline := cost + g.Granularity
		if minDeadline > period {
			minDeadline = period
		}
		if deadline < minDeadline {
			deadline = minDeadline
		}
		if deadline > period {
			deadline = period
		}
		tasks[i] = Task{
			Name:     fmt.Sprintf("t%d", i+1),
			Period:   period,
			Deadline: deadline,
			Cost:     cost,
		}
	}
	// Rate-monotonic priorities: shorter period gets a larger value.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// insertion sort by period ascending, stable
	for i := 1; i < n; i++ {
		for j := i; j > 0 && tasks[order[j]].Period < tasks[order[j-1]].Period; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for rank, idx := range order {
		tasks[idx].Priority = n - rank // highest rank → priority n
	}
	return New(tasks...)
}

// logUniformPeriod draws a period log-uniformly in
// [PeriodMin, PeriodMax], rounded to the granularity.
func (g *Generator) logUniformPeriod() vtime.Duration {
	lo := math.Log(float64(g.PeriodMin))
	hi := math.Log(float64(g.PeriodMax))
	p := math.Exp(lo + (hi-lo)*g.rng.Float64())
	d := vtime.Duration(p).Round(g.Granularity)
	if d < g.PeriodMin {
		d = g.PeriodMin
	}
	if d > g.PeriodMax {
		d = g.PeriodMax
	}
	return d
}

// Rand is a small deterministic PRNG (SplitMix64). The reproduction
// never uses math/rand's global state so that every experiment is
// byte-for-byte repeatable from its seed.
type Rand struct{ state uint64 }

// NewRand seeds a SplitMix64 stream.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// State exposes the stream position for checkpointing: a Rand built
// with SetState(State()) continues the exact same draw sequence.
func (r *Rand) State() uint64 { return r.state }

// SetState repositions the stream (the checkpoint-restore twin of
// State).
func (r *Rand) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("taskset: Intn needs n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpDuration returns an exponential draw with the given mean — the
// inter-arrival law of the Poisson/MMPP sources. The draw is floored
// at 1 ns so a sequence of gaps always advances the clock (a zero gap
// would release two jobs of one task at the same instant).
func (r *Rand) ExpDuration(mean vtime.Duration) vtime.Duration {
	d := vtime.Duration(-math.Log(1-r.Float64()) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// DurationIn returns a uniform draw in [lo, hi].
func (r *Rand) DurationIn(lo, hi vtime.Duration) vtime.Duration {
	if hi <= lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + vtime.Duration(r.Uint64()%span)
}
