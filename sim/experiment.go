package sim

import (
	"context"
	"slices"
)

// RunOptions configures how an experiment executes its independent
// simulations. The zero value uses every core.
type RunOptions struct {
	// Parallelism is the worker count: 0 = GOMAXPROCS, 1 = serial.
	Parallelism int
	// Progress, when non-nil, observes completed-simulation counts.
	Progress func(done, total int)
}

// Result is one experiment artefact in both machine and human form.
type Result struct {
	// Data is the structured artefact (JSON-encodable rows).
	Data any
	// Text is the rendered table or chart.
	Text string
}

// Experiment is a named reproduction artefact: one table, figure or
// sweep. Run must be safe to call repeatedly and deterministic for
// fixed RunOptions-independent inputs.
type Experiment struct {
	// Name is the lookup key (e.g. "table2", "fig5", "x2").
	Name string
	// Description is a one-line summary for listings, naming the
	// paper artefact it reproduces.
	Description string
	// Run produces the artefact.
	Run func(ctx context.Context, opt RunOptions) (Result, error)
}

// LookupExperiment returns the named experiment.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experimentTable {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments returns every experiment in the order cmd/rtexp runs
// and lists them.
func Experiments() []Experiment { return slices.Clone(experimentTable) }
