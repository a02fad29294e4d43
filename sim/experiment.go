package sim

import (
	"context"
	"fmt"
	"sync"
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

// Experiment is a registered, named reproduction artefact: one table,
// figure or sweep. Implementations must be safe to Run repeatedly and
// deterministic for fixed RunOptions-independent inputs.
type Experiment interface {
	// Name is the registry key (e.g. "table2", "fig5", "x2").
	Name() string
	// Description is a one-line summary for listings, naming the
	// paper artefact it reproduces.
	Description() string
	// Run produces the artefact.
	Run(ctx context.Context, opt RunOptions) (Result, error)
}

var (
	expMu    sync.RWMutex
	expByKey = map[string]Experiment{}
	expOrder []Experiment
)

// RegisterExperiment adds an experiment to the registry. It panics on
// a duplicate or empty name — registration happens at init time.
func RegisterExperiment(e Experiment) {
	expMu.Lock()
	defer expMu.Unlock()
	name := e.Name()
	if name == "" {
		panic("sim: RegisterExperiment with empty name")
	}
	if _, dup := expByKey[name]; dup {
		panic(fmt.Sprintf("sim: experiment %q registered twice", name))
	}
	expByKey[name] = e
	expOrder = append(expOrder, e)
}

// LookupExperiment returns the named experiment.
func LookupExperiment(name string) (Experiment, bool) {
	expMu.RLock()
	defer expMu.RUnlock()
	e, ok := expByKey[name]
	return e, ok
}

// Experiments returns every registered experiment in registration
// order (the order cmd/rtexp runs and lists them).
func Experiments() []Experiment {
	expMu.RLock()
	defer expMu.RUnlock()
	return append([]Experiment(nil), expOrder...)
}

// NewExperiment wraps a function as a registrable Experiment.
func NewExperiment(name, description string, run func(ctx context.Context, opt RunOptions) (Result, error)) Experiment {
	return funcExperiment{name: name, description: description, run: run}
}

type funcExperiment struct {
	name        string
	description string
	run         func(ctx context.Context, opt RunOptions) (Result, error)
}

func (e funcExperiment) Name() string        { return e.name }
func (e funcExperiment) Description() string { return e.description }
func (e funcExperiment) Run(ctx context.Context, opt RunOptions) (Result, error) {
	return e.run(ctx, opt)
}
