package engine

import (
	"fmt"
	"sort"
	"sync"
)

// The policy registry maps scheduling-policy names to factories, so
// declarative scenarios (repro/sim) and the command-line tools can
// select a scheduler without compiling code. Packages providing
// policies register themselves at init time; the engine registers its
// own fixed-priority policy here.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Policy{}
)

// RegisterPolicy makes a policy available by name. It panics on a
// duplicate or empty name — registration happens at init time, where
// a collision is a programming error.
func RegisterPolicy(name string, factory func() Policy) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" {
		panic("engine: RegisterPolicy with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("engine: RegisterPolicy %q with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: policy %q registered twice", name))
	}
	registry[name] = factory
}

// NewPolicy instantiates the named policy. The empty name yields the
// default fixed-priority policy, matching Config.Policy's nil default.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		return FixedPriority{}, nil
	}
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown policy %q (registered: %v)", name, PolicyNames())
	}
	return factory(), nil
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry { // order-independent: sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterPolicy(FixedPriority{}.Name(), func() Policy { return FixedPriority{} })
}
