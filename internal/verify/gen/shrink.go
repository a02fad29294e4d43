package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/vtime"
	"repro/sim/scenario"
)

// Failure reports whether running the candidate scenario still
// reproduces the original failure (an invariant violation, a report
// divergence, a panic caught by the caller — whatever the caller is
// hunting). It must be deterministic; candidates that fail to build
// or run for a *different* reason should report false.
type Failure func(sc scenario.Scenario) bool

// Shrink greedily minimizes a failing scenario: it repeatedly tries
// dropping tasks (with their faults), servers and fault entries,
// halving the horizon, and zeroing the run knobs, keeping each
// candidate only when it still validates and still fails. The loop
// runs to a fixpoint, so the result is 1-minimal with respect to
// those operations. fails(sc) must be true on entry; the returned
// scenario also fails.
func Shrink(sc scenario.Scenario, fails Failure) scenario.Scenario {
	cur := sc
	for changed := true; changed; {
		changed = false
		// Drop whole tasks (and any fault entries naming them).
		for i := 0; i < len(cur.Tasks); {
			if cand, ok := dropTask(cur, i); ok && accept(cand, fails) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Drop servers.
		for i := 0; i < len(cur.Servers); {
			cand := cur
			cand.Servers = deleteAt(cur.Servers, i)
			if accept(cand, fails) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Drop individual fault entries.
		for i := 0; i < len(cur.Faults); {
			cand := cur
			cand.Faults = deleteAt(cur.Faults, i)
			if accept(cand, fails) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Drop arrival sources (the target task reverts to periodic).
		for i := 0; i < len(cur.Arrivals); {
			cand := cur
			cand.Arrivals = deleteAt(cur.Arrivals, i)
			if accept(cand, fails) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Halve a trace source's record list from the tail (releases
		// are sorted, so a prefix is always a valid trace).
		for i := range cur.Arrivals {
			for len(cur.Arrivals[i].Records) > 0 {
				cand := cur
				cand.Arrivals = append([]scenario.Arrival(nil), cur.Arrivals...)
				cand.Arrivals[i].Records = cur.Arrivals[i].Records[:len(cur.Arrivals[i].Records)/2]
				if len(cand.Arrivals[i].Records) == 0 {
					// An empty inline record list is not encodable
					// (records/path exactly-one); stop at a single record.
					break
				}
				if !accept(cand, fails) {
					break
				}
				cur, changed = cand, true
			}
		}
		// Halve the horizon while the failure persists.
		for vtime.Duration(cur.Horizon) >= 2*vtime.Millisecond {
			cand := cur
			cand.Horizon = scenario.Duration((vtime.Duration(cur.Horizon) / 2).Ceil(vtime.Millisecond))
			if !accept(cand, fails) {
				break
			}
			cur, changed = cand, true
		}
		// Zero the incidental knobs one at a time.
		for _, clear := range []func(*scenario.Scenario){
			func(s *scenario.Scenario) { s.TimerResolution = 0 },
			func(s *scenario.Scenario) { s.StopPoll = 0 },
			func(s *scenario.Scenario) { s.StopJitterMax = 0 },
			func(s *scenario.Scenario) { s.ContextSwitch = 0 },
			func(s *scenario.Scenario) { s.Collect = nil },
			func(s *scenario.Scenario) { s.Treatment = "none" },
			func(s *scenario.Scenario) { s.CPUs, s.Placement, s.Partitioner = 0, "", "" },
		} {
			cand := cur
			clear(&cand)
			if !equalSpec(cand, cur) && accept(cand, fails) {
				cur, changed = cand, true
			}
		}
	}
	return cur
}

// accept reports whether a shrink candidate is both valid and still
// failing.
func accept(cand scenario.Scenario, fails Failure) bool {
	return cand.Validate() == nil && fails(cand)
}

// equalSpec compares two scenarios by canonical encoding.
func equalSpec(a, b scenario.Scenario) bool {
	ab, errA := scenario.Marshal(&a)
	bb, errB := scenario.Marshal(&b)
	return errA == nil && errB == nil && string(ab) == string(bb)
}

// dropTask removes task i and every fault entry or arrival source
// naming it. Dropping the last task yields no candidate (a scenario
// needs one task).
func dropTask(sc scenario.Scenario, i int) (scenario.Scenario, bool) {
	if len(sc.Tasks) <= 1 {
		return sc, false
	}
	name := sc.Tasks[i].Name
	out := sc
	out.Tasks = deleteAt(sc.Tasks, i)
	out.Faults = nil
	for _, f := range sc.Faults {
		if f.Task != name {
			out.Faults = append(out.Faults, f)
		}
	}
	out.Arrivals = nil
	for _, a := range sc.Arrivals {
		if a.Task != name {
			out.Arrivals = append(out.Arrivals, a)
		}
	}
	return out, true
}

// deleteAt returns s without element i, leaving s untouched.
func deleteAt[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// ReproducerDir is where failing scenarios are written, relative to
// the repository root (the differential sweep and the fuzz harness
// both use it, via ReproducerPath, when run from the repo).
const ReproducerDir = "testdata/shrunk"

// ReproducerPath resolves ReproducerDir against the repository root
// (the nearest ancestor directory holding a go.mod), so reproducers
// land in the one documented place no matter which package's test
// binary — each with its own working directory — hits a failure. It
// falls back to the plain relative dir outside a module.
func ReproducerPath() string {
	dir, err := os.Getwd()
	if err != nil {
		return ReproducerDir
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return filepath.Join(d, ReproducerDir)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ReproducerDir
		}
		d = parent
	}
}

// LegalCollectModes lists the collection modes, retained first, in
// which the capability table (scenario.Features) accepts the scenario:
// the modes the x11 sweep and the FuzzScenario harness run it in.
func LegalCollectModes(sc *scenario.Scenario) []string {
	modes := []string{scenario.CollectRetain, scenario.CollectStream}
	return slices.DeleteFunc(modes, func(mode string) bool {
		cand := *sc
		cand.Collect = &scenario.Collect{Mode: mode}
		return scenario.Features{Scenario: &cand}.Check() != nil
	})
}

// WriteReproducer persists the (typically shrunk) failing scenario as
// canonical JSON under dir, named after the scenario, and returns the
// file path. The caller embeds the path in its failure report so the
// minimized case is one `rtrun -scenario <path> -check` away.
func WriteReproducer(dir string, sc scenario.Scenario) (string, error) {
	data, err := scenario.Marshal(&sc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := sc.Name
	if name == "" {
		name = "reproducer"
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Reproduce is the common failure-path helper: shrink the scenario
// against fails, write the reproducer, and return the path (or, when
// writing fails, the inline JSON) for embedding in an error message.
func Reproduce(dir string, sc scenario.Scenario, fails Failure) string {
	shrunk := Shrink(sc, fails)
	if path, err := WriteReproducer(dir, shrunk); err == nil {
		return path
	}
	data, err := scenario.Marshal(&shrunk)
	if err != nil {
		return fmt.Sprintf("(unencodable reproducer: %v)", err)
	}
	return "inline reproducer:\n" + string(data)
}
