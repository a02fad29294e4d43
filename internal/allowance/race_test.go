//go:build race

package allowance_test

// raceEnabled reports whether the race detector instruments this
// build; the single-goroutine property test then checks a strided
// subset of its corpus.
const raceEnabled = true
