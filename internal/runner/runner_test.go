package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderingDeterminism: results come back in input order no matter
// how the scheduler interleaves the workers, and repeated parallel
// runs agree with the serial run element-for-element.
func TestOrderingDeterminism(t *testing.T) {
	jobs := make([]int, 200)
	for i := range jobs {
		jobs[i] = i
	}
	square := func(_ context.Context, _ int, v int) (int, error) {
		if v%7 == 0 {
			time.Sleep(time.Millisecond) // jitter the completion order
		}
		return v * v, nil
	}
	serial, err := Map(context.Background(), Options{Parallelism: 1}, jobs, square)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		par, err := Map(context.Background(), Options{Parallelism: 8}, jobs, square)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("trial %d: result[%d] = %d, serial %d", trial, i, par[i], serial[i])
			}
		}
	}
}

// TestContextCancellationMidSweep: cancelling while jobs are in flight
// stops submission and surfaces context.Canceled, without running the
// whole input.
func TestContextCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	jobs := make([]int, 1000)
	_, err := Map(ctx, Options{Parallelism: 4}, jobs, func(ctx context.Context, i int, _ int) (int, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

// TestSerialPathHonoursContext: the workers==1 fast path must also
// observe cancellation between jobs.
func TestSerialPathHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, Options{Parallelism: 1}, make([]int, 100), func(context.Context, int, int) (int, error) {
		ran++
		if ran == 3 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d jobs after cancel, want 3", ran)
	}
}

// TestErrorPropagation: one failing job fails the whole Map, carries
// its input index, and cancels the jobs not yet started. Every job
// after the failing one waits until the failure has cancelled its
// context, so the cancellation is ordered before any of them returns:
// only the jobs already in flight on the other workers can run, and
// the queue is never drained by fast jobs racing the cancel.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	const failAt = 17
	var ran atomic.Int64
	for _, par := range []int{1, 6} {
		ran.Store(0)
		res, err := Map(context.Background(), Options{Parallelism: par}, make([]int, 500), func(ctx context.Context, i int, _ int) (int, error) {
			ran.Add(1)
			if i == failAt {
				return 0, fmt.Errorf("point-17 exploded: %w", boom)
			}
			if i > failAt {
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("parallelism %d: job %d started after job %d failed, and was never cancelled", par, i, failAt)
				}
			}
			return i, nil
		})
		if res != nil {
			t.Fatalf("parallelism %d: results must be nil on error", par)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want wrapped boom", par, err)
		}
		var je *JobError
		if !errors.As(err, &je) || je.Index != failAt {
			t.Fatalf("parallelism %d: want JobError{Index:17}, got %v", par, err)
		}
		if !containsStr(err.Error(), "job 17:") {
			t.Fatalf("parallelism %d: message %q must name the failing index", par, err)
		}
		// Jobs 0..17 run, and at most one later job per other worker
		// was already in flight when the failure cancelled the rest.
		if n, most := ran.Load(), int64(failAt+par); n > most {
			t.Fatalf("parallelism %d: %d jobs ran despite the failure at job %d, want at most %d", par, n, failAt, most)
		}
	}
}

// TestErrorAggregation: multiple failures are all reported, in input
// order, via errors.Join semantics.
func TestErrorAggregation(t *testing.T) {
	// A barrier holds every job until all four are in flight, so the
	// error-triggered cancel cannot stop either failing job from
	// running: both errors must appear in the aggregate.
	var arrived sync.WaitGroup
	arrived.Add(4)
	_, err := Map(context.Background(), Options{Parallelism: 4, QueueDepth: 4}, []int{0, 1, 2, 3}, func(_ context.Context, i int, _ int) (int, error) {
		arrived.Done()
		arrived.Wait()
		if i%2 == 1 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want an error")
	}
	msg := err.Error()
	for _, want := range []string{"fail-1", "fail-3"} {
		if !errorsContains(msg, want) {
			t.Errorf("aggregate %q missing %q", msg, want)
		}
	}
}

func errorsContains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle || containsStr(haystack, needle))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestProgressMonotonic: the callback sees every completion exactly
// once, with strictly increasing done counts ending at total.
func TestProgressMonotonic(t *testing.T) {
	for _, par := range []int{1, 5} {
		var mu sync.Mutex
		var seen []int
		_, err := Map(context.Background(), Options{
			Parallelism: par,
			Progress: func(done, total int) {
				if total != 50 {
					t.Errorf("total = %d, want 50", total)
				}
				mu.Lock()
				seen = append(seen, done)
				mu.Unlock()
			},
		}, make([]int, 50), func(_ context.Context, i int, _ int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 50 {
			t.Fatalf("parallelism %d: %d progress calls, want 50", par, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("parallelism %d: progress[%d] = %d, want %d", par, i, d, i+1)
			}
		}
	}
}

// TestEmptyAndDefaults: zero jobs succeed trivially; zero Options pick
// sane worker and queue sizes.
func TestEmptyAndDefaults(t *testing.T) {
	res, err := Map(context.Background(), Options{}, nil, func(context.Context, int, int) (int, error) {
		t.Fatal("fn must not run for empty input")
		return 0, nil
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty input: res=%v err=%v", res, err)
	}
	if w := (Options{}).workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if q := (Options{}).queue(4); q != 8 {
		t.Fatalf("default queue for 4 workers = %d, want 8", q)
	}
	if q := (Options{QueueDepth: 3}).queue(4); q != 3 {
		t.Fatalf("explicit queue = %d, want 3", q)
	}
}

// TestBoundedQueueBackpressure: the producer never buffers more than
// QueueDepth jobs ahead of the consumers.
func TestBoundedQueueBackpressure(t *testing.T) {
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(context.Background(), Options{Parallelism: 2, QueueDepth: 2}, make([]int, 64), func(_ context.Context, i int, _ int) (int, error) {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return i, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	// Let the pool fill: 2 running + 2 queued is the ceiling.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 64; i++ {
		gate <- struct{}{}
	}
	<-done
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrent jobs = %d, want <= 2", p)
	}
}

// TestSeedsIndependence: derived seeds are deterministic, unique, and
// differ from the base.
func TestSeedsIndependence(t *testing.T) {
	const base = 11
	a, b := Seeds(base, 256), Seeds(base, 256)
	seen := map[uint64]bool{base: true}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Seeds not deterministic at %d", i)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate seed at %d: %d", i, a[i])
		}
		seen[a[i]] = true
	}
	if DeriveSeed(base, 0) == DeriveSeed(base+1, 0) {
		t.Fatal("different bases must derive different seeds")
	}
}
