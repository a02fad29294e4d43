package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/sim/scenario"
)

// key is the raw-index key of a body.
func key(body string) rawKey { return rawKey(sha256.Sum256([]byte(body))) }

// TestCacheLRUEviction pins the memory bound: completed results
// beyond max evict coldest-first, a re-touched entry survives, and an
// in-flight entry can never be evicted (its waiters would hang).
func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	complete := func(d string) *entry {
		e, created := c.lookup(d, key(d))
		if !created {
			t.Fatalf("%s already present", d)
		}
		c.completed(e, &result{report: []byte(d)}, nil)
		return e
	}
	complete("a")
	complete("b")
	if _, created := c.lookup("a", key("a")); created {
		t.Fatal("a evicted below capacity")
	}
	// a is now most-recent; inserting c evicts b.
	complete("c")
	if _, created := c.lookup("b", key("b")); !created {
		t.Error("b survived eviction (LRU order wrong)")
	}
	// That lookup re-created b in-flight; finish it to keep state sane.
	e, _ := c.lookup("b", key("b"))
	c.completed(e, &result{}, nil)

	// In-flight entries are pinned: filling the LRU past max around
	// one must not evict it.
	inflight, created := c.lookup("pinned", key("pinned"))
	if !created {
		t.Fatal("pinned already present")
	}
	complete("x")
	complete("y")
	complete("z")
	if got, again := c.lookup("pinned", key("pinned")); again {
		t.Error("in-flight entry was evicted")
	} else if got != inflight {
		t.Error("lookup returned a different in-flight entry")
	}
	c.completed(inflight, &result{}, nil)
}

// TestCacheErrorNotCached pins that failures are forgotten: the next
// lookup owns a fresh attempt, and waiters of the failed entry saw
// the error.
func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(4)
	e, created := c.lookup("d", key("d"))
	if !created {
		t.Fatal("d already present")
	}
	boom := errors.New("boom")
	c.completed(e, nil, boom)
	<-e.done
	if !errors.Is(e.err, boom) {
		t.Errorf("waiter error = %v, want boom", e.err)
	}
	if _, created := c.lookup("d", key("d")); !created {
		t.Error("failed result was cached")
	}
}

// TestRawIndexBoundedPerEntry pins the per-entry bound: ten whitespace
// spellings of one document all answer the same bytes from one
// simulation, but only the first maxRawKeys are indexed, and only
// those skip decoding when repeated.
func TestRawIndexBoundedPerEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	canon := testScenarioJSON(t, "spellings", 7)
	var first *bytes.Buffer
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			var body bytes.Buffer
			if err := json.Indent(&body, canon, "", strings.Repeat(" ", i)); err != nil {
				t.Fatal(err)
			}
			rec := post(t, s, "/v1/simulate", body.Bytes())
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d spelling %d: status %d: %s", round, i, rec.Code, rec.Body.String())
			}
			if first == nil {
				first = rec.Body
				continue
			}
			if cs := rec.Header().Get("X-Cache"); cs != "hit" {
				t.Errorf("round %d spelling %d: X-Cache %q, want hit", round, i, cs)
			}
			if !bytes.Equal(rec.Body.Bytes(), first.Bytes()) {
				t.Errorf("round %d spelling %d answered different bytes", round, i)
			}
		}
	}
	snap := s.Metrics()
	if snap.RawIndexEntries != maxRawKeys {
		t.Errorf("raw_index_entries = %d, want %d", snap.RawIndexEntries, maxRawKeys)
	}
	if snap.SimulationsRun != 1 || snap.CacheMisses != 1 || snap.CacheHits != 19 || snap.RawHits != maxRawKeys {
		t.Errorf("simulations/misses/hits/raw_hits = %d/%d/%d/%d, want 1/1/19/%d",
			snap.SimulationsRun, snap.CacheMisses, snap.CacheHits, snap.RawHits, maxRawKeys)
	}
}

// TestRawIndexEvictedWithEntry pins that an LRU eviction takes the
// entry's raw keys with it: the evicted document's exact bytes miss
// and simulate again instead of joining a departed entry.
func TestRawIndexEvictedWithEntry(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 2})
	defer s.Close()
	docs := [][]byte{
		testScenarioJSON(t, "a", 1),
		testScenarioJSON(t, "b", 2),
		testScenarioJSON(t, "c", 3),
	}
	for i, d := range docs {
		if rec := post(t, s, "/v1/simulate", d); rec.Code != http.StatusOK {
			t.Fatalf("document %d: status %d", i, rec.Code)
		}
	}
	if e := s.cache.lookupRaw(rawKey(sha256.Sum256(docs[0]))); e != nil {
		t.Error("the evicted document's raw key is still indexed")
	}
	if snap := s.Metrics(); snap.CacheEntries != 2 || snap.RawIndexEntries != 2 {
		t.Errorf("cache_entries/raw_index_entries = %d/%d, want 2/2", snap.CacheEntries, snap.RawIndexEntries)
	}
	rec := post(t, s, "/v1/simulate", docs[0])
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("evicted document re-posted: status %d X-Cache %q, want 200 miss", rec.Code, rec.Header().Get("X-Cache"))
	}
	if got := s.Metrics().SimulationsRun; got != 4 {
		t.Errorf("simulations_run = %d, want 4", got)
	}
}

// TestRawIndexDroppedOnRunError pins that a failed run takes its raw
// keys with it: the same bytes posted again simulate again rather
// than joining the failed entry.
func TestRawIndexDroppedOnRunError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		return nil, errors.New("stub failure")
	}
	body := testScenarioJSON(t, "failing", 8)
	for i := 0; i < 2; i++ {
		rec := post(t, s, "/v1/simulate", body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("POST %d: status %d, want 422", i, rec.Code)
		}
	}
	snap := s.Metrics()
	if snap.SimulationsRun != 2 || snap.RawHits != 0 {
		t.Errorf("simulations_run/raw_hits = %d/%d, want 2/0", snap.SimulationsRun, snap.RawHits)
	}
	if snap.CacheEntries != 0 || snap.RawIndexEntries != 0 {
		t.Errorf("cache_entries/raw_index_entries = %d/%d after failed runs, want 0/0", snap.CacheEntries, snap.RawIndexEntries)
	}
}

// TestEntryProgressPubSub pins the SSE plumbing: subscribers get
// observations, late subscribers get the latest replayed while the run
// is in flight, cancel detaches, and a full subscriber drops rather
// than blocks. Once the run completed, only its owner gets the replay.
func TestEntryProgressPubSub(t *testing.T) {
	e := newEntry("d")
	ch, cancel := e.subscribe(false)
	e.publish(Progress{AtMS: 10, HorizonMS: 100, Percent: 10})
	select {
	case p := <-ch:
		if p.AtMS != 10 {
			t.Errorf("got %+v", p)
		}
	default:
		t.Fatal("subscriber missed the observation")
	}

	late, lateCancel := e.subscribe(false)
	defer lateCancel()
	select {
	case p := <-late:
		if p.AtMS != 10 {
			t.Errorf("late replay %+v", p)
		}
	default:
		t.Fatal("late subscriber did not get the latest observation replayed")
	}

	cancel()
	e.publish(Progress{AtMS: 20, HorizonMS: 100, Percent: 20})
	select {
	case p := <-ch:
		t.Errorf("cancelled subscriber still got %+v", p)
	default:
	}

	// Saturate the late subscriber's buffer: publish must not block.
	for i := 0; i < 100; i++ {
		e.publish(Progress{AtMS: int64(30 + i), HorizonMS: 100})
	}

	e.complete(&result{}, nil)
	hit, hitCancel := e.subscribe(false)
	defer hitCancel()
	select {
	case p := <-hit:
		t.Errorf("a hit on a completed entry got %+v replayed", p)
	default:
	}
	owner, ownerCancel := e.subscribe(true)
	defer ownerCancel()
	select {
	case p := <-owner:
		if p.AtMS != 129 {
			t.Errorf("owner replay %+v, want the last observation", p)
		}
	default:
		t.Fatal("the run's owner did not get its last observation replayed")
	}
}
