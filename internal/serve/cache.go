package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Progress is one observation of an in-flight simulation's virtual
// clock, published to SSE subscribers of the run's cache entry.
type Progress struct {
	// AtMS is the virtual instant reached, in milliseconds.
	AtMS int64 `json:"at_ms"`
	// HorizonMS is the scenario horizon, in milliseconds.
	HorizonMS int64 `json:"horizon_ms"`
	// Percent is 100*AtMS/HorizonMS, pre-computed for dashboards.
	Percent float64 `json:"percent"`
}

// result is the terminal state of one completed simulation — exactly
// the deterministic fields every response for the same digest is
// rendered from, so a cache hit returns bytes equal to the original
// response. No wall-clock or per-request data belongs here.
type result struct {
	report       []byte // rendered per-task report, byte-equal to rtrun's summary
	detections   int64
	switches     int64
	successRatio float64
}

// rawKey is the SHA-256 of a request body exactly as received.
type rawKey [sha256.Size]byte

// maxRawKeys bounds the raw keys one entry carries, so the raw index
// never holds more than maxRawKeys keys per resident entry however
// many spellings of one scenario arrive. A spelling beyond the bound
// still hits, through the full decode-and-digest path.
const maxRawKeys = 4

// entry is one content-addressed cache slot. It doubles as the
// singleflight rendezvous: the request that creates it owns the
// simulation, every other request for the same digest waits on done.
type entry struct {
	digest string
	done   chan struct{} // closed once res/err are final
	res    *result
	err    error

	// Guarded by the owning cache's mu.
	el  *list.Element // LRU position once completed; nil in flight
	raw []rawKey      // raw-index keys that resolve to this entry

	mu      sync.Mutex
	subs    []chan Progress
	last    Progress
	hasLast bool
}

func newEntry(digest string) *entry {
	return &entry{digest: digest, done: make(chan struct{})}
}

// complete publishes the terminal state and wakes every waiter. Must
// be called exactly once.
func (e *entry) complete(res *result, err error) {
	e.res, e.err = res, err
	close(e.done)
}

// subscribe registers a progress listener, replaying the most recent
// observation (if any) so late subscribers are not blind until the
// next boundary. The returned cancel is idempotent and must be called
// to release the slot.
func (e *entry) subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	e.mu.Lock()
	if e.hasLast {
		ch <- e.last // buffered, cannot block
	}
	e.subs = append(e.subs, ch)
	e.mu.Unlock()
	cancel := func() {
		e.mu.Lock()
		for i, c := range e.subs {
			if c == ch {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
	}
	return ch, cancel
}

// publish fans a progress observation out to subscribers. Sends are
// non-blocking: a slow SSE client drops observations instead of
// stalling the engine goroutine.
func (e *entry) publish(p Progress) {
	e.mu.Lock()
	e.last, e.hasLast = p, true
	for _, ch := range e.subs {
		select {
		case ch <- p:
		default:
		}
	}
	e.mu.Unlock()
}

// cache is the content-addressed result store. Completed entries form
// an LRU bounded at max (so the server's memory is bounded no matter
// how many distinct scenarios arrive); in-flight entries live only in
// the map and cannot be evicted, so singleflight rendezvous is never
// lost mid-run.
//
// In front of the digest map sits the raw index: the SHA-256 of a
// request body that already decoded, passed the path check and
// digested, mapped to its entry. A byte-identical repeat resolves
// through it without decoding. A raw key is added and removed under
// the same lock as its entry, so it never outlives the entry.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	raw     map[rawKey]*entry
	lru     *list.List // completed entries, front = most recent
}

func newCache(max int) *cache {
	return &cache{
		max:     max,
		entries: make(map[string]*entry),
		raw:     make(map[rawKey]*entry),
		lru:     list.New(),
	}
}

// lookup returns the entry for digest, creating an in-flight one when
// absent, and indexes raw (the body the digest came from) against it.
// created reports whether the caller owns the simulation (the
// singleflight winner); everyone else waits on the entry.
func (c *cache) lookup(digest string, raw rawKey) (e *entry, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if ok {
		c.touch(e)
	} else {
		e = newEntry(digest)
		c.entries[digest] = e
	}
	// A raw key already indexed resolves to e: equal bytes decode to
	// the same digest.
	if _, known := c.raw[raw]; !known && len(e.raw) < maxRawKeys {
		e.raw = append(e.raw, raw)
		c.raw[raw] = e
	}
	return e, !ok
}

// lookupRaw returns the entry raw indexes, or nil. It never creates
// one: only the full path holds a decoded scenario to run.
func (c *cache) lookupRaw(raw rawKey) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.raw[raw]
	if e != nil {
		c.touch(e)
	}
	return e
}

// touch marks a completed entry most recently used.
func (c *cache) touch(e *entry) {
	if e.el != nil {
		c.lru.MoveToFront(e.el)
	}
}

// completed finalizes an entry. Successes join the LRU (evicting the
// coldest results beyond max); failures are forgotten so a transient
// error — notably admission-queue overload — is retried by the next
// request instead of being served forever. Waiters wake only after
// the cache is updated, so a client holding its answer never finds a
// failed entry (or its raw keys) still resident.
func (c *cache) completed(e *entry, res *result, err error) {
	c.mu.Lock()
	if err != nil {
		c.drop(e)
	} else {
		e.el = c.lru.PushFront(e)
		for c.lru.Len() > c.max {
			c.drop(c.lru.Remove(c.lru.Back()).(*entry))
		}
	}
	c.mu.Unlock()
	e.complete(res, err)
}

// drop removes e and its raw keys. c.mu must be held.
func (c *cache) drop(e *entry) {
	delete(c.entries, e.digest)
	for _, k := range e.raw {
		delete(c.raw, k)
	}
}

// len is the number of resident entries (completed + in-flight).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// rawLen is the number of raw-index keys.
func (c *cache) rawLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.raw)
}
