package serve

import (
	"sync"
	"sync/atomic"
	"time"

	gk "repro/internal/metrics"
	"repro/internal/vtime"
)

// Metrics aggregates the server's operational counters plus a
// request-latency quantile sketch — the same Greenwald–Khanna
// summary (gk.Sketch, ε=0.01) the simulator uses for response times,
// so /metrics reports p50/p90/p99 in O(1/ε·log εn) memory however
// long the server runs.
type Metrics struct {
	requests    atomic.Int64
	simulate    atomic.Int64
	hits        atomic.Int64
	rawHits     atomic.Int64
	misses      atomic.Int64
	throttled   atomic.Int64
	badRequests atomic.Int64
	runErrors   atomic.Int64
	simulations atomic.Int64

	mu      sync.Mutex
	latency *gk.Sketch
}

func newMetrics() *Metrics {
	return &Metrics{latency: gk.NewSketch(0.01)}
}

// observeLatency records one served-request wall time.
func (m *Metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latency.Add(vtime.Duration(d.Nanoseconds()))
	m.mu.Unlock()
}

// LatencySnapshot is the sketch part of a /metrics response.
type LatencySnapshot struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Snapshot is the machine-readable /metrics document. RawHits counts
// the cache hits (within CacheHits) resolved through the raw-body
// index without decoding; RawIndexEntries is that index's size.
type Snapshot struct {
	RequestsTotal    int64           `json:"requests_total"`
	SimulateRequests int64           `json:"simulate_requests"`
	CacheHits        int64           `json:"cache_hits"`
	CacheMisses      int64           `json:"cache_misses"`
	RawHits          int64           `json:"raw_hits"`
	Throttled        int64           `json:"throttled"`
	BadRequests      int64           `json:"bad_requests"`
	RunErrors        int64           `json:"run_errors"`
	SimulationsRun   int64           `json:"simulations_run"`
	QueueDepth       int             `json:"queue_depth"`
	QueueCap         int             `json:"queue_cap"`
	InFlight         int             `json:"in_flight"`
	CacheEntries     int             `json:"cache_entries"`
	RawIndexEntries  int             `json:"raw_index_entries"`
	Latency          LatencySnapshot `json:"latency"`
}

func (m *Metrics) latencySnapshot() LatencySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := LatencySnapshot{Count: m.latency.N()}
	ms := func(q float64) float64 {
		v, ok := m.latency.Query(q)
		if !ok {
			return 0
		}
		return float64(v) / float64(vtime.Millisecond)
	}
	out.P50MS = ms(0.50)
	out.P90MS = ms(0.90)
	out.P99MS = ms(0.99)
	return out
}
