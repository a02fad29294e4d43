package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/taskset"
	"repro/internal/verify/gen"
	"repro/sim"
	"repro/sim/scenario"
)

const (
	simulatePath = "/v1/simulate"
	// opHeader carries a traced request's operation id to the handler
	// span, so the client and handler spans of one request pair up.
	opHeader = "X-Bench-Op"
	// compactShare is the share of serve-hot requests that send the
	// compacted body instead of the canonical one.
	compactShare = 0.25
	// zipfExponent shapes serve-hot's popularity curve over the
	// working set (rank k drawn with weight 1/(k+1)^s).
	zipfExponent = 1.0
)

// liveServer is an in-process rtserved: a serve.Server with the
// default Config behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
	// spans, while set, receives one handler span per request.
	spans atomic.Pointer[spanLog]
}

// startServer starts a server. A traceable server wraps the handler so
// a traced phase can time it from outside; an untraced run serves the
// serve.Server directly.
func startServer(traceable bool) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		srv:  serve.New(serve.Config{}),
		url:  "http://" + ln.Addr().String() + simulatePath,
		done: make(chan error, 1),
	}
	var h http.Handler = s.srv
	if traceable {
		h = http.HandlerFunc(s.traced)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *liveServer) traced(w http.ResponseWriter, r *http.Request) {
	log := s.spans.Load()
	if log == nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	s.srv.ServeHTTP(w, r)
	t1 := time.Now()
	if op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
		log.add("serve.handler", op, "client.post", t0, t1)
	}
}

// close stops the listener, waits for open requests and drains the
// simulation pool.
func (s *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	<-s.done
	s.srv.Close()
}

// client is one closed-loop connection to the server.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClients(url string, n int) []*client {
	out := make([]*client, n)
	for i := range out {
		tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// exchange is one POST as the client saw it; the body is in client.buf.
type exchange struct {
	status     int
	digest     string
	cache      string
	start, end time.Time
}

// post sends one simulate request and reads the whole reply. The
// latency is the round trip from sending to the last body byte.
func (c *client) post(body []byte, query string, op int64) (exchange, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+query, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	x := exchange{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return x, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	x.end = time.Now()
	x.status = resp.StatusCode
	x.digest = resp.Header.Get("X-Scenario-Digest")
	x.cache = resp.Header.Get("X-Cache")
	return x, err
}

// loopOp sends worker w's request number seq and returns its latency;
// fail is "" for a checked-correct reply, else why it failed; more is
// false when the inputs ran out and nothing was sent.
type loopOp = func(w int, seq int64) (lat time.Duration, fail string, more bool)

// latSample bounds the latencies one closed-loop client keeps. Past
// it, each new latency replaces a uniformly drawn kept one (reservoir
// sampling), so the quantiles come from a uniform sample of the phase
// and the record does not grow with the number of requests. Client and
// server share one process and one collector: a record that grew
// through the run would enlarge the heap the collector paces itself
// by, so a run that completed more requests would also collect less
// often.
const latSample = 1 << 15

// closedLoop runs one client per worker, each sending its next request
// only after the previous reply, until the deadline or until the inputs
// run out.
func closedLoop(workers int, d time.Duration, op loopOp) *phase {
	p := &phase{}
	lats := make([][]time.Duration, workers)
	failed := make([]int64, workers)
	attempted := make([]int64, workers)
	fails := make([]string, workers)
	exhausted := make([]bool, workers)
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, latSample)
			rng := rand.New(rand.NewPCG(uint64(w), 0))
			var ok int64
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				l, fail, more := op(w, seq)
				if !more {
					exhausted[w] = true
					break
				}
				attempted[w]++
				if fail != "" {
					failed[w]++
					if fails[w] == "" {
						fails[w] = fail
					}
					continue
				}
				ok++
				if len(lat) < latSample {
					lat = append(lat, l)
				} else if k := rng.Int64N(ok); k < latSample {
					lat[k] = l
				}
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	for w := 0; w < workers; w++ {
		p.lat = append(p.lat, lats[w]...)
		p.attempted += attempted[w]
		p.failed += failed[w]
		p.exhausted = p.exhausted || exhausted[w]
		if fails[w] != "" {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: first failure: %s\n", w, fails[w])
		}
	}
	return p
}

func opID(w int, seq int64) int64 { return int64(w)<<40 | seq }

// serveCounters is the change in the server's counters over a phase.
type serveCounters struct {
	requests, hits, sims, errors int64
}

func counterDelta(a, b serve.Snapshot) serveCounters {
	return serveCounters{
		requests: b.SimulateRequests - a.SimulateRequests,
		hits:     b.CacheHits - a.CacheHits,
		sims:     b.SimulationsRun - a.SimulationsRun,
		errors: (b.Throttled - a.Throttled) + (b.BadRequests - a.BadRequests) +
			(b.RunErrors - a.RunErrors),
	}
}

func serveLayer(rep *report, c serveCounters) {
	req := float64(max(c.requests, 1))
	rep.set("serve.hit_ratio", float64(c.hits)/req, "ratio")
	rep.set("serve.sims_per_request", float64(c.sims)/req, "ratio")
	rep.set("serve.errors", float64(c.errors), "count")
	rep.note("serve simulate_requests=%d hits=%d simulations=%d errors=%d", c.requests, c.hits, c.sims, c.errors)
}

// handlerLayer records the handler and transport latencies of a traced
// phase and returns the handler median.
func handlerLayer(rep *report, spans *spanLog) time.Duration {
	h := quantiles(spans.durations("serve.handler"))
	c := quantiles(spans.durations("client.post"))
	rep.set("serve.handler_p50_ms", ms(h.p50), "ms")
	rep.set("serve.handler_p90_ms", ms(h.p90), "ms")
	rep.set("serve.transport_p50_ms", ms(c.p50-h.p50), "ms")
	n := len(spans.durations("serve.handler"))
	rep.samples["serve.handler_p50_ms"] = n
	rep.samples["serve.handler_p90_ms"] = n
	return h.p50
}

// sampleInFlight polls the simulation pool's in-flight count until stop
// closes and returns the mean share of busy workers.
func sampleInFlight(s *serve.Server, stop <-chan struct{}) float64 {
	workers := float64(runtime.GOMAXPROCS(0)) // serve.Config{} runs GOMAXPROCS workers
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var sum float64
	n := 0
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0
			}
			return sum / float64(n) / workers
		case <-tick.C:
			sum += float64(s.Metrics().InFlight)
			n++
		}
	}
}

// tracedServePhase runs op as a traced closed loop: client and handler
// spans, and the pool's utilization sampled from outside.
func tracedServePhase(rep *report, cfg config, srv *liveServer, workers int, op func(spans *spanLog) loopOp) (*phase, *spanLog, error) {
	spans := newSpanLog()
	srv.spans.Store(spans)
	stop := make(chan struct{})
	util := make(chan float64, 1)
	go func() { util <- sampleInFlight(srv.srv, stop) }()
	p := closedLoop(workers, cfg.phaseLen(), op(spans))
	close(stop)
	srv.spans.Store(nil)
	rep.set("runner.utilization", <-util, "ratio")
	return p, spans, writeSpans(rep, cfg, spans)
}

// envelope mirrors the JSON body of a simulate reply.
type envelope struct {
	Digest       string  `json:"digest"`
	Report       string  `json:"report"`
	Detections   int64   `json:"detections"`
	Switches     int64   `json:"switches"`
	SuccessRatio float64 `json:"success_ratio"`
}

// directRun runs the document through the sim facade, as `rtrun
// -scenario` would, and returns its result.
func directRun(body []byte) (*sim.RunResult, error) {
	sc, err := scenario.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	sys, err := sim.FromScenario(*sc)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// reruns re-runs a document whose served report differed from its
// direct run and describes whether the direct runs agree among
// themselves: a scenario whose reports vary from run to run breaks the
// digest contract the cache relies on.
func reruns(body []byte) string {
	seen := map[string]bool{}
	const n = 8
	for i := 0; i < n; i++ {
		res, err := directRun(body)
		if err != nil {
			return fmt.Sprintf("re-run failed: %v", err)
		}
		seen[res.Summary()] = true
	}
	if len(seen) > 1 {
		return fmt.Sprintf("the scenario is nondeterministic: %d distinct reports in %d direct runs", len(seen), n)
	}
	return fmt.Sprintf("%d direct re-runs agree with each other", n)
}

// checkEnvelope compares a served envelope with a direct run.
func checkEnvelope(raw []byte, digest string, want *sim.RunResult) string {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Sprintf("undecodable envelope: %v", err)
	}
	switch {
	case env.Digest != digest:
		return fmt.Sprintf("envelope digest %s, want %s", env.Digest, digest)
	case env.Report != want.Summary():
		return "served report differs from the direct sim run"
	case env.Detections != want.Detections || env.Switches != want.Switches ||
		env.SuccessRatio != want.SuccessRatio():
		return "served detections/switches/success ratio differ from the direct sim run"
	}
	return ""
}

// ---- serve-hot ----

// hotDoc is one document of serve-hot's working set.
type hotDoc struct {
	canon, compact []byte
	digest         string
	// envelope is the primed reply every later hit must equal.
	envelope []byte
}

type hotState struct {
	docs   []*hotDoc
	cdf    []float64
	server *liveServer
}

// hotDocuments builds the working set: the committed testdata
// scenarios, which take the most popular ranks so the head of the
// popularity curve is the same for every seed, then hotDocs generated
// documents.
func hotDocuments(cfg config) ([]*hotDoc, error) {
	files, err := filepath.Glob(filepath.Join(cfg.root, "testdata", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no testdata/scenarios/*.json under %s", cfg.root)
	}
	sort.Strings(files)
	var bodies [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	base := runner.DeriveSeed(cfg.seed, 0)
	for i := 0; i < cfg.size.hotDocs; i++ {
		sc := gen.Scenario(base + uint64(i))
		b, err := scenario.Marshal(&sc)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	docs := make([]*hotDoc, len(bodies))
	for i, b := range bodies {
		var c bytes.Buffer
		if err := json.Compact(&c, b); err != nil {
			return nil, err
		}
		sc, err := scenario.Decode(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		dg, err := sc.Digest()
		if err != nil {
			return nil, err
		}
		docs[i] = &hotDoc{canon: b, compact: c.Bytes(), digest: dg}
	}
	return docs, nil
}

// hotFingerprint covers the working set's bodies and the head of the
// first client's request draw.
func hotFingerprint(docs []*hotDoc, seed uint64) string {
	return fingerprint(func(h func([]byte)) {
		for _, d := range docs {
			h(d.canon)
			h(d.compact)
		}
		cdf, r := zipfCDF(len(docs)), hotRands(seed, 1)[0]
		for i := 0; i < 4096; i++ {
			k, compact := hotDraw(cdf, r)
			h([]byte(fmt.Sprintf("%d %t", k, compact)))
		}
	})
}

// zipfCDF is the cumulative draw distribution over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfExponent)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// hotDraw picks the next request: a document by rank, and whether to
// send its compacted body.
func hotDraw(cdf []float64, r *taskset.Rand) (int, bool) {
	k := sort.SearchFloat64s(cdf, r.Float64())
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k, r.Float64() < compactShare
}

func hotRands(seed uint64, workers int) []*taskset.Rand {
	out := make([]*taskset.Rand, workers)
	for w := range out {
		out[w] = taskset.NewRand(runner.DeriveSeed(seed, 1000+w))
	}
	return out
}

// buildHot generates the working set, starts the server and primes its
// cache with every document, so every timed request hits.
func buildHot(cfg config) (*hotState, error) {
	docs, err := hotDocuments(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg.trace)
	if err != nil {
		return nil, err
	}
	st := &hotState{docs: docs, cdf: zipfCDF(len(docs)), server: srv}
	workers := runtime.GOMAXPROCS(0)
	clients := newClients(srv.url, workers)
	defer closeClients(clients)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				d := docs[i]
				x, err := clients[w].post(d.canon, "", -1)
				if err == nil && (x.status != http.StatusOK || x.cache != "miss" || x.digest != d.digest) {
					err = fmt.Errorf("status %d cache %q digest %s (want 200, miss, %s)", x.status, x.cache, x.digest, d.digest)
				}
				if err != nil {
					errs[w] = fmt.Errorf("priming document %d: %w", i, err)
					return
				}
				d.envelope = bytes.Clone(clients[w].buf.Bytes())
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		srv.close()
		return nil, err
	}
	return st, nil
}

func serveHot(cfg config, rep *report) error {
	st, setups, err := repeatSetup(cfg, func() (*hotState, error) { return buildHot(cfg) },
		func(s *hotState) { s.server.close() })
	if err != nil {
		return err
	}
	defer st.server.close()
	workers := runtime.GOMAXPROCS(0)
	rep.setInputs(cfg.workload, len(st.docs), hotFingerprint(st.docs, cfg.seed))
	rep.count("setup_simulations", st.server.srv.Metrics().SimulationsRun)

	clients := newClients(st.server.url, workers)
	defer closeClients(clients)
	rands := hotRands(cfg.seed, workers)
	op := func(spans *spanLog) loopOp {
		return func(w int, seq int64) (time.Duration, string, bool) {
			k, compact := hotDraw(st.cdf, rands[w])
			d := st.docs[k]
			body := d.canon
			if compact {
				body = d.compact
			}
			id := int64(-1)
			if spans != nil {
				id = opID(w, seq)
			}
			x, err := clients[w].post(body, "", id)
			if spans != nil && err == nil {
				spans.add("client.post", id, "", x.start, x.end)
			}
			switch {
			case err != nil:
				return 0, err.Error(), true
			case x.status != http.StatusOK:
				return 0, fmt.Sprintf("status %d", x.status), true
			case x.digest != d.digest:
				return 0, fmt.Sprintf("digest %s, want %s", x.digest, d.digest), true
			case !bytes.Equal(clients[w].buf.Bytes(), d.envelope):
				return 0, "reply differs from the primed envelope", true
			}
			return x.end.Sub(x.start), "", true
		}
	}

	warmed(rep, closedLoop(workers, cfg.warmup(), op(nil)))
	m0 := st.server.srv.Metrics()
	windows, err := startRSSWindows(cfg.rssWindow())
	if err != nil {
		return err
	}
	p := closedLoop(workers, cfg.phaseLen(), op(nil))
	rss, err := windows.finish()
	if err != nil {
		return err
	}
	m1 := st.server.srv.Metrics()
	rep.attempted, rep.failed = p.attempted, p.failed
	counts := counterDelta(m0, m1)
	if counts.hits != p.attempted || counts.sims != 0 {
		rep.problem("serve-hot: %d of %d timed requests hit and %d simulations ran; every request must hit", counts.hits, p.attempted, counts.sims)
	}
	checkHot(rep, st, clients[0])

	if !cfg.trace {
		endToEnd(rep, p, setups, rss)
		return nil
	}
	serveLayer(rep, counts)
	runtimeLayer(rep, p)
	tp, spans, err := tracedServePhase(rep, cfg, st.server, workers, op)
	if err != nil {
		return err
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	traceOverhead(rep, p, tp)
	handlerP50 := handlerLayer(rep, spans)
	var docs []layerDoc
	for i, d := range st.docs {
		w := st.cdf[i]
		if i > 0 {
			w -= st.cdf[i-1]
		}
		docs = append(docs,
			layerDoc{body: d.canon, weight: w * (1 - compactShare), simulate: true},
			layerDoc{body: d.compact, weight: w * compactShare})
	}
	recs, err := layerPass(docs)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	layerMetrics(rep, recs, runSamples(recs))
	// A hit decodes and digests the body; nothing else of note runs.
	coverage(rep, recs, func(r layerRec) time.Duration { return r.decode + r.digest }, handlerP50)
	return nil
}

// checkHot compares every working-set document's served report, and
// the envelope primed for it, with a direct sim run.
func checkHot(rep *report, st *hotState, c *client) {
	jobs := 0
	for i, d := range st.docs {
		want, err := directRun(d.canon)
		if err != nil {
			rep.problem("serve-hot document %d: direct run: %v", i, err)
			continue
		}
		jobs += want.Report.TotalReleased()
		if msg := checkEnvelope(d.envelope, d.digest, want); msg != "" {
			rep.problem("serve-hot document %d: %s (%s)", i, msg, reruns(d.canon))
		}
		x, err := c.post(d.canon, "?format=report", -1)
		switch {
		case err != nil:
			rep.problem("serve-hot document %d: report request: %v", i, err)
		case x.status != http.StatusOK || x.cache != "hit":
			rep.problem("serve-hot document %d: report request: status %d cache %q", i, x.status, x.cache)
		case c.buf.String() != want.Summary():
			rep.problem("serve-hot document %d: served report is not byte-equal to the direct sim run (%s)", i, reruns(d.canon))
		}
	}
	rep.count("checked_jobs", int64(jobs))
}

// ---- serve-cold ----

// coldState is serve-cold's input. Document i is gen.Scenario(base+i).
// Set-up generates the documents of the warm-up loop; the timed loops
// generate each later document just before sending it. A run of any
// length thus sends distinct documents only, and holds none it has
// sent.
type coldState struct {
	base   uint64
	warm   [][]byte
	server *liveServer
}

// coldSent is one document a serve-cold client sent and the digest its
// 200 reply carried. The digest is kept as raw bytes, so the record of
// a long run stays small and holds no pointer.
type coldSent struct {
	doc    int64
	digest [sha256.Size]byte
}

// rawDigest parses a "sha256:<hex>" scenario digest.
func rawDigest(s string) ([sha256.Size]byte, bool) {
	var d [sha256.Size]byte
	h, ok := strings.CutPrefix(s, "sha256:")
	if !ok || hex.DecodedLen(len(h)) != len(d) {
		return d, false
	}
	_, err := hex.Decode(d[:], []byte(h))
	return d, err == nil
}

func bodiesFingerprint(bodies [][]byte) string {
	return fingerprint(func(h func([]byte)) {
		for _, b := range bodies {
			h(b)
		}
	})
}

// coldBase is the generator seed of serve-cold's document 0.
func coldBase(seed uint64) uint64 { return runner.DeriveSeed(seed, 0) }

// coldBody generates serve-cold document i.
func coldBody(base uint64, i int64) ([]byte, error) {
	sc := gen.Scenario(base + uint64(i))
	return scenario.Marshal(&sc)
}

// buildCold generates the warm-up documents and starts an empty
// server.
func buildCold(cfg config) (*coldState, error) {
	base := coldBase(cfg.seed)
	warm, err := coldDocuments(base, cfg.size.coldWarmDocs)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg.trace)
	if err != nil {
		return nil, err
	}
	return &coldState{base: base, warm: warm, server: srv}, nil
}

// coldDocuments generates documents 0 to n-1 on every core.
func coldDocuments(base uint64, n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				b, err := coldBody(base, int64(i))
				if err != nil {
					errs[w] = err
					return
				}
				bodies[i] = b
			}
		}(w)
	}
	wg.Wait()
	return bodies, errors.Join(errs...)
}

func serveCold(cfg config, rep *report) error {
	st, setups, err := repeatSetup(cfg, func() (*coldState, error) { return buildCold(cfg) },
		func(s *coldState) { s.server.close() })
	if err != nil {
		return err
	}
	defer st.server.close()
	workers := runtime.GOMAXPROCS(0)
	rep.setInputs(cfg.workload, len(st.warm), bodiesFingerprint(st.warm))

	clients := newClients(st.server.url, workers)
	defer closeClients(clients)
	sent := make([][]coldSent, workers)
	var next atomic.Int64
	// op sends the next unsent document below limit: a warm-up document
	// as generated in set-up, a later one generated here, before the
	// request's latency starts.
	op := func(limit int64, spans *spanLog) loopOp {
		return func(w int, seq int64) (time.Duration, string, bool) {
			i := next.Add(1) - 1
			if i >= limit {
				return 0, "", false
			}
			var body []byte
			if i < int64(len(st.warm)) {
				body = st.warm[i]
			} else {
				var err error
				if body, err = coldBody(st.base, i); err != nil {
					return 0, fmt.Sprintf("document %d: %v", i, err), true
				}
			}
			id := int64(-1)
			if spans != nil {
				id = i
			}
			x, err := clients[w].post(body, "", id)
			if spans != nil && err == nil {
				spans.add("client.post", id, "", x.start, x.end)
			}
			switch {
			case err != nil:
				return 0, err.Error(), true
			case x.status != http.StatusOK:
				return 0, fmt.Sprintf("document %d: status %d: %s", i, x.status, clients[w].buf.Bytes()), true
			}
			dg, ok := rawDigest(x.digest)
			if !ok {
				return 0, fmt.Sprintf("document %d: malformed digest %q", i, x.digest), true
			}
			sent[w] = append(sent[w], coldSent{doc: i, digest: dg})
			return x.end.Sub(x.start), "", true
		}
	}
	// phaseSent takes the documents sent since the last call.
	phaseSent := func() []coldSent {
		var out []coldSent
		for w := range sent {
			out = append(out, sent[w]...)
			sent[w] = sent[w][:0]
		}
		return out
	}

	warmed(rep, closedLoop(workers, cfg.warmup(), op(int64(len(st.warm)), nil)))
	if n := checkColdDigests(st.base, phaseSent()); n > 0 {
		rep.problem("serve-cold: %d warm-up replies carried a digest other than the document's", n)
	}
	next.Store(int64(len(st.warm)))
	m0 := st.server.srv.Metrics()
	windows, err := startRSSWindows(cfg.rssWindow())
	if err != nil {
		return err
	}
	p := closedLoop(workers, cfg.phaseLen(), op(math.MaxInt64, nil))
	rss, err := windows.finish()
	if err != nil {
		return err
	}
	m1 := st.server.srv.Metrics()
	mismatched := checkColdDigests(st.base, phaseSent())
	p.failed += mismatched
	if mismatched > 0 {
		rep.problem("serve-cold: %d replies carried a digest other than the document's", mismatched)
	}
	rep.attempted, rep.failed = p.attempted, p.failed
	counts := counterDelta(m0, m1)
	if counts.sims != p.attempted || counts.hits != 0 {
		rep.problem("serve-cold: %d simulations and %d hits for %d timed requests; every request must miss", counts.sims, counts.hits, p.attempted)
	}
	checkCold(rep, cfg, st, clients[0])

	if !cfg.trace {
		endToEnd(rep, p, setups, rss)
		return nil
	}
	serveLayer(rep, counts)
	runtimeLayer(rep, p)
	tp, spans, err := tracedServePhase(rep, cfg, st.server, workers,
		func(spans *spanLog) loopOp { return op(math.MaxInt64, spans) })
	if err != nil {
		return err
	}
	mismatched = checkColdDigests(st.base, phaseSent())
	if mismatched > 0 {
		rep.problem("serve-cold: %d traced replies carried a digest other than the document's", mismatched)
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed + mismatched
	traceOverhead(rep, p, tp)
	handlerP50 := handlerLayer(rep, spans)
	var docs []layerDoc
	for _, b := range st.warm[:min(cfg.size.layerSample, len(st.warm))] {
		docs = append(docs, layerDoc{body: b, weight: 1, simulate: true})
	}
	recs, err := layerPass(docs)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	layerMetrics(rep, recs, runSamples(recs))
	// A miss decodes, digests, validates again in sim.FromScenario,
	// runs and renders.
	coverage(rep, recs, func(r layerRec) time.Duration {
		return r.decode + r.digest + r.validate + r.run + r.render
	}, handlerP50)
	return nil
}

// checkColdDigests recomputes the digest of every sent document on the
// client side and counts the replies that carried another one.
func checkColdDigests(base uint64, sent []coldSent) int64 {
	workers := runtime.GOMAXPROCS(0)
	bad := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(sent); k += workers {
				sc := gen.Scenario(base + uint64(sent[k].doc))
				dg, err := sc.Digest()
				if want, ok := rawDigest(dg); err != nil || !ok || want != sent[k].digest {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var n int64
	for _, b := range bad {
		n += b
	}
	return n
}

// checkCold compares the served report of a fixed seeded sample of the
// first documents after the warm-up ones with a direct sim run.
func checkCold(rep *report, cfg config, st *coldState, c *client) {
	const span = 2048
	jobs := 0
	for k := 0; k < cfg.size.checkSample; k++ {
		i := int64(len(st.warm)) + int64(runner.DeriveSeed(cfg.seed, 2000+k)%span)
		body, err := coldBody(st.base, i)
		if err != nil {
			rep.problem("serve-cold document %d: %v", i, err)
			continue
		}
		want, err := directRun(body)
		if err != nil {
			rep.problem("serve-cold document %d: direct run: %v", i, err)
			continue
		}
		jobs += want.Report.TotalReleased()
		sc, err := scenario.Decode(bytes.NewReader(body))
		if err != nil {
			rep.problem("serve-cold document %d: %v", i, err)
			continue
		}
		dg, err := sc.Digest()
		if err != nil {
			rep.problem("serve-cold document %d: %v", i, err)
			continue
		}
		x, err := c.post(body, "", -1)
		switch {
		case err != nil:
			rep.problem("serve-cold document %d: %v", i, err)
		case x.status != http.StatusOK:
			rep.problem("serve-cold document %d: status %d", i, x.status)
		default:
			if msg := checkEnvelope(c.buf.Bytes(), dg, want); msg != "" {
				rep.problem("serve-cold document %d: %s (%s)", i, msg, reruns(body))
			}
		}
	}
	rep.count("checked_jobs", int64(jobs))
}
