package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/verify/gen"
	"repro/internal/vtime"
	"repro/sim"
	"repro/sim/scenario"
)

func testScenarioJSON(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	sc := scenario.Scenario{
		Name: name,
		Tasks: []scenario.Task{
			{Name: "tau1", Priority: 2, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(2))},
			{Name: "tau2", Priority: 1, Period: scenario.Duration(vtime.Millis(20)), Deadline: scenario.Duration(vtime.Millis(20)), Cost: scenario.Duration(vtime.Millis(5))},
		},
		Horizon: scenario.Duration(vtime.Millis(100)),
		Seed:    seed,
	}
	b, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// compacted is body with its insignificant whitespace removed: the
// same scenario (and digest) under different bytes.
func compacted(t *testing.T, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServedReportMatchesLocalRun pins the service's core contract
// for every committed example scenario: the served report is
// byte-equal to the summary a local `rtrun -scenario` run prints
// (rtrun prints RunResult.Summary() verbatim — the CLI-level twin of
// this pin is scripts/serve_smoke.sh, which cmp's against the real
// binary).
//
// It also pins that the raw-body index changes no reply. Each reply
// format goes to a fresh server as four legs: the canonical body (the
// miss), the compacted body (a hit through decode and digest), then
// each again (raw hits). Every leg answers the same status,
// X-Scenario-Digest, Content-Type and body, and all but the first say
// X-Cache: hit. Under SSE the miss streams its own queued and progress
// events, so there every leg's result event is the envelope and the
// three hits stream identical bytes.
func TestServedReportMatchesLocalRun(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example scenarios found")
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sys, err := sim.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := res.Summary()

			raw, err := scenario.DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := scenario.Marshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			wantDigest, err := raw.Digest()
			if err != nil {
				t.Fatal(err)
			}
			bodies := [][]byte{canon, compacted(t, canon), canon, compacted(t, canon)}

			var envelopeBody []byte
			for _, query := range []string{"", "?format=report", "?stream=sse"} {
				legs := postLegs(t, query, bodies)
				for i, rec := range legs {
					if rec.Code != http.StatusOK {
						t.Fatalf("%q leg %d: status %d: %s", query, i, rec.Code, rec.Body.String())
					}
					wantCache := "hit"
					if i == 0 {
						wantCache = "miss"
					}
					if cs := rec.Header().Get("X-Cache"); cs != wantCache {
						t.Errorf("%q leg %d: X-Cache %q, want %q", query, i, cs, wantCache)
					}
					if d := rec.Header().Get("X-Scenario-Digest"); d != wantDigest {
						t.Errorf("%q leg %d: X-Scenario-Digest %s, want %s", query, i, d, wantDigest)
					}
					if ct, ct0 := rec.Header().Get("Content-Type"), legs[0].Header().Get("Content-Type"); ct != ct0 {
						t.Errorf("%q leg %d: Content-Type %q, leg 0 %q", query, i, ct, ct0)
					}
				}
				switch query {
				case "":
					// The JSON envelope is deterministic, and carries
					// the pinned digest.
					envelopeBody = legs[0].Body.Bytes()
					var env envelope
					if err := json.Unmarshal(envelopeBody, &env); err != nil {
						t.Fatalf("envelope: %v", err)
					}
					if env.Report != want {
						t.Error("envelope report differs from local run")
					}
					if env.Digest != wantDigest {
						t.Errorf("envelope digest %s, want %s", env.Digest, wantDigest)
					}
					sameBodies(t, query, legs)
				case "?format=report":
					if got := legs[0].Body.String(); got != want {
						t.Errorf("served report differs from local run:\n--- served ---\n%s\n--- local ---\n%s", got, want)
					}
					sameBodies(t, query, legs)
				default:
					for i, rec := range legs {
						results := parseSSE(t, rec.Body.String())["result"]
						if len(results) != 1 || strings.TrimSpace(results[0]) != strings.TrimSpace(string(envelopeBody)) {
							t.Errorf("SSE leg %d: result events %q, want the envelope", i, results)
						}
					}
					sameBodies(t, query, legs[1:])
				}
			}
		})
	}
}

// postLegs posts bodies in order to a fresh server and checks they
// cost one simulation, with every repeat of earlier bytes a raw hit.
func postLegs(t *testing.T, query string, bodies [][]byte) []*httptest.ResponseRecorder {
	t.Helper()
	s := New(Config{Workers: 2})
	defer s.Close()
	legs := make([]*httptest.ResponseRecorder, len(bodies))
	seen := map[string]bool{}
	wantRaw := int64(0)
	for i, b := range bodies {
		legs[i] = post(t, s, "/v1/simulate"+query, b)
		if seen[string(b)] {
			wantRaw++
		}
		seen[string(b)] = true
	}
	if snap := s.Metrics(); snap.SimulationsRun != 1 || snap.RawHits != wantRaw {
		t.Errorf("%q: simulations_run/raw_hits = %d/%d, want 1/%d", query, snap.SimulationsRun, snap.RawHits, wantRaw)
	}
	return legs
}

// sameBodies reports every leg whose body differs from the first's.
func sameBodies(t *testing.T, query string, legs []*httptest.ResponseRecorder) {
	t.Helper()
	for i, rec := range legs[1:] {
		if !bytes.Equal(rec.Body.Bytes(), legs[0].Body.Bytes()) {
			t.Errorf("%q: leg %d body differs from the first:\n%s\nvs\n%s", query, i+1, rec.Body.Bytes(), legs[0].Body.Bytes())
		}
	}
}

// TestSingleflightConcurrentIdenticalPosts pins the dedup guarantee
// with a gated run function: N in-flight POSTs of one scenario, half
// of them compacted (so raw-index and digest hits race), cost exactly
// one simulation, every response is 200 with identical bytes, and
// exactly one response is the cache miss.
func TestSingleflightConcurrentIdenticalPosts(t *testing.T) {
	const n = 16
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Close()

	var runs atomic.Int64
	release := make(chan struct{})
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		runs.Add(1)
		<-release
		return &result{report: []byte("stub report\n"), successRatio: 1}, nil
	}

	body := testScenarioJSON(t, "singleflight", 1)
	bodies := [][]byte{body, compacted(t, body)}
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, s, "/v1/simulate", bodies[i%2])
		}(i)
	}
	// Wait until every request has passed the cache lookup (the miss
	// plus n-1 joined hits), then let the single simulation finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.hits.Load()+s.met.misses.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests reached the cache", s.met.hits.Load()+s.met.misses.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("%d identical concurrent POSTs ran %d simulations, want exactly 1", n, got)
	}
	misses := 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d returned different bytes", i)
		}
		if rec.Header().Get("X-Cache") == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d responses claim the miss, want exactly 1", misses)
	}

	// Stragglers after completion are plain cache hits: same bytes,
	// still one simulation.
	for _, b := range bodies {
		late := post(t, s, "/v1/simulate", b)
		if late.Code != http.StatusOK || late.Header().Get("X-Cache") != "hit" {
			t.Errorf("late POST: status %d X-Cache %q", late.Code, late.Header().Get("X-Cache"))
		}
		if !bytes.Equal(late.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Error("late cache hit returned different bytes")
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("late hit re-ran the simulation (%d runs)", got)
	}
}

// TestSingleflightRealRun repeats the dedup pin without stubbing: the
// real simulation function wrapped in a counter. Timing no longer
// forces overlap, but content addressing makes the count exact anyway:
// whether requests overlap or arrive after completion, one simulation
// serves all of them.
func TestSingleflightRealRun(t *testing.T) {
	const n = 8
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Close()
	var runs atomic.Int64
	real := s.run
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		runs.Add(1)
		return real(ctx, sc, progress)
	}
	body := testScenarioJSON(t, "singleflight-real", 2)
	var wg sync.WaitGroup
	wg.Add(n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, s, "/v1/simulate", body).Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations for %d identical POSTs, want 1", got, n)
	}
}

// TestQueueFullSheds pins the admission layer: with one worker busy
// and the single queue slot taken, a third distinct scenario gets 429
// + Retry-After instead of queueing, /metrics reflects the shed, and
// the admitted work still completes.
func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		started <- struct{}{}
		<-release
		return &result{report: []byte(sc.Name + "\n"), successRatio: 1}, nil
	}

	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- post(t, s, "/v1/simulate", testScenarioJSON(t, "a", 1)) }()
	<-started // the worker owns scenario a; queue empty
	go func() { results <- post(t, s, "/v1/simulate", testScenarioJSON(t, "b", 2)) }()
	// Wait for b to occupy the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second scenario never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	rec := post(t, s, "/v1/simulate", testScenarioJSON(t, "c", 3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if snap := s.Metrics(); snap.Throttled == 0 {
		t.Error("metrics do not reflect the shed request")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if rec := <-results; rec.Code != http.StatusOK {
			t.Errorf("admitted request finished with status %d", rec.Code)
		}
	}

	// Capacity freed: the shed scenario is accepted on retry (its
	// failed entry was not cached).
	rec = post(t, s, "/v1/simulate", testScenarioJSON(t, "c", 3))
	if rec.Code != http.StatusOK {
		t.Errorf("retry after drain: status %d, want 200", rec.Code)
	}
}

// TestThrottleRetryAfterCeiling pins the Retry-After arithmetic: the
// header has whole-second resolution, so sub-second configurations
// must ceil to "1" — the old Round()-based computation emitted
// "Retry-After: 0" for anything under 500ms, inviting an immediate
// retry storm against a saturated server.
func TestThrottleRetryAfterCeiling(t *testing.T) {
	cases := []struct {
		cfg  time.Duration
		want string
	}{
		{200 * time.Millisecond, "1"}, // pre-fix: "0"
		{499 * time.Millisecond, "1"}, // pre-fix: "0"
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"}, // ceiling, not rounding
		{2 * time.Second, "2"},         // the TestQueueFullSheds pin
		{0, "1"},                       // config default (1s)
	}
	for _, c := range cases {
		s := New(Config{Workers: 1, RetryAfter: c.cfg})
		rec := httptest.NewRecorder()
		s.throttle(rec)
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("RetryAfter %v: header %q, want %q", c.cfg, got, c.want)
		}
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("RetryAfter %v: status %d, want 429", c.cfg, rec.Code)
		}
		s.Close()
	}
}

// TestPathSourceRejected pins the cache-safety rule: a scenario whose
// trace arrival reads a file path is refused with 400 — the digest
// does not cover the file's content, so two different traces behind
// one path would alias a single cache entry.
func TestPathSourceRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	sc := scenario.Scenario{
		Name: "path-trace",
		Tasks: []scenario.Task{
			{Name: "replay", Priority: 1, Period: scenario.Duration(vtime.Millis(20)), Deadline: scenario.Duration(vtime.Millis(20)), Cost: scenario.Duration(vtime.Millis(2))},
		},
		Arrivals:      []scenario.Arrival{{Task: "replay", Kind: scenario.ArrivalTrace, Path: "does-not-matter.jsonl"}},
		Horizon:       scenario.Duration(vtime.Millis(100)),
		SkipAdmission: true,
	}
	body, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/v1/simulate", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("path-source POST: status %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "content-addressable") {
		t.Errorf("error body %q does not explain the path rejection", rec.Body.String())
	}
	if snap := s.Metrics(); snap.BadRequests == 0 {
		t.Error("metrics do not count the rejected request")
	}
}

// TestSSEProgress pins the streaming contract: ?stream=sse yields a
// queued event, at least one progress observation of the virtual
// clock, and a result event whose envelope equals the blocking
// response.
func TestSSEProgress(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	body := testScenarioJSON(t, "sse", 4)

	rec := post(t, s, "/v1/simulate?stream=sse", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := parseSSE(t, rec.Body.String())
	if len(events["queued"]) != 1 {
		t.Errorf("want exactly 1 queued event, got %d", len(events["queued"]))
	}
	if len(events["progress"]) == 0 {
		t.Error("no progress events streamed")
	}
	for _, raw := range events["progress"] {
		var p Progress
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Fatalf("progress event: %v", err)
		}
		if p.HorizonMS != 100 || p.AtMS < 0 || p.AtMS > p.HorizonMS {
			t.Errorf("implausible progress %+v", p)
		}
	}
	if len(events["result"]) != 1 {
		t.Fatalf("want exactly 1 result event, got %d (errors: %v)", len(events["result"]), events["error"])
	}

	blocking := post(t, s, "/v1/simulate", body)
	if got, want := strings.TrimSpace(events["result"][0]), strings.TrimSpace(blocking.Body.String()); got != want {
		t.Errorf("SSE result envelope differs from blocking response:\n%s\nvs\n%s", got, want)
	}
}

// TestSSECacheHitGoesStraightToResult pins streamSimulate's contract
// for a hit on a completed entry: exactly a queued event, then the
// result, with no progress replayed from the finished run.
func TestSSECacheHitGoesStraightToResult(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	body := testScenarioJSON(t, "sse-hit", 4)

	miss := post(t, s, "/v1/simulate?stream=sse", body)
	hit := post(t, s, "/v1/simulate?stream=sse", body)
	if cs := hit.Header().Get("X-Cache"); cs != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", cs)
	}
	var order []string
	for _, line := range strings.Split(hit.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			order = append(order, v)
		}
	}
	if strings.Join(order, ",") != "queued,result" {
		t.Errorf("hit streamed events %v, want [queued result]", order)
	}
	if got, want := parseSSE(t, hit.Body.String())["result"], parseSSE(t, miss.Body.String())["result"]; len(got) != 1 || len(want) != 1 || got[0] != want[0] {
		t.Errorf("hit result %v differs from miss result %v", got, want)
	}
}

func parseSSE(t *testing.T, s string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	var event string
	for _, line := range strings.Split(s, "\n") {
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok {
			if event == "" {
				t.Fatalf("data without event: %q", line)
			}
			out[event] = append(out[event], v)
			event = ""
		}
	}
	return out
}

// TestBadRequests pins the error contract: malformed JSON, unknown
// fields, trailing data after the document, and invalid scenarios are
// 400s, and a body past the cap is a 413 even when a valid document
// ends before it (all counted, never cached, never simulated); an
// infeasible-but-valid scenario is a 422.
func TestBadRequests(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, MaxBodyBytes: int64(len(doc) + 100)})
	defer s.Close()
	cases := map[string]struct {
		body string
		code int
	}{
		"malformed":     {"{not json", http.StatusBadRequest},
		"unknown-field": {`{"tasks":[],"horizon":"1s","bogus":1}`, http.StatusBadRequest},
		"no-tasks":      {`{"tasks":[],"horizon":"1s"}`, http.StatusBadRequest},
		"trailing-data": {string(doc) + "garbage", http.StatusBadRequest},
		"over-cap":      {string(doc) + strings.Repeat(" ", 1<<20), http.StatusRequestEntityTooLarge},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			rec := post(t, s, "/v1/simulate", []byte(c.body))
			if rec.Code != c.code {
				t.Errorf("status %d, want %d: %s", rec.Code, c.code, rec.Body.String())
			}
		})
	}
	if got := s.Metrics().BadRequests; got != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}
	if s.Metrics().SimulationsRun != 0 {
		t.Error("a bad request reached the simulator")
	}

	// Structurally valid but infeasible under admission control: the
	// run fails deterministically → 422, not cached.
	over := scenario.Scenario{
		Name: "infeasible",
		Tasks: []scenario.Task{
			{Name: "tau1", Priority: 2, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(6))},
			{Name: "tau2", Priority: 1, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(6))},
		},
		Horizon: scenario.Duration(vtime.Millis(100)),
	}
	b, err := scenario.Marshal(&over)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/v1/simulate", b)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible scenario: status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("failed run left %d cache entries", got)
	}
}

// TestNegativeExtraRefused: figure5.json with its fault's extra
// negated is refused with a 400 naming the field, before any worker
// runs it (the engine would panic on a pool goroutine, which no layer
// recovers), and the server still answers /healthz.
func TestNegativeExtraRefused(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	neg := bytes.Replace(doc, []byte(`"extra": "40ms"`), []byte(`"extra": "-40ms"`), 1)
	if bytes.Equal(neg, doc) {
		t.Fatal(`figure5.json has no "extra": "40ms" to negate`)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	if rec := post(t, s, "/v1/simulate", neg); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "extra") {
		t.Errorf("negative extra: status %d, want 400 naming extra: %s", rec.Code, rec.Body.String())
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after the refusal: %d %q", rec.Code, rec.Body.String())
	}
}

// TestUntraceableTaskNameRefused: figure5.json with tau2 renamed
// "tau 2" or "-" is refused with a 400 naming the task, before any
// worker runs it: the trace text format splits on white space and
// reads "-" as a system-wide event, so the run's log could not be
// read back.
func TestUntraceableTaskNameRefused(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, name := range []string{"tau 2", "-"} {
		bad := bytes.Replace(doc, []byte(`"name": "tau2"`), []byte(`"name": "`+name+`"`), 1)
		if bytes.Equal(bad, doc) {
			t.Fatal(`figure5.json has no "name": "tau2" to rename`)
		}
		if rec := post(t, s, "/v1/simulate", bad); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), name) {
			t.Errorf("task %q: status %d, want 400 naming the task: %s", name, rec.Code, rec.Body.String())
		}
	}
	if snap := s.Metrics(); snap.BadRequests != 2 || snap.CacheMisses != 0 {
		t.Errorf("metrics after two refusals: %+v", snap)
	}
}

// TestMetricsEndpoint pins the /metrics document shape and that the
// counters move. The canonical body misses and its repeat is a raw
// hit; the compacted body hits through decode and digest, and its
// repeat is a raw hit too. Raw hits count within cache_hits.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	body := testScenarioJSON(t, "metrics", 5)
	for i, b := range [][]byte{body, body, compacted(t, body), compacted(t, body)} {
		if rec := post(t, s, "/v1/simulate", b); rec.Code != http.StatusOK {
			t.Fatalf("POST %d: status %d", i, rec.Code)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.CacheMisses != 1 || snap.CacheHits != 3 || snap.RawHits != 2 {
		t.Errorf("misses/hits/raw_hits = %d/%d/%d, want 1/3/2", snap.CacheMisses, snap.CacheHits, snap.RawHits)
	}
	if snap.SimulationsRun != 1 {
		t.Errorf("simulations_run = %d, want 1", snap.SimulationsRun)
	}
	if snap.RawIndexEntries != 2 {
		t.Errorf("raw_index_entries = %d, want 2", snap.RawIndexEntries)
	}
	if snap.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", snap.Latency.Count)
	}
	if snap.Latency.P99MS < snap.Latency.P50MS {
		t.Errorf("p99 %v < p50 %v", snap.Latency.P99MS, snap.Latency.P50MS)
	}

	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %q", hrec.Code, hrec.Body.String())
	}
}

// TestVerifyConfig pins that Config.Verify arms the oracle on served
// runs (a healthy scenario still passes — the wiring, not the oracle,
// is under test here).
func TestVerifyConfig(t *testing.T) {
	s := New(Config{Workers: 1, Verify: true})
	defer s.Close()
	rec := post(t, s, "/v1/simulate", testScenarioJSON(t, "verified", 6))
	if rec.Code != http.StatusOK {
		t.Fatalf("verified run: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFastForwardServed pins that a fast_forward document is served:
// plain and under SSE it answers 200 with the report a direct sim run
// prints, though every served run observes its progress. Under
// Config.Verify the same document is refused with a 422 that names
// both features, and the refusal is not cached.
func TestFastForwardServed(t *testing.T) {
	sc := gen.FastForwardable(7)
	body, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.SkippedCycles == 0 {
		t.Fatal("the document never engaged the fast-forward jump")
	}
	want := direct.Summary()

	plain := New(Config{Workers: 1})
	defer plain.Close()
	rec := post(t, plain, "/v1/simulate?format=report", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("plain POST: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != want {
		t.Errorf("served report differs from the direct run:\n%s\nvs\n%s", got, want)
	}

	sse := New(Config{Workers: 1})
	defer sse.Close()
	rec = post(t, sse, "/v1/simulate?stream=sse", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("SSE POST: status %d: %s", rec.Code, rec.Body.String())
	}
	var last string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			last = v
		}
	}
	if last != "result" {
		t.Fatalf("SSE stream ends in %q, want result: %s", last, rec.Body.String())
	}
	var env envelope
	if err := json.Unmarshal([]byte(parseSSE(t, rec.Body.String())["result"][0]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Report != want {
		t.Errorf("SSE report differs from the direct run:\n%s\nvs\n%s", env.Report, want)
	}

	verified := New(Config{Workers: 1, Verify: true})
	defer verified.Close()
	for i := 0; i < 2; i++ {
		rec := post(t, verified, "/v1/simulate", body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("request %d under Verify: status %d, want 422: %s", i, rec.Code, rec.Body.String())
		}
		if msg := rec.Body.String(); !strings.Contains(msg, "fast_forward") || !strings.Contains(msg, "verify") {
			t.Errorf("request %d under Verify: %s does not name fast_forward and verify", i, msg)
		}
	}
	if m := verified.Metrics(); m.CacheHits != 0 || m.SimulationsRun != 2 {
		t.Errorf("a refused run was answered from the cache: %d hits, %d runs for 2 requests", m.CacheHits, m.SimulationsRun)
	}
}

// TestSignedSubMillisecondDurationsMiss: two documents that differ
// only in the sign of a sub-millisecond interference start get
// different digests, so the second, posted after the first to the
// same server, misses the cache and is answered with its own report.
func TestSignedSubMillisecondDurationsMiss(t *testing.T) {
	doc := func(from string) []byte {
		return []byte(`{
  "name": "signed-from",
  "tasks": [
    {"name": "tau1", "priority": 20, "period": "200ms", "deadline": "70ms", "cost": "29ms"},
    {"name": "tau2", "priority": 18, "period": "250ms", "deadline": "120ms", "cost": "29ms"}
  ],
  "faults": [
    {"task": "tau1", "kind": "interference", "extra": "10ms", "from": "` + from + `", "to": "300ms"}
  ],
  "horizon": "1000ms"
}`)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	first := post(t, s, "/v1/simulate?format=report", doc("-0.5ms"))
	if first.Code != http.StatusOK {
		t.Fatalf("first document: status %d: %s", first.Code, first.Body.String())
	}
	second := post(t, s, "/v1/simulate?format=report", doc("0.5ms"))
	if second.Code != http.StatusOK {
		t.Fatalf("second document: status %d: %s", second.Code, second.Body.String())
	}
	if cs := second.Header().Get("X-Cache"); cs != "miss" {
		t.Errorf("second document: X-Cache %q, want miss", cs)
	}
	if d1, d2 := first.Header().Get("X-Scenario-Digest"), second.Header().Get("X-Scenario-Digest"); d1 == d2 {
		t.Errorf("both documents digest to %s", d1)
	}
	sc, err := scenario.Decode(bytes.NewReader(doc("0.5ms")))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.FromScenario(*sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Body.String(), res.Summary(); got != want {
		t.Errorf("second document's report differs from a fresh run:\n got %s\nwant %s", got, want)
	}
	if first.Body.String() == second.Body.String() {
		t.Error("the two documents' reports are identical, though tau1#0 meets interference in only the first")
	}
}
