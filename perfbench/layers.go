package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/verify"
	"repro/sim"
	"repro/sim/scenario"
)

// span is one timed interval of a traced phase. Spans of one operation
// share Op; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced phase's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) add(name string, op int64, parent string, start, end time.Time) {
	s := span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// durations returns the length of every span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeSpans stores a traced phase's spans as JSON lines under
// cfg.spans, when it is set.
func writeSpans(rep *report, cfg config, l *spanLog) error {
	if cfg.spans == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans written=%d path=%s", len(l.spans), path)
	return nil
}

// layerDoc is one input of the standalone layer pass.
type layerDoc struct {
	body []byte
	// weight is the share of requests that carry this body.
	weight float64
	// simulate also times the run-side layers on this document.
	simulate bool
}

// layerRec is what the standalone layer pass measured on one document,
// each layer timed by calling its public function directly.
type layerRec struct {
	weight                     float64
	decode, validate, digest   time.Duration
	simulated, admitted        bool
	feasible, allow, supervise time.Duration
	run, render                time.Duration
	jobs, cpus                 int
	retained                   bool
	analyze, replay            time.Duration
	events                     int
}

// layerPass times every layer of every document standalone, on the
// same bytes the workload sends.
func layerPass(docs []layerDoc) ([]layerRec, error) {
	recs := make([]layerRec, 0, len(docs))
	for _, d := range docs {
		r := layerRec{weight: d.weight}
		t0 := time.Now()
		sc, err := scenario.Decode(bytes.NewReader(d.body))
		r.decode = time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = sc.Validate()
		r.validate = time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, err = sc.Digest()
		r.digest = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if d.simulate {
			if err := simulateLayers(sc, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// simulateLayers times the compile trio (on admitted documents), the
// run, the render, and on retained logs the post-hoc analysis and an
// oracle replay.
func simulateLayers(sc *scenario.Scenario, r *layerRec) error {
	r.simulated = true
	r.cpus = max(1, sc.CPUs)
	if !sc.SkipAdmission && sc.CPUs <= 1 {
		r.admitted = true
		set, err := sc.TaskSet()
		if err != nil {
			return err
		}
		tr, err := detect.ParseTreatment(sc.Treatment)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = analysis.Feasible(set)
		r.feasible = time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = allowance.Compute(set, 0)
		r.allow = time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = detect.NewSupervisor(set, detect.Config{Treatment: tr, TimerResolution: sc.TimerResolution.D()})
		r.supervise = time.Since(t0)
		if err != nil {
			return err
		}
	}
	sys, err := sim.FromScenario(*sc)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := sys.Run()
	r.run = time.Since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_ = res.Report.Render()
	r.render = time.Since(t0)
	r.jobs = res.Report.TotalReleased()
	if res.Log == nil || res.Log.Len() == 0 {
		return nil
	}
	r.retained = true
	t0 = time.Now()
	metrics.Analyze(res.Log)
	r.analyze = time.Since(t0)
	chk, err := verify.ForScenario(sc)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, e := range res.Log.Events() {
		chk.Append(e)
	}
	err = chk.FinishErr()
	r.replay = time.Since(t0)
	r.events = res.Log.Len()
	if err != nil {
		return fmt.Errorf("oracle replay of the retained log: %w", err)
	}
	return nil
}

// runSample is one timed System.Run.
type runSample struct {
	run  time.Duration
	jobs int
	cpus int
}

// layerMetrics records the standalone layer timings. runs feeds the
// sim.run and engine.ns_per_job metrics; engine.jobs is the exact job
// count of the pass.
func layerMetrics(rep *report, recs []layerRec, runs []runSample) {
	var sim []layerRec
	for _, r := range recs {
		if r.simulated {
			sim = append(sim, r)
		}
	}
	rep.set("scenario.decode_us", us(weightedMean(recs, func(r layerRec) time.Duration { return r.decode })), "us")
	rep.set("scenario.validate_us", us(weightedMean(recs, func(r layerRec) time.Duration { return r.validate })), "us")
	rep.set("scenario.digest_us", us(weightedMean(recs, func(r layerRec) time.Duration { return r.digest })), "us")
	rep.samples["scenario.decode_us"] = len(recs)

	var admitted, retained []layerRec
	jobs := 0
	for _, r := range sim {
		jobs += r.jobs
		if r.admitted {
			admitted = append(admitted, r)
		}
		if r.retained {
			retained = append(retained, r)
		}
	}
	rep.set("analysis.feasible_us", us(mean(admitted, func(r layerRec) time.Duration { return r.feasible })), "us")
	rep.set("allowance.compute_us", us(mean(admitted, func(r layerRec) time.Duration { return r.allow })), "us")
	rep.set("detect.supervisor_us", us(mean(admitted, func(r layerRec) time.Duration { return r.supervise })), "us")
	rep.samples["analysis.feasible_us"] = len(admitted)
	rep.set("metrics.render_us", us(mean(sim, func(r layerRec) time.Duration { return r.render })), "us")
	rep.set("metrics.analyze_us", us(mean(retained, func(r layerRec) time.Duration { return r.analyze })), "us")
	rep.samples["metrics.render_us"] = len(sim)
	rep.samples["metrics.analyze_us"] = len(retained)
	var replay time.Duration
	events := 0
	for _, r := range retained {
		replay += r.replay
		events += r.events
	}
	rep.set("verify.ns_per_event", perUnit(replay, events), "ns")
	rep.samples["verify.ns_per_event"] = events
	rep.set("engine.jobs", float64(jobs), "count")

	var times []time.Duration
	var total time.Duration
	totalJobs := 0
	class := map[int]*runSample{}
	for _, s := range runs {
		times = append(times, s.run)
		total += s.run
		totalJobs += s.jobs
		c := class[s.cpus]
		if c == nil {
			c = &runSample{}
			class[s.cpus] = c
		}
		c.run += s.run
		c.jobs += s.jobs
	}
	q := quantiles(times)
	rep.set("sim.run_p50_ms", ms(q.p50), "ms")
	rep.set("sim.run_p90_ms", ms(q.p90), "ms")
	rep.samples["sim.run_p50_ms"] = len(times)
	rep.samples["sim.run_p90_ms"] = len(times)
	rep.set("engine.ns_per_job", perUnit(total, totalJobs), "ns")
	rep.samples["engine.ns_per_job"] = totalJobs
	for _, cpus := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("engine.ns_per_job.c%d", cpus)
		c := class[cpus]
		if c == nil {
			rep.set(name, 0, "ns")
			rep.note("layer %s: no %d-core runs in this workload's sample", name, cpus)
			continue
		}
		rep.set(name, perUnit(c.run, c.jobs), "ns")
		rep.samples[name] = c.jobs
	}
}

// runSamples extracts the simulated documents' run timings.
func runSamples(recs []layerRec) []runSample {
	var out []runSample
	for _, r := range recs {
		if r.simulated {
			out = append(out, runSample{run: r.run, jobs: r.jobs, cpus: r.cpus})
		}
	}
	return out
}

// coverage records the standalone layer time of a median request over
// the handler's median latency: near 1 when the layers named account
// for the handler's time, well below 1 when a layer is missing.
func coverage(rep *report, recs []layerRec, perRequest func(layerRec) time.Duration, handlerP50 time.Duration) {
	type wv struct {
		v time.Duration
		w float64
	}
	var all []wv
	var total float64
	for _, r := range recs {
		all = append(all, wv{perRequest(r), r.weight})
		total += r.weight
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var acc float64
	var med time.Duration
	for _, x := range all {
		acc += x.w
		if acc >= total/2 {
			med = x.v
			break
		}
	}
	ratio := 0.0
	if handlerP50 > 0 {
		ratio = float64(med) / float64(handlerP50)
	}
	rep.set("trace.coverage", ratio, "ratio")
	rep.note("coverage standalone_p50_ms=%.4f handler_p50_ms=%.4f ratio=%.3f", ms(med), ms(handlerP50), ratio)
}

func weightedMean(recs []layerRec, f func(layerRec) time.Duration) time.Duration {
	var sum, w float64
	for _, r := range recs {
		sum += r.weight * float64(f(r))
		w += r.weight
	}
	if w == 0 {
		return 0
	}
	return time.Duration(sum / w)
}

func mean(recs []layerRec, f func(layerRec) time.Duration) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, r := range recs {
		sum += f(r)
	}
	return sum / time.Duration(len(recs))
}

func perUnit(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}
