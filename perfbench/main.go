// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload through the entry points a user touches — an
// in-process rtserved server (serve-hot, serve-cold) or the sim facade
// (batch-long) — checks every output, and prints its metrics by name
// with their units. The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (ops_per_s,
// p50_ms, p90_ms, peak_rss_mb, setup_s); with --trace 1 the run adds a
// traced phase and standalone layer timings and reports the per-layer
// metrics instead. See README.md in this directory for the workloads,
// the layer → end-to-end map and what is out of scope.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sizes scales a workload. The defaults are the benchmark's; the
// self-tests shrink them.
type sizes struct {
	// setupRuns is how often an untraced run builds its state at
	// least, and setupTime how long its builds take in total at least;
	// setup_s is the median, and the last build is the one measured.
	setupRuns int
	setupTime time.Duration
	// hotDocs is the number of generated documents in serve-hot's
	// working set, besides the committed testdata scenarios.
	hotDocs int
	// coldWarmDocs is the number of serve-cold documents set-up
	// generates for the warm-up loop, sized above the fastest rate
	// measured; the timed loops generate theirs as they go.
	coldWarmDocs int
	// layerSample is the number of serve-cold documents the traced run
	// times layer by layer.
	layerSample int
	// checkSample is the number of serve-cold documents whose served
	// report is compared with a direct sim run.
	checkSample int
	// batchJobs is the number of jobs each batch-long scenario
	// releases over its horizon.
	batchJobs int
}

var defaultSizes = sizes{
	setupRuns:    5,
	setupTime:    500 * time.Millisecond,
	hotDocs:      300,
	coldWarmDocs: 8000,
	layerSample:  512,
	checkSample:  64,
	batchJobs:    30000,
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the repository root (testdata/scenarios lives there).
	root string
	// spans is the directory the traced run writes its spans to; empty
	// keeps them in memory only.
	spans string
	size  sizes
}

// metric is one named measurement of the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured and checked.
type report struct {
	attempted int64
	failed    int64
	// problems lists every failed output check; any makes the run
	// incorrect.
	problems []string
	metrics  map[string]metric
	// samples is the sample count behind each latency metric.
	samples map[string]int
	// lines are human-readable diagnostics printed before the result.
	lines []string
	// inputs is the SHA-256 over the workload's generated inputs.
	inputs string
	// exact holds counts that must repeat on every run of one seed.
	exact map[string]int64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, exact: map[string]int64{}}
}

// count records a count that must repeat on every run of one seed.
func (r *report) count(name string, n int64) {
	r.exact[name] = n
	r.note("exact %s=%d", name, n)
}

// fingerprint is the SHA-256 over a workload's generated inputs.
func fingerprint(parts func(h func([]byte))) string {
	h := sha256.New()
	parts(func(b []byte) {
		h.Write(b)
		h.Write([]byte{0})
	})
	return hex.EncodeToString(h.Sum(nil))
}

func (r *report) setInputs(workload string, documents int, sum string) {
	r.inputs = sum
	r.note("inputs workload=%s documents=%d sha256=%s", workload, documents, sum)
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, rep *report) error{
	"serve-hot":  serveHot,
	"serve-cold": serveCold,
	"batch-long": batchLong,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: serve-hot | serve-cold | batch-long")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase in seconds")
		traced   = fs.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		spans    = fs.String("spans", "", "directory for the traced run's spans (empty: keep in memory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve-hot|serve-cold|batch-long, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		root:     *root,
		spans:    *spans,
		size:     defaultSizes,
	}
	rep, err := runWorkload(cfg, drive)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, rep)
	return 0
}

// runWorkload runs one workload and returns its report. An error means
// the benchmark itself could not run (no result is printed); failed
// operations and output checks are reported, not returned.
func runWorkload(cfg config, drive func(config, *report) error) (*report, error) {
	rep := newReport()
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := drive(cfg, rep); err != nil {
		return nil, err
	}
	if rep.failed > rep.attempted {
		rep.failed = rep.attempted
	}
	return rep, nil
}

func printReport(w io.Writer, rep *report) {
	bw := bufio.NewWriter(w)
	for _, l := range rep.lines {
		fmt.Fprintln(bw, l)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(bw, "CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		line := fmt.Sprintf("metric %-26s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := rep.samples[n]; ok {
			line += fmt.Sprintf(" (n=%d)", s)
		}
		fmt.Fprintln(bw, line)
	}
	out := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // metrics are plain numbers and strings
	}
	bw.Write(b)
	bw.WriteByte('\n')
	bw.Flush()
}

// phase is one timed closed-loop phase.
type phase struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	// lat holds the latencies of the successful operations: all of
	// them, or in a closed loop a uniform sample of at most latSample
	// per client.
	lat []time.Duration
	// exhausted reports that the inputs ran out before the deadline.
	exhausted bool
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

func (p *phase) opsPerSecond() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// endToEnd records the end-to-end metrics of an untraced phase.
func endToEnd(rep *report, p *phase, setups []time.Duration, rssWindowsMB []float64) {
	q := quantiles(p.lat)
	rep.set("ops_per_s", p.opsPerSecond(), "ops/s")
	rep.set("p50_ms", ms(q.p50), "ms")
	rep.set("p90_ms", ms(q.p90), "ms")
	sorted := append([]float64(nil), rssWindowsMB...)
	sort.Float64s(sorted)
	rep.set("peak_rss_mb", sorted[(9*len(sorted)+9)/10-1], "MB")
	rep.set("setup_s", median(setups).Seconds(), "s")
	rep.samples["p50_ms"] = len(p.lat)
	rep.samples["p90_ms"] = len(p.lat)
	rep.samples["setup_s"] = len(setups)
	rep.samples["peak_rss_mb"] = len(rssWindowsMB)
	s := append([]time.Duration(nil), setups...)
	slices.Sort(s)
	rep.note("setup runs=%d min_s=%.4f median_s=%.4f max_s=%.4f", len(s), s[0].Seconds(), median(s).Seconds(), s[len(s)-1].Seconds())
	rep.note("rss window_peaks_mb=%.1f", rssWindowsMB)
	rep.note("timed ops=%d failed=%d elapsed=%.3fs p99_ms=%.4f exhausted=%t",
		p.attempted, p.failed, p.elapsed.Seconds(), ms(q.p99), p.exhausted)
}

// runtimeLayer records the Go runtime's share of a phase.
func runtimeLayer(rep *report, p *phase) {
	ops := float64(p.attempted)
	if ops == 0 {
		ops = 1
	}
	rep.set("go.alloc_kb_per_op", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1024/ops, "KB")
	rep.set("go.mallocs_per_op", float64(p.mem1.Mallocs-p.mem0.Mallocs)/ops, "count")
	rep.set("go.gc_cycles", float64(p.mem1.NumGC-p.mem0.NumGC), "count")
	rep.set("go.gc_pause_ms", float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, "ms")
}

// traceOverhead records how much slower the traced phase ran than the
// untraced one, plus the untraced p99 as a diagnostic.
func traceOverhead(rep *report, untraced, traced *phase) {
	overhead := 0.0
	if traced.opsPerSecond() > 0 {
		overhead = 100 * (untraced.opsPerSecond()/traced.opsPerSecond() - 1)
	} else {
		rep.problem("the traced phase completed no operation")
	}
	rep.set("trace.overhead_pct", overhead, "%")
	q := quantiles(untraced.lat)
	rep.set("e2e.p99_ms", ms(q.p99), "ms")
	rep.samples["e2e.p99_ms"] = len(untraced.lat)
}

type quants struct{ p50, p90, p99 time.Duration }

// quantiles returns nearest-rank percentiles of the samples.
func quantiles(samples []time.Duration) quants {
	if len(samples) == 0 {
		return quants{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q*float64(len(s))+0.999999999) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return quants{p50: at(0.50), p90: at(0.90), p99: at(0.99)}
}

func median(samples []time.Duration) time.Duration { return quantiles(samples).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// resetPeakRSS restarts the resident-set high-water mark (VmHWM) at the
// current resident size, so the next peakRSSMB covers only what runs
// in between — the timed phase, not the set-up builds before it.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return nil
}

// rssWindows samples the resident-set high-water mark of a timed phase
// in windows: each window's VmHWM is read and the mark reset. The 90th
// percentile (nearest rank) of the window peaks is steadier than one
// mark over the whole phase, which moves with where the collector
// happens to run, and than their median, which can fall between the
// two levels batch-long's windows reach with and without both
// retained logs in flight.
type rssWindows struct {
	stop chan struct{}
	done chan rssPeaks
}

type rssPeaks struct {
	mb  []float64
	err error
}

func startRSSWindows(window time.Duration) (*rssWindows, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	w := &rssWindows{stop: make(chan struct{}), done: make(chan rssPeaks, 1)}
	go func() {
		tick := time.NewTicker(window)
		defer tick.Stop()
		var p rssPeaks
		sample := func() {
			mb, err := peakRSSMB()
			if err == nil {
				err = resetPeakRSS()
			}
			if err != nil {
				p.err = err
				return
			}
			p.mb = append(p.mb, mb)
		}
		for {
			select {
			case <-tick.C:
				sample()
			case <-w.stop:
				sample()
				w.done <- p
				return
			}
		}
	}()
	return w, nil
}

// finish stops the sampling and returns every window's peak, in order.
func (w *rssWindows) finish() ([]float64, error) {
	close(w.stop)
	p := <-w.done
	return p.mb, p.err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// repeatSetup builds a workload's state as often as cfg.setups asks,
// timing each build, and keeps the last; earlier builds are released
// with discard. A set-up of a few milliseconds thus still gets a
// median over a large sample.
func repeatSetup[T any](cfg config, build func() (T, error), discard func(T)) (T, []time.Duration, error) {
	n, least := cfg.setups()
	var state T
	times := make([]time.Duration, 0, n)
	var total time.Duration
	for i := 0; i < n || total < least; i++ {
		if i > 0 {
			discard(state)
			var zero T
			state = zero // let the collector take the discarded build first
			runtime.GC()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return state, nil, err
		}
		d := time.Since(t0)
		times = append(times, d)
		total += d
		state = s
	}
	return state, times, nil
}

// phaseLen is the length of one timed phase. An untraced run times one
// phase of --seconds; a traced run times an untraced and a traced
// phase of half that each, so it measures as long as an untraced run.
func (c config) phaseLen() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// rssWindow is the length of one peak-RSS window: a tenth of the timed
// phase.
func (c config) rssWindow() time.Duration { return c.phaseLen() / 10 }

// warmup is the untimed first slice of the closed loop: it lets the
// heap, the GC pacer and the connections settle before timing starts.
func (c config) warmup() time.Duration { return min(time.Second, c.seconds/5) }

// warmed reports a failed warm-up operation as a failed check.
func warmed(rep *report, p *phase) {
	if p.failed > 0 {
		rep.problem("%d of %d warm-up operations failed", p.failed, p.attempted)
	}
}

// setups returns how often a run builds its state at least and how
// long its builds take in total at least.
func (c config) setups() (int, time.Duration) {
	if c.trace {
		return 1, 0 // the traced run reports no setup time
	}
	return c.size.setupRuns, c.size.setupTime
}
