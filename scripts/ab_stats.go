//go:build ignore

// ab_stats summarizes alternating A/B benchmark runs. It reads lines
// "SIDE JSON" on stdin, SIDE being base or head and JSON a perfbench
// result line; the i-th base run and the i-th head run form pair i.
// For each end-to-end metric of the -spec file (BENCHMARK.json) it
// prints each side's median and quartiles, the pairs HEAD won (by the
// metric's better direction), and the median paired ratio HEAD/BASE
// with a percentile-bootstrap 95% interval (Kalibera & Jones,
// "Rigorous Benchmarking in Reasonable Time", ISMM 2013). The
// resampling seed is fixed, so one input always prints one report. An
// interval that contains 1 reads "no measurable change"; fewer than 5
// pairs get no verdict.
//
// It exits 1 when a run is not correct or failed operations, or when
// the sides ran different numbers of times. scripts/ab.sh runs it:
//
//	go run scripts/ab_stats.go -spec BENCHMARK.json < runs.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
)

// resamples is the number of bootstrap resamples.
const resamples = 10000

// minPairs is the fewest pairs whose bootstrap interval the report
// reads as a verdict: below it the interval is close to a point and
// says nothing about the spread.
const minPairs = 5

type spec struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	flag.Parse()
	if err := run(*specPath, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ab_stats:", err)
		os.Exit(1)
	}
}

func run(specPath string, in io.Reader, out io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	runs := map[string][]result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		side, body, ok := strings.Cut(sc.Text(), " ")
		if !ok || (side != "base" && side != "head") {
			return fmt.Errorf("line %d: want \"base JSON\" or \"head JSON\"", n)
		}
		var r result
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		if !r.Correct || r.Failed != 0 {
			return fmt.Errorf("line %d: %s run not correct (correct=%t failed=%d)", n, side, r.Correct, r.Failed)
		}
		runs[side] = append(runs[side], r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	base, head := runs["base"], runs["head"]
	if len(base) == 0 || len(base) != len(head) {
		return fmt.Errorf("need equally many base and head runs, have %d and %d", len(base), len(head))
	}

	fmt.Fprintf(out, "%-12s %-30s %-30s %-9s %s\n", "metric", "base median (q1-q3)", "head median (q1-q3)", "head wins", "head/base median [95% CI]")
	for _, m := range sp.EndToEnd {
		b, h := values(base, m.Name), values(head, m.Name)
		if b == nil || h == nil {
			fmt.Fprintf(out, "%-12s (not reported)\n", m.Name)
			continue
		}
		wins := 0
		ratios := make([]float64, len(b))
		for i := range b {
			if (m.Better == "higher" && h[i] > b[i]) || (m.Better == "lower" && h[i] < b[i]) {
				wins++
			}
			ratios[i] = h[i] / b[i]
		}
		lo, hi := bootstrap(ratios)
		verdict := "no measurable change"
		if len(ratios) < minPairs {
			verdict = "too few pairs to judge"
		} else if lo > 1 || hi < 1 {
			verdict = "worse"
			if (lo > 1) == (m.Better == "higher") {
				verdict = "better"
			}
		}
		fmt.Fprintf(out, "%-12s %-30s %-30s %-9s %.3f [%.3f, %.3f] %s\n", m.Name,
			summary(b), summary(h), fmt.Sprintf("%d/%d", wins, len(b)), quantile(ratios, 0.5), lo, hi, verdict)
	}
	return nil
}

// values returns the metric across runs, or nil if a run lacks it.
func values(runs []result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		out[i] = m.Value
	}
	return out
}

func summary(xs []float64) string {
	return fmt.Sprintf("%s (%s-%s)", num(quantile(xs, 0.5)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
}

// num prints x to four significant digits, or as a whole number from
// 1 000 up (never with an exponent).
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// quantile is the linearly interpolated p-quantile (R's type 7).
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	h := p * float64(len(s)-1)
	lo := math.Floor(h)
	if int(lo)+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[int(lo)] + (h-lo)*(s[int(lo)+1]-s[int(lo)])
}

// bootstrap returns the percentile-bootstrap 95% interval of the
// median of xs, resampling with a fixed seed.
func bootstrap(xs []float64) (lo, hi float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	meds := make([]float64, resamples)
	sample := make([]float64, len(xs))
	for k := range meds {
		for i := range sample {
			sample[i] = xs[rng.IntN(len(xs))]
		}
		meds[k] = quantile(sample, 0.5)
	}
	return quantile(meds, 0.025), quantile(meds, 0.975)
}
