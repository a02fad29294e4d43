// Command rtexp regenerates every table and figure of the paper's
// evaluation, plus the extension sweeps listed in the README's
// "Experiments" section.
// The artefacts come from the sim experiment registry, so listing and
// running them needs no per-experiment wiring here.
//
// Usage:
//
//	rtexp                 # run everything
//	rtexp -list           # enumerate the experiment registry and exit
//	rtexp -exp fig5       # one artefact: table1|table2|table3|fig3..fig7|x1|x2|x3|x4|x5|x9|x10
//	rtexp -svg charts/    # additionally write one SVG per figure
//	rtexp -parallel 8     # shard sweep simulations over 8 workers
//	rtexp -serial         # force the serial path (same output, one sim at a time)
//	rtexp -progress       # live done/total counts on stderr
//	rtexp -json           # machine-readable artefacts, one JSON object per line
//
// Simulation sweeps (x1..x5) run through internal/runner, so
// -parallel changes wall-clock time but never the output: results
// are collected in input order and every simulation draws from its
// own derived seed. Interrupting with ^C cancels the in-flight
// sweep cleanly. x9 is a closed-form analysis, not a simulation
// sweep; it runs inline and ignores the parallelism knobs. x10
// measures wall-clock engine throughput per point and therefore
// always runs serially (parallel points would contend for the CPU
// being measured).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiments"
	"repro/sim"
)

func main() {
	// Shard-worker mode first: the x12 sweep re-executes this binary
	// with sim.ShardWorkerEnv set, and the worker must serve scenario
	// jobs on stdin/stdout instead of running experiments.
	sim.RunShardWorkerIfEnv()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which    = fs.String("exp", "all", "artefact to regenerate")
		list     = fs.Bool("list", false, "list the experiment registry (name, description) and exit")
		svgDir   = fs.String("svg", "", "directory to write per-figure SVG charts")
		parallel = fs.Int("parallel", 0, "worker count for sweep simulations (0 = all cores)")
		serial   = fs.Bool("serial", false, "force serial execution (equivalent to -parallel 1)")
		progress = fs.Bool("progress", false, "report sweep progress on stderr")
		jsonOut  = fs.Bool("json", false, "emit artefacts as JSON lines instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range sim.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Description)
		}
		return 0
	}
	if *which != "all" {
		if _, ok := sim.LookupExperiment(*which); !ok {
			fmt.Fprintf(stderr, "rtexp: unknown experiment %q (see rtexp -list)\n", *which)
			return 2
		}
	}

	for _, e := range sim.Experiments() {
		if *which != "all" && *which != e.Name {
			continue
		}
		opt := sim.RunOptions{Parallelism: *parallel}
		if *serial {
			opt.Parallelism = 1
		}
		if *progress {
			name := e.Name
			opt.Progress = func(done, total int) {
				fmt.Fprintf(stderr, "\r%s: %d/%d", name, done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
		res, err := runOne(ctx, e, *svgDir, opt)
		if err != nil {
			if *progress {
				// The progress line ends in \r, not \n; leave it
				// intact instead of splicing the error over it.
				fmt.Fprintln(stderr)
			}
			fmt.Fprintf(stderr, "rtexp: %s: %v\n", e.Name, err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			if err := enc.Encode(struct {
				Artefact string `json:"artefact"`
				Data     any    `json:"data"`
			}{e.Name, res.Data}); err != nil {
				fmt.Fprintf(stderr, "rtexp: %s: encode: %v\n", e.Name, err)
				return 1
			}
		} else {
			fmt.Fprintln(stdout, res.Text)
		}
	}
	return 0
}

// runOne executes one registry entry. Figures honour -svg by running
// the figure artefact directly with the output directory; the text is
// identical to the registry entry's, plus the "wrote …" line.
func runOne(ctx context.Context, e sim.Experiment, svgDir string, opt sim.RunOptions) (sim.Result, error) {
	if svgDir != "" {
		if fig, ok := figureOf(e.Name); ok {
			outcome, text, err := experiments.FigureArtefact(fig, svgDir)
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Data: outcome, Text: text}, nil
		}
	}
	return e.Run(ctx, opt)
}

func figureOf(name string) (experiments.Figure, bool) {
	if !strings.HasPrefix(name, "fig") {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name, "fig%d", &n); err != nil {
		return 0, false
	}
	return experiments.Figure(n), true
}
