// Command rtfeas runs the paper's admission control on a task file:
// the Eq. 1 load test, the Figure 2 exact response-time analysis, and
// the §4 allowance computations (equitable allowance and per-task
// maximum overrun). This is the corrected feasibility implementation
// the paper contributes for the RTSJ.
//
// Usage:
//
//	rtfeas -tasks system.tasks [-granularity 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtfeas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tasksPath = fs.String("tasks", "", "task description file (required)")
		granMS    = fs.Int64("granularity", 1, "allowance search granularity in ms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *tasksPath == "" {
		fmt.Fprintln(stderr, "rtfeas: -tasks is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rtfeas:", err)
		return 1
	}
	f, err := os.Open(*tasksPath)
	if err != nil {
		return fail(err)
	}
	set, err := taskset.Parse(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	rep, err := analysis.Feasible(set)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, rep.Render(set))
	if !rep.Feasible {
		return 1
	}
	tab, err := allowance.Compute(set, vtime.Millis(*granMS))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nequitable allowance A = %v per task\n", tab.Equitable())
	fmt.Fprintf(stdout, "%-8s %14s %18s %12s\n", "task", "WCRT", "WCRT+allowances", "maxOverrun")
	for i, t := range set.Tasks {
		fmt.Fprintf(stdout, "%-8s %14v %18v %12v\n", t.Name, tab.WCRT[i], tab.EquitableWCRT()[i], tab.MaxOverrun()[i])
	}
	return 0
}
