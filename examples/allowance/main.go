// Allowance walks through the paper's §4 tolerance computations on
// the Table 2 system: the equitable allowance found by binary search,
// the Table 3 shifted response times, the per-task maximum overrun
// behind the system treatment, and a sweep showing how the allowance
// shrinks as the system is loaded.
//
//	go run ./examples/allowance
package main

import (
	"fmt"
	"log"

	"repro/internal/allowance"
	"repro/internal/experiments"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func main() {
	rows2, err := experiments.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderTable2(rows2))
	rows3, err := experiments.Table3()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderTable3(rows3))

	// How the equitable allowance responds to load: inflate every
	// cost of the Table 2 system step by step and recompute.
	fmt.Println("Allowance vs load (Table 2 system, all costs inflated):")
	fmt.Printf("%10s %8s %12s\n", "extra C", "U", "allowance")
	base := experiments.Table2Set()
	for extra := int64(0); ; extra += 2 {
		s := base.WithCostDelta(vtime.Millis(extra))
		a, err := allowance.Equitable(s, 0)
		if err != nil {
			fmt.Printf("%10s %8.3f %12s\n", vtime.Millis(extra), s.Utilization(), "(infeasible)")
			break
		}
		fmt.Printf("%10s %8.3f %12v\n", vtime.Millis(extra), s.Utilization(), a)
		if a == 0 {
			break
		}
	}

	// The §4.3 view: how much may each task alone overrun?
	fmt.Println("\nPer-task maximum overrun (system allowance):")
	maxo, err := allowance.System(base, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, t := range base.Tasks {
		fmt.Printf("  %-6s may overrun by %v before some deadline breaks\n", t.Name, maxo[i])
	}

	// A tighter two-task example where the binding constraint moves.
	tight := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: vtime.Millis(50), Deadline: vtime.Millis(25), Cost: vtime.Millis(10)},
		taskset.Task{Name: "b", Priority: 1, Period: vtime.Millis(100), Deadline: vtime.Millis(60), Cost: vtime.Millis(20)},
	)
	tab, err := allowance.Compute(tight, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTwo-task example:")
	for i, t := range tight.Tasks {
		fmt.Printf("  %-3s WCRT=%v  WCRT+A=%v  maxOverrun=%v\n",
			t.Name, tab.WCRT[i], tab.EquitableWCRT()[i], tab.MaxOverrun()[i])
	}
	fmt.Printf("  equitable allowance: %v\n", tab.Equitable())
}
