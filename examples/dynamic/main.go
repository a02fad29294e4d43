// Dynamic demonstrates the paper's §7 future work implemented here:
// a system where tasks are added and removed at runtime, with
// admission control re-run and detectors re-derived on every change.
// A task that would break feasibility is rejected; an admitted faulty
// task is contained by its freshly computed detector.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func main() {
	base, err := taskset.New(
		taskset.Task{Name: "steady", Priority: 10, Period: vtime.Millis(100), Deadline: vtime.Millis(100), Cost: vtime.Millis(25)},
	)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Tasks:     base,
		Treatment: detect.Stop,
		// The newcomer "bursty" systematically overruns by 60 ms.
		Faults:          fault.Plan{"bursty": fault.OverrunEvery{K: 1, Extra: vtime.Millis(60)}},
		Horizon:         vtime.Millis(3000),
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0: start with %d task(s); equitable allowance %v\n",
		base.Len(), sys.Allowance().Equitable())

	res, err := sys.RunWith(func(e *engine.Engine, sup *detect.Supervisor) {
		e.Schedule(vtime.AtMillis(400), func(now vtime.Time) {
			// Admissible addition.
			t := taskset.Task{Name: "bursty", Priority: 5, Period: vtime.Millis(200), Deadline: vtime.Millis(200), Cost: vtime.Millis(30)}
			if err := sup.AdmitTask(e, t); err != nil {
				fmt.Printf("t=%v: ADMIT %s rejected: %v\n", now, t.Name, err)
				return
			}
			fmt.Printf("t=%v: admitted %s; allowance now %v\n", now, t.Name, sup.Table().Equitable())
		})
		e.Schedule(vtime.AtMillis(600), func(now vtime.Time) {
			// Inadmissible addition: would need 80 ms every 100 ms on
			// top of the existing load.
			t := taskset.Task{Name: "greedy", Priority: 4, Period: vtime.Millis(100), Deadline: vtime.Millis(100), Cost: vtime.Millis(80)}
			if err := sup.AdmitTask(e, t); err != nil {
				fmt.Printf("t=%v: admission control rejected %s (as it must): %v\n", now, t.Name, err)
			} else {
				fmt.Printf("t=%v: BUG: %s admitted\n", now, t.Name)
			}
		})
		e.Schedule(vtime.AtMillis(2000), func(now vtime.Time) {
			if err := sup.RemoveTask(e, "bursty"); err != nil {
				fmt.Printf("t=%v: remove failed: %v\n", now, err)
				return
			}
			fmt.Printf("t=%v: removed bursty; allowance back to %v\n", now, sup.Table().Equitable())
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nOutcome:")
	fmt.Print(res.Report.Render())
	s := res.Report.Tasks["steady"]
	fmt.Printf("\nsteady failed %d of %d jobs — the detectors confined every fault of the\n", s.Failed, s.Released)
	fmt.Println("dynamically admitted task (all its overruns were stopped at its WCRT).")
}
