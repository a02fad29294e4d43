// Quickstart: define a periodic task system, run the paper's
// admission control, execute it with fault detectors under the stop
// treatment, and print the resulting schedule and summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func main() {
	// The paper's Table 2 system: three periodic tasks, RTSJ
	// priorities (larger = higher), milliseconds.
	tasks, err := taskset.New(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(200), Deadline: vtime.Millis(70), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: vtime.Millis(250), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: vtime.Millis(1500), Deadline: vtime.Millis(120), Cost: vtime.Millis(29), Offset: vtime.Millis(1000)},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Build the system: admission control runs here and rejects
	// infeasible sets. Inject the §6 fault: τ1's job 5 overruns by
	// 40 ms; the stop treatment contains it.
	sys, err := core.NewSystem(core.Config{
		Tasks:           tasks,
		Treatment:       detect.Stop,
		Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: vtime.Millis(40)}},
		Horizon:         vtime.Millis(1500),
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Admission control (exact response-time analysis):")
	fmt.Print(sys.Admission().Render(tasks))
	fmt.Printf("\nEquitable allowance: %v per task; max single-task overrun: %v\n\n",
		sys.Allowance().Equitable(), sys.Allowance().MaxOverrun()[0])

	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Execution around the faulty activation (t = 1000 ms):")
	fmt.Println(chart.ASCII(res.Log, chart.Options{
		From:   vtime.AtMillis(990),
		To:     vtime.AtMillis(1140),
		CellMS: 2,
		Tasks:  []string{"tau1", "tau2", "tau3"},
		WCRTMarks: map[string]vtime.Duration{
			"tau1": sys.Allowance().WCRT[0],
			"tau2": sys.Allowance().WCRT[1],
			"tau3": sys.Allowance().WCRT[2],
		},
	}, map[string]vtime.Duration{
		"tau1": vtime.Millis(70), "tau2": vtime.Millis(120), "tau3": vtime.Millis(120),
	}))
	fmt.Println(res.Report.Render())
	fmt.Printf("faults detected: %d\n", res.Detections)
}
