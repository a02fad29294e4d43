// Aperiodic demonstrates the paper's §7 outlook implemented here: an
// aperiodic workload served by a polling server that admission
// control treats as just another periodic task, so the paper's
// detectors and allowances protect the periodic tasks from any
// aperiodic burst — and from a buggy server that exceeds its declared
// capacity.
//
//	go run ./examples/aperiodic
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/aperiodic"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func main() {
	periodic, err := taskset.New(
		taskset.Task{Name: "control", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(30)},
	)
	if err != nil {
		log.Fatal(err)
	}
	server := &aperiodic.PollingServer{
		Task: taskset.Task{Name: "server", Priority: 5, Period: ms(50), Deadline: ms(50), Cost: ms(10)},
		Requests: []aperiodic.Request{
			{ID: "cmd-1", Arrival: vtime.AtMillis(10), Cost: ms(8), Deadline: ms(100)},
			{ID: "cmd-2", Arrival: vtime.AtMillis(60), Cost: ms(15), Deadline: ms(250)},
			{ID: "burst-a", Arrival: vtime.AtMillis(300), Cost: ms(20)},
			{ID: "burst-b", Arrival: vtime.AtMillis(300), Cost: ms(20)},
			{ID: "burst-c", Arrival: vtime.AtMillis(300), Cost: ms(20)},
		},
	}

	// The server enters admission control as a plain periodic task.
	set, _, err := server.Attach(periodic, nil)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := analysis.Feasible(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Admission control over {control, server}:")
	fmt.Print(rep.Render(set))

	recorded, served, err := server.Run(periodic, nil, ms(1000))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nAperiodic requests (FIFO through the 10ms/50ms server):")
	fmt.Printf("%-8s %9s %7s %11s %10s %6s\n", "id", "arrival", "cost", "completion", "response", "soft")
	for _, r := range served {
		soft := "-"
		if r.Deadline > 0 {
			if r.MissedSoftDeadline() {
				soft = "MISS"
			} else if r.Done {
				soft = "ok"
			}
		}
		comp := "unserved"
		respStr := "-"
		if r.Done {
			comp = r.Completion.String()
			respStr = r.Response.String()
		}
		fmt.Printf("%-8s %9v %7v %11s %10s %6s\n", r.ID, r.Arrival, r.Cost, comp, respStr, soft)
	}

	missed := metrics.Analyze(recorded).Tasks["control"].Failed
	fmt.Printf("\nperiodic task deadline misses during the burst: %d (the capacity cap\n", missed)
	fmt.Println("means no aperiodic load can exceed what admission control budgeted).")
}
