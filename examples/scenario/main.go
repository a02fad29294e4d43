// Scenario demonstrates the public sim facade: the same figure-5 run
// written once as a sim.Scenario literal and once loaded from its
// declarative JSON file, producing identical traces (the program
// exits non-zero if they differ) — then an overload variant that
// swaps the scheduler by name only.
//
//	go run ./examples/scenario
package main

import (
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	// The scenario as a Go literal.
	built, err := sim.FromScenario(sim.Scenario{
		Name: "figure5",
		Tasks: []sim.Task{
			{Name: "tau1", Priority: 20, Period: sim.Millis(200), Deadline: sim.Millis(70), Cost: sim.Millis(29)},
			{Name: "tau2", Priority: 18, Period: sim.Millis(250), Deadline: sim.Millis(120), Cost: sim.Millis(29)},
			{Name: "tau3", Priority: 16, Period: sim.Millis(1500), Deadline: sim.Millis(120), Cost: sim.Millis(29), Offset: sim.Millis(1000)},
		},
		Treatment:       "stop",
		Faults:          []sim.Fault{{Task: "tau1", Kind: sim.FaultOverrunAt, Job: 5, Extra: sim.Millis(40)}},
		Horizon:         sim.Millis(1500),
		TimerResolution: sim.Millis(10),
	})
	if err != nil {
		log.Fatal(err)
	}
	builtRes, err := built.Run()
	if err != nil {
		log.Fatal(err)
	}

	// The same scenario decoded from its JSON file.
	loaded, err := sim.Load("testdata/scenarios/figure5.json")
	if err != nil {
		log.Fatal(err)
	}
	loadedRes, err := loaded.Run()
	if err != nil {
		log.Fatal(err)
	}

	identical := builtRes.Log.EncodeString() == loadedRes.Log.EncodeString()
	fmt.Println("figure-5 scenario, literal vs loaded:")
	fmt.Printf("  identical traces: %v\n", identical)
	if !identical {
		log.Fatal("the literal and the loaded scenario traced differently")
	}
	fmt.Printf("  detections=%d success=%.4f\n\n", loadedRes.Detections, loadedRes.SuccessRatio())
	fmt.Print(loadedRes.Summary())

	// Swapping the scheduler is a name change, not a code change.
	fmt.Printf("\nregistered policies: %v\n", sim.Policies())
	overload, err := sim.Load("testdata/scenarios/edf-overload.json")
	if err != nil {
		log.Fatal(err)
	}
	overloadRes, err := overload.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edf under overload (admission skipped): success=%.4f\n", overloadRes.SuccessRatio())
}
