package rtsj

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestVMMatchesEngineOnRandomSets runs the same random periodic
// systems through the cost-driven discrete-event engine and through
// the goroutine-backed RTSJ VM, and requires identical job completion
// instants. The two substrates share no scheduling code, so
// agreement pins both against each other (and, transitively, against
// the response-time analysis the engine is already validated on).
func TestVMMatchesEngineOnRandomSets(t *testing.T) {
	gen := taskset.NewGenerator(31)
	horizon := vtime.Millis(2000)
	for trial := 0; trial < 20; trial++ {
		s, err := gen.Generate(4, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		// Engine run.
		engLog := trace.NewLog()
		e, err := engine.New(engine.Config{Tasks: s, End: vtime.Time(horizon), Sink: engLog})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		engRep := metrics.Analyze(engLog)

		// VM run of the same system.
		vm := NewVM(VMConfig{Horizon: horizon})
		for _, task := range s.Tasks {
			cost := task.Cost
			th := vm.NewRealtimeThread(task.Name,
				PriorityParameters{task.Priority},
				PeriodicParameters{Start: task.Offset, Period: task.Period, Cost: cost, Deadline: task.Deadline},
				func(th *RealtimeThread) {
					for th.WaitForNextPeriod() {
						th.Compute(cost)
					}
				})
			if err := th.Start(); err != nil {
				t.Fatal(err)
			}
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		vmRep := metrics.Analyze(vm.Log())

		for _, task := range s.Tasks {
			ej := engRep.Tasks[task.Name]
			vj := vmRep.Tasks[task.Name]
			if ej == nil || vj == nil {
				t.Fatalf("trial %d: task %s missing from a trace", trial, task.Name)
			}
			// Compare every completed job's end instant. The engine
			// may have released one more job right at the horizon.
			for _, je := range engRep.Jobs {
				if je.Task != task.Name || je.End == 0 {
					continue
				}
				jv, ok := vmRep.Job(task.Name, je.Q)
				if !ok {
					// The VM stops dispatching at the horizon; a job
					// completing exactly there may be absent. Only
					// tolerate that at the boundary.
					if je.End >= vtime.Time(horizon)-vtime.Time(vtime.Millis(1)) {
						continue
					}
					t.Fatalf("trial %d: %s#%d missing from VM trace (engine end %v)",
						trial, task.Name, je.Q, je.End)
				}
				if jv.End == 0 {
					if je.End >= vtime.Time(horizon)-vtime.Time(vtime.Millis(1)) {
						continue
					}
					t.Fatalf("trial %d: %s#%d unfinished in VM (engine end %v)",
						trial, task.Name, je.Q, je.End)
				}
				if jv.End != je.End {
					t.Fatalf("trial %d: %s#%d ends differ: engine %v vs vm %v",
						trial, task.Name, je.Q, je.End, jv.End)
				}
			}
		}
	}
}
