package metrics

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// BenchmarkAnalyze analyzes one recorded uniprocessor engine trace
// per op: a seeded 10-task set (utilization 0.6, periods 10–100 ms,
// the shape of batch-long's uni-10 entries) over a 100 s horizon,
// about 108k events. It reports ns/event and B/event, the retained
// path's analysis stage; BenchmarkLogAppend and BenchmarkLogAll in
// package trace time the same trace's recording and walk.
func BenchmarkAnalyze(b *testing.B) {
	g := taskset.NewGenerator(7)
	g.PeriodMin = 10 * vtime.Millisecond
	g.PeriodMax = 100 * vtime.Millisecond
	set, err := g.Generate(10, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	l := trace.NewLog()
	e, err := engine.New(engine.Config{Tasks: set, End: vtime.Time(100 * vtime.Second), Sink: l})
	if err != nil {
		b.Fatal(err)
	}
	e.Run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Analyze(l); len(rep.Jobs) == 0 {
			b.Fatal("analyzed no jobs")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(l.Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}
