package trace_test

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// engineTrace records a uniprocessor engine run of a seeded 10-task
// set (utilization 0.6, periods 10–100 ms, the shape of batch-long's
// uni-10 entries) over a 100 s horizon: about 108k events. Every event
// also goes to the returned slice.
func engineTrace(tb testing.TB) (*trace.Log, []trace.Event) {
	tb.Helper()
	g := taskset.NewGenerator(7)
	g.PeriodMin = 10 * vtime.Millisecond
	g.PeriodMax = 100 * vtime.Millisecond
	set, err := g.Generate(10, 0.6)
	if err != nil {
		tb.Fatal(err)
	}
	l := trace.NewLog()
	var flat sliceSink
	e, err := engine.New(engine.Config{Tasks: set, End: vtime.Time(100 * vtime.Second), Sink: trace.Tee(l, &flat)})
	if err != nil {
		tb.Fatal(err)
	}
	e.Run()
	return l, flat
}

type sliceSink []trace.Event

func (s *sliceSink) Append(e trace.Event) { *s = append(*s, e) }

// TestEngineTracePacked: a seeded engine trace decodes to exactly the
// events the engine recorded, and its chunks take at most 12 bytes per
// event, free room included (a trace.Event takes 48), so a change
// cannot quietly grow the retained log back.
func TestEngineTracePacked(t *testing.T) {
	l, flat := engineTrace(t)
	if l.Len() != len(flat) || l.Len() < 50_000 {
		t.Fatalf("log holds %d events, the engine recorded %d", l.Len(), len(flat))
	}
	i := 0
	for e := range l.All() {
		if e != flat[i] {
			t.Fatalf("event %d = %+v, recorded %+v", i, e, flat[i])
		}
		i++
	}
	per := float64(trace.ChunkBytes(l)) / float64(l.Len())
	t.Logf("%d events in %d bytes: %.2f bytes per event", l.Len(), trace.ChunkBytes(l), per)
	if per > 12 {
		t.Errorf("the log takes %.2f bytes per event, want at most 12", per)
	}
}

// reportPerEvent reports ns/event and B/event for a stopped benchmark
// whose every op handles events events, from its timed duration and
// the bytes allocated since before.
func reportPerEvent(b *testing.B, events int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}

// BenchmarkLogAppend records the engine trace into a fresh log per op:
// the retained path's recording stage, chunk growth included.
func BenchmarkLogAppend(b *testing.B) {
	_, flat := engineTrace(b)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := trace.NewLog()
		for _, e := range flat {
			l.Append(e)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(flat), &before)
}

// BenchmarkLogAll walks and decodes the engine trace once per op: the
// cost every whole-log reader (Analyze, Encode, the charts) pays per
// event before its own work.
func BenchmarkLogAll(b *testing.B) {
	l, _ := engineTrace(b)
	var sum vtime.Time
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := range l.All() {
			sum += e.At
		}
	}
	b.StopTimer()
	reportPerEvent(b, l.Len(), &before)
	if sum == 0 {
		b.Fatal("walked no events")
	}
}
