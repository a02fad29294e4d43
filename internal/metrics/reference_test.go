package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// analyzeReference is the map-based Analyze that the one-pass version
// replaced, kept as the oracle it must match: a (task, q)-keyed map of
// job pointers, Jobs in first-appearance order, summaries in job order.
func analyzeReference(l *trace.Log) *Report {
	type key struct {
		task string
		q    int64
	}
	jobs := map[key]*JobRecord{}
	var order []key
	get := func(k key) *JobRecord {
		j, ok := jobs[k]
		if !ok {
			j = &JobRecord{Task: k.task, Q: k.q}
			jobs[k] = j
			order = append(order, k)
		}
		return j
	}
	for e := range l.All() {
		if e.Task == "" || e.Job < 0 {
			continue
		}
		k := key{e.Task, e.Job}
		switch e.Kind {
		case trace.JobRelease:
			j := get(k)
			j.Release = e.At
		case trace.JobBegin:
			j := get(k)
			j.Begin = e.At
		case trace.JobEnd:
			j := get(k)
			j.End = e.At
			j.ended = true
		case trace.JobStopped:
			j := get(k)
			j.End = e.At
			j.ended = true
			j.Stopped = true
		case trace.DeadlineMiss:
			get(k).MissedDeadline = true
		case trace.FaultDetected:
			get(k).Detected = true
		case trace.AllowanceGrant:
			get(k).Granted = vtime.Duration(e.Arg)
		}
	}
	rep := &Report{Tasks: map[string]*TaskSummary{}}
	for _, k := range order {
		j := jobs[k]
		rep.Jobs = append(rep.Jobs, *j)
		s, ok := rep.Tasks[k.task]
		if !ok {
			s = &TaskSummary{Task: k.task}
			rep.Tasks[k.task] = s
		}
		s.Released++
		if j.ended && !j.Stopped {
			s.Finished++
		}
		if j.Stopped {
			s.Stopped++
		}
		if j.MissedDeadline {
			s.Missed++
		}
		if j.Failed() {
			s.Failed++
		}
		if j.Detected {
			s.Detected++
		}
		if j.ended {
			r := j.Response()
			if r > s.MaxResponse {
				s.MaxResponse = r
			}
			if s.respN == 0 || r < s.MinResponse {
				s.MinResponse = r
			}
			s.respSum += r
			s.respN++
		}
	}
	for _, s := range rep.Tasks {
		if s.respN > 0 {
			s.MeanResponse = s.respSum / vtime.Duration(s.respN)
		}
	}
	return rep
}

// percentileReference is the scanning nearest-rank percentile over a
// reference report's jobs.
func percentileReference(r *Report, task string, p float64) (vtime.Duration, bool) {
	if p <= 0 || p > 100 {
		return 0, false
	}
	var resp []vtime.Duration
	for _, j := range r.Jobs {
		if j.Task == task && j.ended && !j.Failed() {
			resp = append(resp, j.Response())
		}
	}
	if len(resp) == 0 {
		return 0, false
	}
	sort.Slice(resp, func(i, j int) bool { return resp[i] < resp[j] })
	rank := int(math.Ceil(p / 100 * float64(len(resp))))
	if rank < 1 {
		rank = 1
	}
	return resp[rank-1], true
}

// referencePercentiles are the p values every comparison queries,
// including both rejected edges of (0, 100].
var referencePercentiles = []float64{-1, 0, 0.0001, 1, 25, 50, 90, 99, 99.9, 100, 101}

// checkAgainstReference requires Analyze to equal analyzeReference on
// l. Every log grows through the same chunk sizes, so a log longer
// than its first chunk crosses chunk boundaries as it is.
func checkAgainstReference(t *testing.T, name string, l *trace.Log) {
	t.Helper()
	got, want := Analyze(l), analyzeReference(l)
	if (got.Jobs == nil) != (want.Jobs == nil) || len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs (nil %t), reference %d (nil %t)", name,
			len(got.Jobs), got.Jobs == nil, len(want.Jobs), want.Jobs == nil)
	}
	type key struct {
		task string
		q    int64
	}
	recorded := make(map[key]JobRecord, len(want.Jobs))
	maxQ := map[string]int64{}
	for i, w := range want.Jobs {
		g := got.Jobs[i]
		if g != w || g.Response() != w.Response() || g.Failed() != w.Failed() {
			t.Fatalf("%s: job %d = %+v, reference %+v", name, i, g, w)
		}
		recorded[key{w.Task, w.Q}] = w
		if w.Q > maxQ[w.Task] {
			maxQ[w.Task] = w.Q
		}
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d task summaries, reference %d", name, len(got.Tasks), len(want.Tasks))
	}
	tasks := []string{"ghost", ""}
	for task, w := range want.Tasks {
		tasks = append(tasks, task)
		if g, ok := got.Tasks[task]; !ok || *g != *w {
			t.Fatalf("%s: task %q summary = %+v, reference %+v", name, task, g, *w)
		}
	}
	sort.Strings(tasks)
	for _, w := range want.Jobs {
		if g, ok := got.Job(w.Task, w.Q); !ok || g != w {
			t.Fatalf("%s: Job(%q, %d) = %+v, %t; want %+v", name, w.Task, w.Q, g, ok, w)
		}
	}
	for _, task := range tasks {
		probes := []int64{-1, 0, 1, 63, 64, 65, 1 << 40, 1<<40 + 1, maxQ[task] + 1, math.MaxInt64}
		for _, q := range probes {
			w, wok := recorded[key{task, q}]
			if g, ok := got.Job(task, q); ok != wok || g != w {
				t.Fatalf("%s: Job(%q, %d) = %+v, %t; reference %+v, %t", name, task, q, g, ok, w, wok)
			}
		}
		for _, p := range referencePercentiles {
			g, gok := got.ResponsePercentile(task, p)
			w, wok := percentileReference(want, task, p)
			if g != w || gok != wok {
				t.Fatalf("%s: ResponsePercentile(%q, %v) = %v, %t; reference %v, %t", name, task, p, g, gok, w, wok)
			}
		}
	}
}

// randomStream is a pseudo-random retained stream of three tasks with
// mixed outcomes: stops, misses that still finish, clean finishes.
func randomStream(seed int64, jobs int64) *trace.Log {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLog()
	tasks := []string{"a", "b", "c"}
	for q := int64(0); q < jobs; q++ {
		for _, task := range tasks {
			rel := vtime.AtMillis(q * 10)
			l.Append(trace.Event{At: rel, Kind: trace.JobRelease, Task: task, Job: q})
			resp := vtime.Millis(1 + rng.Int63n(20))
			switch rng.Intn(5) {
			case 0: // stopped
				l.Append(trace.Event{At: rel.Add(resp), Kind: trace.JobStopped, Task: task, Job: q})
			case 1: // missed then finished
				l.Append(trace.Event{At: rel.Add(resp / 2), Kind: trace.DeadlineMiss, Task: task, Job: q})
				l.Append(trace.Event{At: rel.Add(resp), Kind: trace.JobEnd, Task: task, Job: q})
			default: // clean finish
				l.Append(trace.Event{At: rel.Add(resp), Kind: trace.JobEnd, Task: task, Job: q})
			}
		}
	}
	return l
}

// randomIndexLog is a pseudo-random decoded-style log whose job
// indices straddle a task's dense window: a running counter, jumps
// just past it, revisits of earlier indices, negatives and huge ones,
// with every job event kind, and one Analyze ignores, in any order.
func randomIndexLog(seed int64, events int) *trace.Log {
	rng := rand.New(rand.NewSource(seed))
	kinds := []trace.Kind{trace.JobRelease, trace.JobBegin, trace.JobEnd, trace.JobStopped,
		trace.DeadlineMiss, trace.FaultDetected, trace.AllowanceGrant, trace.JobPreempt}
	tasks := []string{"a", "b"}
	next := map[string]int64{}
	var seen []int64
	l := trace.NewLog()
	for i := 0; i < events; i++ {
		task := tasks[rng.Intn(len(tasks))]
		var q int64
		switch r := rng.Intn(10); {
		case r < 4:
			q = next[task]
			next[task]++
		case r < 6:
			q = next[task] + 60 + rng.Int63n(20) // near the window's edge
		case r < 8 && len(seen) > 0:
			q = seen[rng.Intn(len(seen))]
		case r < 9:
			q = rng.Int63n(10) - 5
		default:
			q = 1<<40 + rng.Int63n(4)
		}
		seen = append(seen, q)
		l.Append(trace.Event{At: vtime.Time(i), Kind: kinds[rng.Intn(len(kinds))], Task: task, Job: q, Arg: rng.Int63n(9)})
	}
	return l
}

// craftedLogs are the job-index shapes an engine never records but a
// decoded log may carry.
func craftedLogs() map[string]string {
	return map[string]string{
		"out-of-order": "t=0 release a 3\nt=0 release b 1\nt=1 release a 1\nt=2 end a 3\n" +
			"t=2 release a 2\nt=3 end a 1\nt=4 release b 0\nt=5 end b 1\nt=6 end a 2\nt=7 release a 0\n",
		"duplicated": "t=0 release a 0\nt=1 release a 0\nt=2 begin a 0\nt=3 begin a 0\n" +
			"t=4 end a 0\nt=6 end a 0\nt=7 stopped a 0\nt=8 grant a 0 arg=5\nt=9 grant a 0 arg=3\n",
		"negative": "t=0 release a -1\nt=1 end a -1\nt=2 release a 0\nt=3 miss a -5\nt=4 end a 0\nt=5 release - 0\n",
		"sparse": "t=0 release a 0\nt=1 end a 0\nt=2 release a 1000\nt=3 end a 1000\n" +
			"t=4 release a 5000\nt=5 release a 1048576\nt=6 end a 1048576\nt=7 release a 1\nt=8 end a 1\n" +
			"t=9 release a 67\nt=10 end a 5000\nt=11 release a 200\nt=12 end a 67\n",
		// 68 is past the dense window when it arrives, and 69 then
		// grows the window over it: 68's later events must still
		// find the sparse record.
		"sparse-then-covered": "t=0 release a 0\nt=1 release a 68\nt=2 release a 69\nt=3 end a 68\n",
		"huge": "t=0 release a 1099511627776\nt=5 end a 1099511627776\nt=6 release a 0\nt=9 end a 0\n" +
			"t=10 release b 9223372036854775807\nt=11 miss b 9223372036854775807\nt=12 release a 1099511627777\n",
		"huge-first-then-dense": "t=0 release a 1099511627776\nt=1 release a 0\nt=2 release a 1\nt=3 end a 1\n" +
			"t=4 end a 0\nt=5 release a 2\nt=6 stopped a 2\n",
		"no-release": "t=0 begin a 0\nt=4 end a 0\nt=5 miss a 1\nt=6 fault a 1\nt=7 stopped a 1\n" +
			"t=8 grant b 3 arg=9\nt=9 end b 4\nt=10 begin c 0\n",
		"detail-only": "t=0 preempt a 0\nt=1 resume a 0\nt=2 detector a 3\nt=3 stopreq a 3\n" +
			"t=4 migrate a 0 arg=1\nt=5 addtask a -1\nt=6 rmtask - -1\n",
		"empty": "",
	}
}

// TestAnalyzeMatchesReference: the one-pass Analyze reproduces the
// map-based reference on handcrafted logs, a pseudo-random stream,
// pseudo-random job indices around each task's dense window, and
// decoded logs with out-of-order, duplicated, negative, sparse and
// huge job indices and with jobs that have no release.
func TestAnalyzeMatchesReference(t *testing.T) {
	checkAgainstReference(t, "buildLog", buildLog())
	checkAgainstReference(t, "random stream", randomStream(42, 2000))
	for seed := int64(1); seed <= 3; seed++ {
		checkAgainstReference(t, fmt.Sprintf("random stream %d", seed), randomStream(seed, 300))
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkAgainstReference(t, fmt.Sprintf("random indices %d", seed), randomIndexLog(seed, 300))
	}
	names := make([]string, 0, len(craftedLogs()))
	for name := range craftedLogs() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l, err := trace.DecodeString(craftedLogs()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstReference(t, name, l)
	}
}

// TestAnalyzeHugeJobIndexMemory pins the memory bound: a job index far
// beyond the task's job count goes to the sparse map, so Analyze
// allocates per event, never per q.
func TestAnalyzeHugeJobIndexMemory(t *testing.T) {
	var text string
	const jobs = 512
	for i := int64(0); i < jobs; i++ {
		q := i << 40 // every index but the first is sparse
		text += fmt.Sprintf("t=%d release a %d\nt=%d end a %d\n", 2*i, q, 2*i+1, q)
	}
	l, err := trace.DecodeString(text)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := Analyze(l)
	runtime.ReadMemStats(&after)
	if rep.Tasks["a"].Released != jobs {
		t.Fatalf("released = %d, want %d", rep.Tasks["a"].Released, jobs)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(l.Len())
	if perEvent > 256 {
		t.Errorf("Analyze allocated %.0f bytes per event of a log with job indices up to %d; want O(events)", perEvent, int64(jobs-1)<<40)
	}
}

// FuzzAnalyze: any text the trace decoder accepts analyzes exactly as
// the reference does.
func FuzzAnalyze(f *testing.F) {
	f.Add("t=0 release a 1099511627776\nt=5 end a 1099511627776\nt=6 release a 0\n")
	f.Add("t=0 release a 0\nt=1 release a 68\nt=2 release a 69\nt=3 end a 68\n")
	f.Add(buildLog().EncodeString())
	for _, text := range craftedLogs() {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := trace.DecodeString(s)
		if err != nil {
			return
		}
		checkAgainstReference(t, "fuzzed", l)
	})
}
