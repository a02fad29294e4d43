package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// dispatchCase is one seeded multiprocessor run pinned by the SHA-256
// of its encoded trace.
type dispatchCase struct {
	name      string
	cpus      int
	tasks     int
	util      float64
	seed      uint64
	edf       bool
	partition bool           // pin task i to core i mod cpus
	ctxSwitch vtime.Duration // charged at every dispatch
	stops     bool           // stop some jobs mid-execution via StopJob
	want      string
}

// dispatchCases pin global dispatch (and, for contrast, one
// partitioned and one uniprocessor run) byte for byte. Periods are
// harmonic multiples of 10 ms on a 1 ms cost grid, so completions,
// releases, deadline checks and stop callbacks coincide constantly:
// the same-instant order of those events is what an incremental
// dispatcher is most likely to get wrong. The hashes were captured
// before global dispatch kept its running set incrementally.
var dispatchCases = []dispatchCase{
	{name: "fp-c2", cpus: 2, tasks: 8, util: 1.7, seed: 1,
		want: "6e2cab532c03ae1e2423fc493bdffbbbcfcd391d2360c0602d9db0b45feb56e3"},
	{name: "fp-c4", cpus: 4, tasks: 16, util: 3.3, seed: 2,
		want: "0d4816b546d8ffa29da035d9f05cab339bda3ada15b7673c599e8d581620dcdd"},
	{name: "fp-c8", cpus: 8, tasks: 32, util: 6.6, seed: 3,
		want: "943d78cbfd2f3d0a8c806b1b95aa0c132bb5c9d110ace1ce2dd267473ad6c67c"},
	{name: "edf-c2", cpus: 2, tasks: 8, util: 1.8, seed: 4, edf: true,
		want: "c8683ba69d61b8b55f4bab2c0c9256aeb450b14a354c1dc30ead9ffd6d6415d0"},
	{name: "edf-c4", cpus: 4, tasks: 16, util: 3.6, seed: 5, edf: true,
		want: "b2fcef9eec346ab0437465f169d77b18756d21030bbd6c1cf5dd6c6b6e3324cd"},
	{name: "edf-c8", cpus: 8, tasks: 32, util: 7.2, seed: 6, edf: true,
		want: "bde5c1635d4c7a3a4c3f6c6309eadbdcf7315f547bcab28587175bfee7959084"},
	{name: "fp-c4-overload", cpus: 4, tasks: 12, util: 4.4, seed: 7,
		want: "34060baff2b6d8313299de337dcbbf354d0c77686294cff92f11f1245c786bda"},
	{name: "fp-c4-ctxswitch", cpus: 4, tasks: 16, util: 3.2, seed: 8, ctxSwitch: 100 * vtime.Microsecond,
		want: "eef9d159ed88ab2dd1ab1b5bab4d6349c06fe79b549dc8fecf7ffe733778cee8"},
	{name: "edf-c4-ctxswitch", cpus: 4, tasks: 16, util: 3.4, seed: 9, edf: true, ctxSwitch: 250 * vtime.Microsecond,
		want: "861d3bf609f354d6ff707601f07363848e2425eef9e8c56a4127dd356a6a5173"},
	{name: "fp-c4-stops", cpus: 4, tasks: 16, util: 3.5, seed: 10, stops: true,
		want: "ea02e6b1ed3908d6067bca2e4436037456952c3f37332716f6546115236f6071"},
	{name: "edf-c2-stops", cpus: 2, tasks: 8, util: 1.9, seed: 11, edf: true, stops: true,
		want: "55435213c290927b1b1f562efcfb993d3f6d8e65b1d35ae2ce1005fb60e31b82"},
	{name: "fp-c4-partitioned", cpus: 4, tasks: 16, util: 3.0, seed: 12, partition: true,
		want: "f4dae1e4d357a22c0235649b1e7a349849ce62d59cf3dab93d89068a2b5b303a"},
	{name: "fp-c1-stops", cpus: 1, tasks: 6, util: 0.95, seed: 13, stops: true,
		want: "6310c1a9cd09bf6eafd3915ac13744f4c79fc4bdf49bf967048f9763c9c3f14c"},
}

// harmonicSet draws n tasks with UUniFast utilizations summing to
// util, periods 10·2^k ms (k in 0..4), costs rounded up to 1 ms and
// rate-monotonic priorities (ties by index). Every fourth task gets a
// constrained deadline of 3/4 of its period when its cost fits.
func harmonicSet(t *testing.T, n int, util float64, seed uint64) *taskset.Set {
	t.Helper()
	g := taskset.NewGenerator(seed)
	us := g.UUniFast(n, util)
	rng := taskset.NewRand(seed ^ 0x9e3779b97f4a7c15)
	tasks := make([]taskset.Task, n)
	for i := range tasks {
		period := vtime.Millis(10 << rng.Intn(5))
		cost := vtime.Duration(float64(period) * us[i]).Ceil(vtime.Millisecond)
		if cost < vtime.Millisecond {
			cost = vtime.Millisecond
		}
		if cost > period {
			cost = period
		}
		deadline := period
		if i%4 == 3 && cost <= period*3/4 {
			deadline = period * 3 / 4
		}
		tasks[i] = taskset.Task{Name: fmt.Sprintf("t%d", i+1), Period: period, Deadline: deadline, Cost: cost}
	}
	for i := range tasks {
		rank := 0
		for j := range tasks {
			if tasks[j].Period < tasks[i].Period || (tasks[j].Period == tasks[i].Period && j < i) {
				rank++
			}
		}
		tasks[i].Priority = n - rank
	}
	set, err := taskset.New(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// runDispatchCase runs one case for two simulated seconds and returns
// its trace.
func runDispatchCase(t *testing.T, tc dispatchCase) *trace.Log {
	t.Helper()
	set := harmonicSet(t, tc.tasks, tc.util, tc.seed)
	cfg := engine.Config{
		Tasks: set,
		// Every third job of t1 overruns by 4 ms: misses and backlog.
		Faults:        fault.Plan{"t1": fault.OverrunEvery{First: 1, K: 3, Extra: vtime.Millis(4)}},
		End:           vtime.AtMillis(2000),
		CPUs:          tc.cpus,
		ContextSwitch: tc.ctxSwitch,
		StopPoll:      2 * vtime.Millisecond,
	}
	if tc.edf {
		cfg.Policy = baselines.EDF{}
	}
	if tc.partition {
		cfg.Partition = make([]int, tc.tasks)
		for i := range cfg.Partition {
			cfg.Partition[i] = i % tc.cpus
		}
	}
	if tc.stops {
		// Every other job of every third task gets a stop request 3 ms
		// after its release; with a 2 ms poll a job running then keeps
		// running, and only its predicted completion moves earlier.
		cfg.Hooks.OnRelease = func(e *engine.Engine, j *engine.Job) {
			name, q := j.TaskName(), j.Q
			if e.TaskID(name)%3 != 0 || q%2 != 0 {
				return
			}
			e.Schedule(j.Release.Add(3*vtime.Millisecond), func(now vtime.Time) { e.StopJob(name, q, now) })
		}
	}
	log := trace.NewLog()
	cfg.Sink = log
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return log
}

// TestDispatchTraceHashes pins the seeded runs of dispatchCases, and
// checks that each run exercises what its case is there for: global
// runs migrate, stop cases stop a job while it runs, and an
// overloaded case misses deadlines.
func TestDispatchTraceHashes(t *testing.T) {
	for _, tc := range dispatchCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			log := runDispatchCase(t, tc)
			sum := sha256.Sum256([]byte(log.EncodeString()))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("trace SHA-256 = %s, want %s", got, tc.want)
			}
			n := map[trace.Kind]int{}
			running := map[string]bool{}
			stopsWhileRunning := 0
			for _, ev := range log.Events() {
				n[ev.Kind]++
				key := fmt.Sprintf("%s#%d", ev.Task, ev.Job)
				switch ev.Kind {
				case trace.JobBegin, trace.JobResume, trace.JobMigrate:
					running[key] = true
				case trace.JobPreempt, trace.JobEnd, trace.JobStopped:
					delete(running, key)
				case trace.StopRequest:
					if running[key] {
						stopsWhileRunning++
					}
				}
			}
			if tc.cpus > 1 && !tc.partition && n[trace.JobMigrate] == 0 {
				t.Error("global run never migrated")
			}
			if tc.partition && n[trace.JobMigrate] != 0 {
				t.Errorf("partitioned run migrated %d times", n[trace.JobMigrate])
			}
			if tc.stops && (stopsWhileRunning == 0 || n[trace.JobStopped] == 0) {
				t.Errorf("stop case: %d stop requests on running jobs, %d stopped jobs", stopsWhileRunning, n[trace.JobStopped])
			}
			if tc.util > float64(tc.cpus) && n[trace.DeadlineMiss] == 0 {
				t.Error("overloaded run never missed a deadline")
			}
		})
	}
}
