package scenario

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/aperiodic"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// Arrival source kinds accepted by the codec, mapping onto package
// taskset's sources.
const (
	// ArrivalPoisson releases jobs with independent exponential
	// inter-arrival gaps (taskset.PoissonSource).
	ArrivalPoisson = taskset.SourcePoisson
	// ArrivalMMPP is the two-state bursty Markov-modulated Poisson
	// process with fixed state dwells (taskset.MMPPSource).
	ArrivalMMPP = taskset.SourceMMPP
	// ArrivalTrace replays a recorded (release, cost, deadline) log
	// verbatim (taskset.TraceSource).
	ArrivalTrace = taskset.SourceTrace
)

// TraceRecord is the declarative form of one trace-source record: a
// release instant (offset from time zero), its execution cost, and an
// optional relative deadline (omitted = the target's nominal
// deadline).
type TraceRecord struct {
	Release  Duration `json:"release"`
	Cost     Duration `json:"cost"`
	Deadline Duration `json:"deadline,omitempty"`
}

// Record converts the spec to the simulator's trace-record model.
func (r TraceRecord) Record() taskset.TraceRecord {
	return taskset.TraceRecord{Release: r.Release.D(), Cost: r.Cost.D(), Deadline: r.Deadline.D()}
}

// FromTraceRecord converts an in-memory record to its spec form.
func FromTraceRecord(r taskset.TraceRecord) TraceRecord {
	return TraceRecord{Release: Duration(r.Release), Cost: Duration(r.Cost), Deadline: Duration(r.Deadline)}
}

// Arrival declares one arrival source. Exactly one of Task / Server
// names the target: a task-targeted source replaces that periodic
// task's release law (open arrivals — requires skip_admission, since
// stochastic releases have no periodic admission analysis), while a server-targeted source feeds a polling
// server's aperiodic request stream (the server task itself stays
// periodic and admission-analysable). Kind selects the source; as
// with faults, a field the kind/target combination does not read must
// stay zero, so a mis-specified source fails loudly instead of
// silently running a different workload.
//
// A stochastic source with Seed 0 draws from the scenario's top-level
// Seed. A trace source takes its records either inline (Records) or
// from a JSON-lines file (Path) — exactly one of the two. Note Path
// contents are outside the scenario's canonical bytes and therefore
// outside its Digest; digest-keyed consumers (the rtserved cache)
// reject path-based sources for exactly that reason.
type Arrival struct {
	Task       string        `json:"task,omitempty"`
	Server     string        `json:"server,omitempty"`
	Kind       string        `json:"kind"`
	Mean       Duration      `json:"mean,omitempty"`
	BurstMean  Duration      `json:"burst_mean,omitempty"`
	Dwell      Duration      `json:"dwell,omitempty"`
	BurstDwell Duration      `json:"burst_dwell,omitempty"`
	Seed       uint64        `json:"seed,omitempty"`
	Cost       Duration      `json:"cost,omitempty"`
	Deadline   Duration      `json:"deadline,omitempty"`
	Records    []TraceRecord `json:"records,omitempty"`
	Path       string        `json:"path,omitempty"`
}

// validateArrivals checks the arrivals block structurally: known
// kinds, exactly-one target that exists, at most one source per
// target, per-kind field relevance, and the platform restrictions
// (task sources skip admission control, server sources need a server
// with no static request schedule).
func (sc *Scenario) validateArrivals() error {
	if len(sc.Arrivals) == 0 {
		return nil
	}
	seenTask := make(map[string]bool)
	seenServer := make(map[string]bool)
	for i, a := range sc.Arrivals {
		if err := a.check(); err != nil {
			return fmt.Errorf("scenario: arrival %d: %w", i, err)
		}
		switch {
		case a.Task != "":
			if !sc.SkipAdmission {
				return fmt.Errorf("scenario: arrival %d: task-targeted sources require skip_admission (open arrivals have no periodic admission analysis)", i)
			}
			found := false
			for _, t := range sc.Tasks {
				if t.Name == a.Task {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("scenario: arrival %d targets unknown task %q", i, a.Task)
			}
			if seenTask[a.Task] {
				return fmt.Errorf("scenario: arrival %d: task %q already has a source", i, a.Task)
			}
			seenTask[a.Task] = true
		default: // a.Server != "", enforced by check
			var srv *Server
			for s := range sc.Servers {
				if sc.Servers[s].Task.Name == a.Server {
					srv = &sc.Servers[s]
					break
				}
			}
			if srv == nil {
				return fmt.Errorf("scenario: arrival %d targets unknown server %q", i, a.Server)
			}
			if len(srv.Requests) > 0 {
				return fmt.Errorf("scenario: arrival %d: server %q declares %d static requests; a source-fed server owns its whole request stream", i, a.Server, len(srv.Requests))
			}
			if seenServer[a.Server] {
				return fmt.Errorf("scenario: arrival %d: server %q already has a source", i, a.Server)
			}
			seenServer[a.Server] = true
		}
	}
	return nil
}

// check validates one arrival entry in isolation: target shape, kind,
// required parameters, and set-but-ignored field rejection.
func (a Arrival) check() error {
	if (a.Task != "") == (a.Server != "") {
		return fmt.Errorf("exactly one of task/server must name the target")
	}
	type uses struct{ mean, burst, cost, deadline, seed, records bool }
	var u uses
	switch a.Kind {
	case ArrivalPoisson:
		u = uses{mean: true, seed: true, cost: a.Server != "", deadline: a.Server != ""}
		if a.Mean <= 0 {
			return fmt.Errorf("kind %q needs a positive mean inter-arrival, got %v", a.Kind, a.Mean)
		}
	case ArrivalMMPP:
		u = uses{mean: true, burst: true, seed: true, cost: a.Server != "", deadline: a.Server != ""}
		switch {
		case a.Mean <= 0:
			return fmt.Errorf("kind %q needs a positive mean inter-arrival, got %v", a.Kind, a.Mean)
		case a.BurstMean <= 0:
			return fmt.Errorf("kind %q needs a positive burst_mean, got %v", a.Kind, a.BurstMean)
		case a.Dwell <= 0:
			return fmt.Errorf("kind %q needs a positive dwell, got %v", a.Kind, a.Dwell)
		case a.BurstDwell <= 0:
			return fmt.Errorf("kind %q needs a positive burst_dwell, got %v", a.Kind, a.BurstDwell)
		}
	case ArrivalTrace:
		u = uses{records: true}
		if (a.Path != "") == (len(a.Records) > 0) {
			return fmt.Errorf("kind %q needs exactly one of records/path (an empty trace is a path to an empty file)", a.Kind)
		}
		for i, r := range a.Records {
			if err := r.Record().Validate(); err != nil {
				return fmt.Errorf("record %d: %w", i+1, err)
			}
		}
	default:
		return fmt.Errorf("unknown arrival kind %q (want %q|%q|%q)", a.Kind, ArrivalPoisson, ArrivalMMPP, ArrivalTrace)
	}
	if u.cost && a.Cost <= 0 {
		return fmt.Errorf("server-fed %q source needs a positive request cost", a.Kind)
	}
	var dead []string
	if !u.mean && a.Mean != 0 {
		dead = append(dead, "mean")
	}
	if !u.burst && (a.BurstMean != 0 || a.Dwell != 0 || a.BurstDwell != 0) {
		dead = append(dead, "burst_mean/dwell/burst_dwell")
	}
	if !u.cost && a.Cost != 0 {
		dead = append(dead, "cost")
	}
	if !u.deadline && a.Deadline != 0 {
		dead = append(dead, "deadline")
	}
	if !u.seed && a.Seed != 0 {
		dead = append(dead, "seed")
	}
	if !u.records && (len(a.Records) > 0 || a.Path != "") {
		dead = append(dead, "records/path")
	}
	if len(dead) > 0 {
		return fmt.Errorf("kind %q does not use field(s): %s", a.Kind, strings.Join(dead, ", "))
	}
	if a.Deadline < 0 {
		return fmt.Errorf("deadline must be non-negative, got %v", a.Deadline)
	}
	return nil
}

// source compiles the arrival into a fresh taskset.Source iterator,
// reading a trace Path from disk. Each call returns an independent
// iterator positioned at the first release — the engine and the
// verify oracle each need their own.
func (a Arrival) source(scenarioSeed uint64) (taskset.Source, error) {
	seed := a.Seed
	if seed == 0 {
		seed = scenarioSeed
	}
	switch a.Kind {
	case ArrivalPoisson:
		return taskset.NewPoisson(a.Mean.D(), seed)
	case ArrivalMMPP:
		return taskset.NewMMPP(a.Mean.D(), a.BurstMean.D(), a.Dwell.D(), a.BurstDwell.D(), seed)
	case ArrivalTrace:
		records, err := a.traceRecords()
		if err != nil {
			return nil, err
		}
		return taskset.NewTrace(records)
	default:
		return nil, fmt.Errorf("unknown arrival kind %q", a.Kind)
	}
}

// traceRecords resolves a trace source's records, from the inline
// block or the JSON-lines file at Path.
func (a Arrival) traceRecords() ([]taskset.TraceRecord, error) {
	if a.Path != "" {
		data, err := os.ReadFile(a.Path)
		if err != nil {
			return nil, fmt.Errorf("trace source: %w", err)
		}
		records, err := taskset.ParseTrace(data)
		if err != nil {
			return nil, fmt.Errorf("trace source %s: %w", a.Path, err)
		}
		return records, nil
	}
	records := make([]taskset.TraceRecord, len(a.Records))
	for i, r := range a.Records {
		records[i] = r.Record()
	}
	return records, nil
}

// TaskSources compiles the task-targeted arrivals into a Source slice
// aligned index-for-index with TaskSet() order (periodic tasks first,
// then server tasks; server entries stay nil — a server task's own
// releases remain periodic). It returns nil when no task-targeted
// source is declared. Each call builds fresh iterators.
func (sc *Scenario) TaskSources() ([]taskset.Source, error) {
	if err := sc.validateArrivals(); err != nil {
		return nil, err
	}
	var sources []taskset.Source
	for _, a := range sc.Arrivals {
		if a.Task == "" {
			continue
		}
		src, err := a.source(sc.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: arrival for task %q: %w", a.Task, err)
		}
		if sources == nil {
			sources = make([]taskset.Source, len(sc.Tasks)+len(sc.Servers))
		}
		for i, t := range sc.Tasks {
			if t.Name == a.Task {
				sources[i] = src
				break
			}
		}
	}
	return sources, nil
}

// ServerRequests materializes the request stream of the named
// server's arrival source up to the horizon, as the static schedule
// the polling server runs. Request IDs are sequential
// ("name-0001", ...). It returns (nil, nil) when the server has no
// source. The materialization is what makes source-fed servers
// deterministic for analysis: the polling model replays exactly this
// schedule.
func (sc *Scenario) ServerRequests(server string) ([]aperiodic.Request, error) {
	for _, a := range sc.Arrivals {
		if a.Server != server {
			continue
		}
		src, err := a.source(sc.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: arrival for server %q: %w", server, err)
		}
		horizon := vtime.Time(sc.Horizon)
		var reqs []aperiodic.Request
		for {
			rel, ok := src.Next()
			if !ok || rel.At.After(horizon) {
				break
			}
			cost, deadline := a.Cost.D(), a.Deadline.D()
			if rel.Cost > 0 {
				cost = rel.Cost
			}
			if rel.Deadline > 0 {
				deadline = rel.Deadline
			}
			reqs = append(reqs, aperiodic.Request{
				ID:       fmt.Sprintf("%s-%04d", server, len(reqs)+1),
				Arrival:  rel.At,
				Cost:     cost,
				Deadline: deadline,
			})
		}
		return reqs, nil
	}
	return nil, nil
}

// HasPathSource reports whether any declared arrival reads a trace
// file from disk. Path contents are invisible to the scenario digest,
// so content-addressed consumers (the rtserved cache) must refuse
// such scenarios rather than alias distinct workloads to one cache
// entry.
func (sc *Scenario) HasPathSource() bool {
	for _, a := range sc.Arrivals {
		if a.Path != "" {
			return true
		}
	}
	return false
}
