package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// spillCfg builds a Table 2 config recording to sink (nil drops the
// events).
func spillCfg(sink trace.Sink, end vtime.Time) Config {
	return Config{Tasks: table2WithOffset(), End: end, Sink: sink}
}

// TestRunUntilThenRunMatchesRun: splitting the engine loop at an
// arbitrary instant (no checkpoint involved) produces the identical
// event stream — the boundary semantics Snapshot builds on.
func TestRunUntilThenRunMatchesRun(t *testing.T) {
	var whole strings.Builder
	e, err := New(spillCfg(trace.NewWriterSink(&whole), at(3000)))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	var split strings.Builder
	e2, err := New(spillCfg(trace.NewWriterSink(&split), at(3000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []vtime.Time{at(700), at(700), at(1501), at(2999)} {
		if err := e2.RunUntil(cut); err != nil {
			t.Fatalf("RunUntil(%v): %v", cut, err)
		}
	}
	e2.Run()
	if whole.String() != split.String() {
		t.Error("split loop produced a different event stream")
	}
}

// TestRunUntilRejects: going backwards or past the horizon errors.
func TestRunUntilRejects(t *testing.T) {
	e, err := New(spillCfg(nil, at(1000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(at(500)); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(at(400)); err == nil {
		t.Error("RunUntil backwards accepted")
	}
	if err := e.RunUntil(at(1001)); err == nil {
		t.Error("RunUntil past the horizon accepted")
	}
}

// TestSnapshotRestoreMidRun: snapshot mid-run, restore into a fresh
// engine, and the continued stream matches an unsplit run byte for
// byte — with the checkpoint surviving a JSON round trip, and the
// snapshotted engine left runnable (Snapshot does not consume it).
func TestSnapshotRestoreMidRun(t *testing.T) {
	var whole strings.Builder
	e, err := New(spillCfg(trace.NewWriterSink(&whole), at(3000)))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	var segA strings.Builder
	e1, err := New(spillCfg(trace.NewWriterSink(&segA), at(3000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.RunUntil(at(1250)); err != nil {
		t.Fatal(err)
	}
	cp, err := e1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	var segB strings.Builder
	e2, err := New(spillCfg(trace.NewWriterSink(&segB), at(3000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(&decoded); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	e2.Run()
	if segA.String()+segB.String() != whole.String() {
		t.Error("restored run's stream diverges from the unsplit run")
	}

	// The donor engine is still runnable and finishes identically.
	e1.Run()
	if segA.String() != whole.String() {
		t.Error("snapshotted engine's continued stream diverges")
	}
}

// TestSnapshotRejectsLiveTimers: an in-flight external timer (a
// closure) blocks the snapshot.
func TestSnapshotRejectsLiveTimers(t *testing.T) {
	e, err := New(spillCfg(nil, at(1000)))
	if err != nil {
		t.Fatal(err)
	}
	e.Schedule(at(900), func(vtime.Time) {})
	if err := e.RunUntil(at(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil || !strings.Contains(err.Error(), "timer") {
		t.Errorf("Snapshot with a live timer: %v, want a timer error", err)
	}
}

// TestRestoreRejects pins the identity checks.
func TestRestoreRejects(t *testing.T) {
	e, err := New(spillCfg(nil, at(2000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(at(1000)); err != nil {
		t.Fatal(err)
	}
	cp, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Engine {
		t.Helper()
		e, err := New(spillCfg(nil, at(2000)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	bad := *cp
	bad.Version = CheckpointVersion + 1
	if err := fresh().Restore(&bad); err == nil {
		t.Error("version mismatch accepted")
	}
	bad = *cp
	bad.Policy = "edf"
	if err := fresh().Restore(&bad); err == nil {
		t.Error("policy mismatch accepted")
	}
	bad = *cp
	bad.Now = int64(at(5000))
	if err := fresh().Restore(&bad); err == nil {
		t.Error("instant past the horizon accepted")
	}
	bad = *cp
	bad.Tasks = bad.Tasks[:len(bad.Tasks)-1]
	if err := fresh().Restore(&bad); err == nil {
		t.Error("task-count mismatch accepted")
	}
}
