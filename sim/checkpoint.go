package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// CheckpointVersion stamps the sim-level checkpoint file format.
const CheckpointVersion = 1

// Checkpoint is a self-contained mid-run snapshot: the scenario that
// produced it plus the engine and metric state at the boundary
// instant. It is pure canonical JSON (EncodeCheckpoint /
// DecodeCheckpoint) — a run split at the boundary with RunToCheckpoint
// and Resume produces a byte-identical spilled trace and an equal
// report to the unsplit run, which is what lets a long-horizon sweep
// migrate across processes or hosts.
//
// Checkpoints cover streaming-collection scenarios with treatment
// none, no servers, and no online oracle — the restrictions that keep
// every piece of runtime state plain data (see engine.Checkpoint).
type Checkpoint struct {
	Version  int                       `json:"version"`
	At       Duration                  `json:"at"`
	Scenario Scenario                  `json:"scenario"`
	Engine   *engine.Checkpoint        `json:"engine"`
	Metrics  *metrics.AccumulatorState `json:"metrics"`
}

// EncodeCheckpoint writes the canonical JSON form (two-space indent,
// trailing newline — the scenario codec's conventions).
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(cp)
}

// MarshalCheckpoint returns the canonical JSON encoding.
func MarshalCheckpoint(cp *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint reads and validates one checkpoint. Unknown fields
// are rejected, like the scenario codec.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cp Checkpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Engine == nil || cp.Metrics == nil {
		return nil, fmt.Errorf("sim: checkpoint is missing engine or metrics state")
	}
	if err := cp.Scenario.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// DecodeCheckpointFile decodes the checkpoint stored at path.
func DecodeCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

// checkpointable rejects scenarios whose runtime state cannot be
// serialized, before any simulation work (the engine's Snapshot and
// Restore only guard dynamically, after it): detector treatments and
// polling servers hold closure-bearing timers, d-over arms a
// latest-start-time watchdog, retained runs carry the full log, and
// the online oracle's verdict is only meaningful over a whole trace
// (replay the concatenated spill through rtrun -check or
// verify.ForScenario instead).
func (s *System) checkpointable() error {
	tr, err := ParseTreatment(s.sc.Treatment)
	if err != nil {
		return err
	}
	switch {
	case tr != detect.NoDetection:
		return fmt.Errorf("sim: checkpointing requires treatment none, have %q", s.sc.Treatment)
	case len(s.sc.Servers) > 0:
		return fmt.Errorf("sim: checkpointing cannot combine with polling servers (their timers are not serializable)")
	case s.sc.Policy == "d-over":
		return fmt.Errorf("sim: policy d-over is not checkpointable (its latest-start-time watchdog holds timers)")
	case !s.sc.Streaming():
		return fmt.Errorf("sim: checkpointing requires streaming collection (\"collect\": {\"mode\": %q})", CollectStream)
	case s.sc.Verify:
		return fmt.Errorf("sim: checkpointing cannot combine with the online oracle; replay the concatenated trace instead")
	case s.sc.FastForward:
		return fmt.Errorf("sim: checkpointing cannot combine with fast-forward (the analytic jump skips the boundary instants a snapshot would capture)")
	}
	return nil
}

// RunToCheckpoint simulates the scenario up to instant at (every event
// with a timestamp ≤ at fires), snapshots, and returns the
// self-contained checkpoint. The partial trace reaches the SpillTrace
// writer; Resume on the checkpoint completes the run so that the
// concatenation of the two spills is byte-identical to an unsplit
// run's trace and the final report is equal.
func (s *System) RunToCheckpoint(at Duration) (*Checkpoint, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	if at < 0 || at > s.sc.Horizon {
		return nil, fmt.Errorf("sim: checkpoint instant %v outside the horizon [0, %v]", at, s.sc.Horizon)
	}
	c, err := s.compile(false)
	if err != nil {
		return nil, err
	}
	cs, err := c.sys.RunToCheckpoint(at.D())
	if err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	return &Checkpoint{Version: CheckpointVersion, At: at, Scenario: s.sc, Engine: cs.Engine, Metrics: cs.Metrics}, nil
}

// Resume builds a System that continues a checkpointed run. Its Run
// completes the remaining horizon; SpillTrace captures the second
// trace segment; the result's Report covers the whole run (segment
// one travels inside the checkpoint's accumulator state).
func Resume(cp *Checkpoint) (*System, error) {
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Engine == nil || cp.Metrics == nil {
		return nil, fmt.Errorf("sim: checkpoint is missing engine or metrics state")
	}
	sys, err := FromScenario(cp.Scenario)
	if err != nil {
		return nil, err
	}
	if err := sys.checkpointable(); err != nil {
		return nil, err
	}
	sys.resume = cp
	return sys, nil
}
