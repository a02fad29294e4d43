package experiments

import (
	"context"
	"testing"

	"repro/internal/vtime"
)

// TestFaultMagnitudeSweepStreamEqualsRetain: X2 consumes only
// task-summary counts, which streaming collection reproduces exactly,
// so the rendered artefact must be byte-identical in both modes.
func TestFaultMagnitudeSweepStreamEqualsRetain(t *testing.T) {
	ctx := context.Background()
	retain, err := FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(20), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(20), RunOptions{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if RenderSweep(stream) != RenderSweep(retain) {
		t.Errorf("streamed X2 differs from retained:\n--- stream ---\n%s--- retain ---\n%s",
			RenderSweep(stream), RenderSweep(retain))
	}
}

// TestBaselineComparisonStreamEqualsRetain: X4 likewise reads only
// success ratios; the skip-admission policy rows flow through a
// metrics.Accumulator sink instead of Analyze under streaming.
func TestBaselineComparisonStreamEqualsRetain(t *testing.T) {
	ctx := context.Background()
	retain, err := BaselineComparisonCtx(ctx, vtime.Millis(50), 3*vtime.Second, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := BaselineComparisonCtx(ctx, vtime.Millis(50), 3*vtime.Second, RunOptions{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if RenderBaselines(stream) != RenderBaselines(retain) {
		t.Errorf("streamed X4 differs from retained:\n--- stream ---\n%s--- retain ---\n%s",
			RenderBaselines(stream), RenderBaselines(retain))
	}
}
