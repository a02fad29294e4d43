package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// τ2: per-job responses 5, 6, 4 → WCRT 6 at the second job.
	tau2 := rows[1]
	if tau2.WCRT != ms(6) {
		t.Errorf("tau2 WCRT = %v, want 6ms", tau2.WCRT)
	}
	want := []vtime.Duration{ms(5), ms(6), ms(4)}
	for i, w := range want {
		if tau2.Jobs[i].Response != w {
			t.Errorf("tau2 q%d = %v, want %v", i, tau2.Jobs[i].Response, w)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "q1=6ms") {
		t.Errorf("render missing worst job:\n%s", out)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	wantWCRT := []int64{29, 58, 87}
	for i, r := range rows {
		if r.WCRT != ms(wantWCRT[i]) {
			t.Errorf("WCRT[%d] = %v, want %dms", i, r.WCRT, wantWCRT[i])
		}
		if r.Allowance != ms(11) {
			t.Errorf("A[%d] = %v, want 11ms", i, r.Allowance)
		}
		if r.MaxOverrun != ms(33) {
			t.Errorf("maxOverrun[%d] = %v, want 33ms", i, r.MaxOverrun)
		}
	}
	out := RenderTable2(rows)
	for _, cell := range []string{"tau1", "200", "70", "29", "11"} {
		if !strings.Contains(out, cell) {
			t.Errorf("render missing %q:\n%s", cell, out)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	wantShift := []int64{11, 22, 33}
	wantTotal := []int64{40, 80, 120}
	for i, r := range rows {
		if r.Shift != ms(wantShift[i]) || r.EquitableWCRT != ms(wantTotal[i]) {
			t.Errorf("row %d: shift %v total %v, want +%d → %d", i, r.Shift, r.EquitableWCRT, wantShift[i], wantTotal[i])
		}
	}
	if out := RenderTable3(rows); !strings.Contains(out, "WCRT+33ms") {
		t.Errorf("render:\n%s", out)
	}
}

// TestFigureOutcomes pins every §6 chart to the paper's prose.
func TestFigureOutcomes(t *testing.T) {
	cases := []struct {
		fig                 Figure
		t1End, t2End, t3End int64
		t1F, t2F, t3F       bool
		minDetect           int64
	}{
		// Fig 3: τ1 and τ2 end before their deadlines, τ3 misses.
		{Figure3, 1069, 1098, 1127, false, false, true, 0},
		// Fig 4: identical schedule, detections recorded.
		{Figure4, 1069, 1098, 1127, false, false, true, 1},
		// Fig 5: τ1 stopped at its (quantized) WCRT; only τ1 fails.
		{Figure5, 1030, 1059, 1088, true, false, false, 1},
		// Fig 6: τ1 stopped at WCRT+11 (quantized 40); τ2/τ3 meet.
		{Figure6, 1040, 1069, 1098, true, false, false, 1},
		// Fig 7: τ1 stopped at WCRT+33; τ2/τ3 finish just before
		// their deadlines (τ3 exactly at 1120).
		{Figure7, 1062, 1091, 1120, true, false, false, 1},
	}
	for _, c := range cases {
		res, err := RunFigure(c.fig)
		if err != nil {
			t.Fatalf("%v: %v", c.fig, err)
		}
		o := Outcome(c.fig, res)
		if o.Tau1End != at(c.t1End) || o.Tau1Failed != c.t1F {
			t.Errorf("%s: tau1 end=%v failed=%v, want %dms/%v", c.fig.Title(), o.Tau1End, o.Tau1Failed, c.t1End, c.t1F)
		}
		if o.Tau2End != at(c.t2End) || o.Tau2Failed != c.t2F {
			t.Errorf("%s: tau2 end=%v failed=%v, want %dms/%v", c.fig.Title(), o.Tau2End, o.Tau2Failed, c.t2End, c.t2F)
		}
		if o.Tau3End != at(c.t3End) || o.Tau3Failed != c.t3F {
			t.Errorf("%s: tau3 end=%v failed=%v, want %dms/%v", c.fig.Title(), o.Tau3End, o.Tau3Failed, c.t3End, c.t3F)
		}
		if o.Detections < c.minDetect {
			t.Errorf("%s: detections = %d, want >= %d", c.fig.Title(), o.Detections, c.minDetect)
		}
		if out := RenderOutcome(o); !strings.Contains(out, "tau1") {
			t.Errorf("outcome render:\n%s", out)
		}
	}
}

func TestFigureEnumHelpers(t *testing.T) {
	for _, f := range []Figure{Figure3, Figure4, Figure5, Figure6, Figure7} {
		if f.Title() == "" {
			t.Errorf("figure %d has no title", int(f))
		}
		_ = f.Treatment()
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown figure Treatment must panic")
		}
	}()
	Figure(99).Treatment()
}

func TestFaultMagnitudeSweepShape(t *testing.T) {
	points, err := FaultMagnitudeSweepCtx(context.Background(), ms(45), ms(15), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 magnitudes × 5 treatments.
	if len(points) != 20 {
		t.Fatalf("points = %d, want 20", len(points))
	}
	byKey := map[string]SweepPoint{}
	for _, p := range points {
		byKey[p.Treatment.String()+p.Extra.String()] = p
	}
	// At zero extra every policy is perfect.
	for _, tr := range []detect.Treatment{detect.NoDetection, detect.Stop, detect.SystemAllowance} {
		p := byKey[tr.String()+"0ms"]
		if p.SuccessRatio != 1 {
			t.Errorf("%v at 0 extra: success %v, want 1", tr, p.SuccessRatio)
		}
	}
	// At 45 ms extra, no-detection loses τ3 while stop protects it.
	noDet := byKey[detect.NoDetection.String()+"45ms"]
	stop := byKey[detect.Stop.String()+"45ms"]
	if noDet.Tau3Failed == 0 {
		t.Error("45ms fault without detection must fail tau3")
	}
	if stop.Tau3Failed != 0 || stop.Tau2Failed != 0 {
		t.Error("stop treatment must protect tau2/tau3 at 45ms")
	}
	if out := RenderSweep(points); !strings.Contains(out, "treatment") {
		t.Errorf("sweep render:\n%s", out)
	}
}

func TestTimerResolutionSweep(t *testing.T) {
	points, err := TimerResolutionSweepCtx(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("points = %d, want 12", len(points))
	}
	// The faulty task's CPU time grows (weakly) with the treatment
	// generosity at fixed resolution: stop ≤ equitable ≤ system.
	pick := func(res vtime.Duration, tr detect.Treatment) ResolutionPoint {
		for _, p := range points {
			if p.Resolution == res && p.Treatment == tr {
				return p
			}
		}
		t.Fatalf("missing point %v/%v", res, tr)
		return ResolutionPoint{}
	}
	for _, res := range []vtime.Duration{0, ms(1), ms(5), ms(10)} {
		s, e, y := pick(res, detect.Stop), pick(res, detect.Equitable), pick(res, detect.SystemAllowance)
		if !(s.Tau1Ran <= e.Tau1Ran && e.Tau1Ran <= y.Tau1Ran) {
			t.Errorf("res %v: tau1 ran %v/%v/%v, want stop ≤ equitable ≤ system", res, s.Tau1Ran, e.Tau1Ran, y.Tau1Ran)
		}
		if s.Collateral != 0 || e.Collateral != 0 || y.Collateral != 0 {
			t.Errorf("res %v: collateral failures %d/%d/%d, want none", res, s.Collateral, e.Collateral, y.Collateral)
		}
	}
}

func TestDetectorOverheadSweep(t *testing.T) {
	points, err := DetectorOverheadSweepCtx(context.Background(), []int{2, 4}, 7, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	// Detector runs must trace at least as many events (the sensors
	// add DetectorRelease records) — the §6.2 remark quantified.
	for i := 0; i < len(points); i += 2 {
		without, with := points[i], points[i+1]
		if with.TraceBytes <= without.TraceBytes {
			t.Errorf("n=%d: detectors must enlarge the trace: %d vs %d bytes",
				with.Tasks, with.TraceBytes, without.TraceBytes)
		}
	}
}

func TestAcceptanceSweepDominance(t *testing.T) {
	points, err := AcceptanceSweepCtx(context.Background(), []float64{0.5, 0.7, 0.9}, 40, 4, 11, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// Dominance: LL ⊆ hyperbolic ⊆ exact (for RM implicit-deadline
		// sets the exact test accepts whatever the bounds accept).
		if p.LLAccept > p.HypAccept+1e-9 {
			t.Errorf("U=%.2f: LL %.3f > hyperbolic %.3f", p.U, p.LLAccept, p.HypAccept)
		}
		if p.HypAccept > p.ExactAccpt+1e-9 {
			t.Errorf("U=%.2f: hyperbolic %.3f > exact %.3f", p.U, p.HypAccept, p.ExactAccpt)
		}
	}
	// Acceptance decreases with load for every test.
	if points[0].ExactAccpt < points[2].ExactAccpt {
		t.Errorf("exact acceptance should not grow with U: %.3f at 0.5 vs %.3f at 0.9",
			points[0].ExactAccpt, points[2].ExactAccpt)
	}
	if out := RenderAcceptance(points); !strings.Contains(out, "exact") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigureWindowAndSummary(t *testing.T) {
	from, to := FigureWindow()
	if !from.Before(at(1000)) || !to.After(at(1120)) {
		t.Errorf("window [%v,%v] must cover the faulty activation", from, to)
	}
	res, err := RunFigure(Figure5)
	if err != nil {
		t.Fatal(err)
	}
	sum := SummaryOf(res)
	if sum["tau1"].Stopped == 0 {
		t.Error("summary must show tau1 stops")
	}
}

func TestBlockingSweepRender(t *testing.T) {
	out, err := BlockingSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"11ms", "infeasible", "33ms", "0ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("blocking sweep missing %q:\n%s", want, out)
		}
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	points, err := BaselineComparisonCtx(context.Background(), ms(50), 3*vtime.Second, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6 policies", len(points))
	}
	var paper *BaselinePoint
	for i := range points {
		if points[i].Policy == "fp+detectors(stop)" {
			paper = &points[i]
		}
	}
	if paper == nil {
		t.Fatal("paper policy missing")
	}
	if paper.Tau3Success != 1 {
		t.Errorf("the paper's approach must fully protect tau3, got %v", paper.Tau3Success)
	}
	if out := RenderBaselines(points); !strings.Contains(out, "d-over") {
		t.Errorf("render:\n%s", out)
	}
}
