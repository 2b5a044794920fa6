package main

import (
	"path/filepath"
	"testing"

	"valueexpert/internal/benchgate"
)

func traj(settings ...setting) trajectory {
	return trajectory{Workload: "Darknet", Scale: 64, Iters: 3, Settings: settings}
}

// TestGateDiffFormat pins the per-setting failure line: measured (with
// spread) vs baseline vs allowed, plus the regression percentage — the
// message a red CI run shows.
func TestGateDiffFormat(t *testing.T) {
	base := traj(setting{Workers: 4,
		WallMSPerOp:     benchgate.Single(100),
		AnalysisMSPerOp: benchgate.Single(50)})
	cur := traj(setting{Workers: 4,
		WallMSPerOp:     benchgate.Summarize([]float64{139, 140, 141}),
		AnalysisMSPerOp: benchgate.Single(50)})

	failures := gate(&base, cur, 0.25, 3)
	if len(failures) != 1 {
		t.Fatalf("failures: %v", failures)
	}
	got := failures[0].String()
	want := "workers=4 wall_ms_per_op: measured 140.00 (std 0.82, n=3) vs baseline 100.00, allowed <= 125.00 — regressed +40%"
	if got != want {
		t.Fatalf("diff line:\n got %q\nwant %q", got, want)
	}
}

// TestGateStatisticsAware: a mean past the tolerance but inside the
// measured spread is noise and passes; the same mean with a tight spread
// fails both wall and analysis.
func TestGateStatisticsAware(t *testing.T) {
	base := traj(setting{Workers: 0,
		WallMSPerOp:     benchgate.Single(100),
		AnalysisMSPerOp: benchgate.Single(100)})

	noisy := traj(setting{Workers: 0,
		WallMSPerOp:     benchgate.Summarize([]float64{100, 140, 180}),
		AnalysisMSPerOp: benchgate.Single(90)})
	if failures := gate(&base, noisy, 0.25, 3); len(failures) != 0 {
		t.Fatalf("noisy wall failed: %v", failures)
	}

	tight := traj(setting{Workers: 0,
		WallMSPerOp:     benchgate.Summarize([]float64{139, 140, 141}),
		AnalysisMSPerOp: benchgate.Summarize([]float64{139, 140, 141})})
	failures := gate(&base, tight, 0.25, 3)
	if len(failures) != 2 {
		t.Fatalf("tight regression: %v", failures)
	}
	if failures[0].Metric != "wall_ms_per_op" || failures[1].Metric != "analysis_ms_per_op" {
		t.Fatalf("metrics: %v", failures)
	}
}

// TestGateSkipsUnknownSettings: this CLI sweeps ad-hoc worker lists, so
// a measured setting the baseline lacks passes (the grid is where strict
// coverage lives).
func TestGateSkipsUnknownSettings(t *testing.T) {
	base := traj(setting{Workers: 0, WallMSPerOp: benchgate.Single(100)})
	cur := traj(setting{Workers: 8, WallMSPerOp: benchgate.Single(9000)})
	if failures := gate(&base, cur, 0.25, 3); len(failures) != 0 {
		t.Fatalf("unknown setting gated: %v", failures)
	}
}

// TestLoadBaselineMissingFile: absent baselines skip the gate rather
// than failing the first run of a fresh checkout.
func TestLoadBaselineMissingFile(t *testing.T) {
	base, err := loadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || base != nil {
		t.Fatalf("missing baseline: %v, %v", base, err)
	}
}
