package expgrid

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valueexpert/internal/benchgate"
)

// testSpec is a small grid used across the package tests.
func testSpec() Spec {
	return Spec{
		Name:    "test",
		Repeats: 3,
		Workloads: []WorkloadSpec{
			{Name: "Darknet", Scale: 64},
			{Name: "Rodinia/backprop", Scale: 16},
		},
		Settings: []Setting{{Workers: 0, Depth: 0}, {Workers: 2, Depth: 2}, {Workers: 4, Depth: 3}},
	}
}

// fakeMeasure is a deterministic stand-in for real profiling: the sample
// depends only on the cell and repeat, never on the clock.
func fakeMeasure(c Cell, rep int) (Sample, error) {
	base := float64(100 + 7*len(c.Workload.Name) + 10*c.Setting.Workers + 3*c.Setting.Depth + rep)
	return Sample{
		WallMS:       base,
		CollectionMS: base / 10,
		AnalysisMS:   base / 2,
		SnapshotMS:   base / 20,
		CompactMS:    base / 4,
		AbsorbMS:     base / 8,
		FinalizeMS:   base / 40,
		Flushes:      uint64(10 + c.Setting.Workers),
		Records:      uint64(1000 + 100*c.Setting.Workers),
	}, nil
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"valid", func(s *Spec) {}, ""},
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"zero repeats", func(s *Spec) { s.Repeats = 0 }, "repeats"},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "at least one workload"},
		{"no settings", func(s *Spec) { s.Settings = nil }, "workers/depth setting"},
		{"unknown workload", func(s *Spec) { s.Workloads[0].Name = "NoSuchApp" }, "NoSuchApp"},
		{"zero scale", func(s *Spec) { s.Workloads[0].Scale = 0 }, "scale must be >= 1"},
		{"corpus with scale", func(s *Spec) {
			s.Workloads[0] = WorkloadSpec{Name: "corpus", Corpus: "testdata", Scale: 4}
		}, "no scale"},
		{"negative workers", func(s *Spec) { s.Settings[0].Workers = -1 }, "must be >= 0"},
		{"unknown pattern", func(s *Spec) { s.Patterns = []string{"no such pattern"} }, "no such pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","repeats":3,"workloda":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "workloda") {
		t.Fatalf("typoed field not rejected: %v", err)
	}
}

func TestCellsOrderAndKeys(t *testing.T) {
	s := testSpec()
	s.Patterns = []string{"", "single value"}
	cells := s.Cells()
	if len(cells) != 2*2*3 {
		t.Fatalf("cells: %d, want 12", len(cells))
	}
	// Workloads outermost, then patterns, then settings.
	wantFirst := []string{
		"Darknet/s64/w0/d0/all",
		"Darknet/s64/w2/d2/all",
		"Darknet/s64/w4/d3/all",
		"Darknet/s64/w0/d0/single value",
	}
	for i, want := range wantFirst {
		if got := cells[i].Key(); got != want {
			t.Fatalf("cell %d key %q, want %q", i, got, want)
		}
	}
	if got := cells[6].Key(); got != "Rodinia/backprop/s16/w0/d0/all" {
		t.Fatalf("workload boundary key %q", got)
	}
}

func TestRunGroupsStatistics(t *testing.T) {
	s := testSpec()
	res, err := (&Runner{Spec: s, Measure: fakeMeasure}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 6*3 || len(res.Groups) != 6 {
		t.Fatalf("runs %d groups %d", len(res.Runs), len(res.Groups))
	}
	g := res.Groups[0] // Darknet w0: samples 149, 150, 151
	if g.Wall.Mean != 150 || g.Wall.Min != 149 || g.Wall.Max != 151 || g.Wall.Repeats != 3 {
		t.Fatalf("group stats: %+v", g.Wall)
	}
	if g.Wall.Std <= 0.8 || g.Wall.Std >= 0.83 {
		t.Fatalf("std %v, want ~0.816", g.Wall.Std)
	}
}

// TestGateDoctoredBaseline is the acceptance demonstration: feed the
// gate a doctored baseline whose means are far below what the grid
// "measures" and the run fails with a per-cell diff; feed it the honest
// baseline and it passes.
func TestGateDoctoredBaseline(t *testing.T) {
	res, err := (&Runner{Spec: testSpec(), Measure: fakeMeasure}).Run()
	if err != nil {
		t.Fatal(err)
	}

	honest := res.Baseline()
	if failures := res.Gate(&honest, 0.25, 3); len(failures) != 0 {
		t.Fatalf("honest baseline failed its own gate: %v", failures)
	}

	doctored := res.Baseline()
	for i := range doctored.Cells {
		doctored.Cells[i].Wall.Mean /= 2 // inject a 2x wall regression everywhere
	}
	failures := res.Gate(&doctored, 0.25, 3)
	if len(failures) != len(doctored.Cells) {
		t.Fatalf("injected regression: %d failures, want %d: %v", len(failures), len(doctored.Cells), failures)
	}
	msg := failures[0].String()
	for _, want := range []string{"Darknet/s64/w0/d0/all", "wall_ms", "allowed <=", "regressed +100%"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("failure diff %q lacks %q", msg, want)
		}
	}
}

// TestGateMissingCell: a measured cell the baseline does not cover fails
// the gate rather than passing silently.
func TestGateMissingCell(t *testing.T) {
	res, err := (&Runner{Spec: testSpec(), Measure: fakeMeasure}).Run()
	if err != nil {
		t.Fatal(err)
	}
	base := res.Baseline()
	base.Cells = base.Cells[1:] // drop the first cell
	failures := res.Gate(&base, 0.25, 3)
	if len(failures) != 1 || failures[0].Kind != benchgate.MissingBaseline {
		t.Fatalf("missing cell: %v", failures)
	}
}

// TestGateNoiseImmunity: a mean shift inside k·std of the measured runs
// passes even when it breaches the tolerance — noise cannot fail the
// grid.
func TestGateNoiseImmunity(t *testing.T) {
	noisy := func(c Cell, rep int) (Sample, error) {
		s, _ := fakeMeasure(c, rep)
		s.WallMS = 100 + 40*float64(rep) // samples 100, 140, 180: mean 140, std ~32.7
		return s, nil
	}
	res, err := (&Runner{Spec: testSpec(), Measure: noisy}).Run()
	if err != nil {
		t.Fatal(err)
	}
	base := res.Baseline()
	for i := range base.Cells {
		base.Cells[i].Wall = benchgate.Single(100) // mean +40% over baseline…
	}
	if failures := res.Gate(&base, 0.25, 3); len(failures) != 0 {
		t.Fatalf("noisy-but-within-spread cells failed: %v", failures)
	}
	// With the noise bound off (k=0) the same comparison fails: the
	// spread was doing the work.
	if failures := res.Gate(&base, 0.25, 0); len(failures) == 0 {
		t.Fatal("k=0 gate passed a +40% regression")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	res, err := (&Runner{Spec: testSpec(), Measure: fakeMeasure}).Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_grid.json")
	if err := res.Baseline().WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Cells) != len(res.Groups) || loaded.Grid != "test" {
		t.Fatalf("round trip: %+v", loaded)
	}
	if failures := res.Gate(loaded, 0.25, 3); len(failures) != 0 {
		t.Fatalf("round-tripped baseline failed: %v", failures)
	}

	missing, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || missing != nil {
		t.Fatalf("missing baseline: %v %v", missing, err)
	}
}
