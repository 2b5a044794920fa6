package main

import (
	"path/filepath"
	"strings"
	"testing"

	"valueexpert/internal/benchgate"
)

func res(bytesPerAccess benchgate.Stat, compression float64) result {
	return result{Workload: "Darknet", Scale: 64, Iters: 3,
		BytesPerAccess: bytesPerAccess, CompressionRatio: compression}
}

// TestGateDiffFormat pins the per-setting failure line a red run prints:
// measured vs baseline vs allowed, plus the regression percentage.
func TestGateDiffFormat(t *testing.T) {
	base := res(benchgate.Single(10), 8)
	cur := res(benchgate.Single(14), 8)
	failures := gate(&base, cur, 0.25, 3)
	if len(failures) != 1 {
		t.Fatalf("failures: %v", failures)
	}
	got := failures[0].String()
	want := "Darknet bytes_per_access: measured 14.00 vs baseline 10.00, allowed <= 12.50 — regressed +40%"
	if got != want {
		t.Fatalf("diff line:\n got %q\nwant %q", got, want)
	}
}

// TestGateCompressionFloor: the floor fails even with no baseline, and
// its message names the floor rather than a baseline.
func TestGateCompressionFloor(t *testing.T) {
	failures := gate(nil, res(benchgate.Single(10), 4.2), 0.25, 3)
	if len(failures) != 1 || failures[0].Kind != benchgate.BelowFloor {
		t.Fatalf("floor: %v", failures)
	}
	msg := failures[0].String()
	for _, want := range []string{"compression_ratio", "4.20", "floor", "5.00"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("floor diff %q lacks %q", msg, want)
		}
	}
	if f := gate(nil, res(benchgate.Single(10), 6.5), 0.25, 3); len(f) != 0 {
		t.Fatalf("healthy compression gated: %v", f)
	}
}

// TestGateWithinTolerancePasses: size growth inside the tolerance is not
// a regression.
func TestGateWithinTolerancePasses(t *testing.T) {
	base := res(benchgate.Single(10), 8)
	cur := res(benchgate.Single(12), 8)
	if failures := gate(&base, cur, 0.25, 3); len(failures) != 0 {
		t.Fatalf("within-tolerance growth gated: %v", failures)
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
