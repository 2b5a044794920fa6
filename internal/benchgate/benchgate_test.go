package benchgate

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	if s.Mean != 12 || s.Min != 10 || s.Max != 14 || s.Repeats != 3 {
		t.Fatalf("Summarize: %+v", s)
	}
	want := math.Sqrt(8.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
	if z := Summarize(nil); z != (Stat{}) {
		t.Fatalf("empty Summarize: %+v", z)
	}
}

// TestGateTable is the gate's contract, one row per behavior the grid
// depends on.
func TestGateTable(t *testing.T) {
	cases := []struct {
		name      string
		tolerance float64
		k         float64
		base, cur Stat
		fails     bool
	}{
		{
			name:      "regression beyond tolerance and k*std fails",
			tolerance: 0.25, k: 3,
			base:  Summarize([]float64{100, 100, 100}),
			cur:   Summarize([]float64{139, 140, 141}),
			fails: true,
		},
		{
			name:      "improvement passes",
			tolerance: 0.25, k: 3,
			base:  Single(100),
			cur:   Summarize([]float64{60, 61, 62}),
			fails: false,
		},
		{
			name:      "within tolerance passes",
			tolerance: 0.25, k: 3,
			base:  Single(100),
			cur:   Summarize([]float64{119, 120, 121}),
			fails: false,
		},
		{
			// The statistics-aware half: the mean is +40% over baseline,
			// far past the tolerance, but the measured runs spread so wide
			// (std ~16) that baseline + 3·std covers it — noise, not a
			// regression.
			name:      "noise within k*std passes despite tolerance breach",
			tolerance: 0.25, k: 3,
			base:  Single(100),
			cur:   Summarize([]float64{120, 160, 140}),
			fails: false,
		},
		{
			// Same mean, tight spread: now it is a real regression.
			name:      "same mean with tight spread fails",
			tolerance: 0.25, k: 3,
			base:  Single(100),
			cur:   Summarize([]float64{139, 140, 141}),
			fails: true,
		},
		{
			// k=0 disables the noise bound: the wide-spread case above
			// turns back into a plain single-point tolerance gate.
			name:      "k=0 reduces to the single-point gate",
			tolerance: 0.25, k: 0,
			base:  Single(100),
			cur:   Summarize([]float64{120, 160, 140}),
			fails: true,
		},
		{
			// tolerance=0 edge case: any mean increase beyond the noise
			// bound fails; with zero spread that means any increase at all.
			name:      "tolerance=0 with zero spread fails on any increase",
			tolerance: 0, k: 3,
			base:  Single(100),
			cur:   Single(100.01),
			fails: true,
		},
		{
			name:      "tolerance=0 equal means passes",
			tolerance: 0, k: 3,
			base:  Single(100),
			cur:   Single(100),
			fails: false,
		},
		{
			name:      "zero baseline mean is skipped",
			tolerance: 0.25, k: 3,
			base:  Single(0),
			cur:   Single(50),
			fails: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &Gate{Tolerance: tc.tolerance, K: tc.k}
			g.Compare("workers=4", "wall_ms", tc.base, tc.cur)
			if got := !g.OK(); got != tc.fails {
				t.Fatalf("fails=%v, want %v (failures: %v)", got, tc.fails, g.Failures())
			}
		})
	}
}

func TestGateMissingBaselineIsFailure(t *testing.T) {
	g := &Gate{Tolerance: 0.25, K: 3}
	g.Missing("Darknet/s64/w2/d2/all", "wall_ms", Single(42))
	if g.OK() {
		t.Fatal("missing baseline setting did not fail the gate")
	}
	f := g.Failures()[0]
	if f.Kind != MissingBaseline {
		t.Fatalf("kind %v, want MissingBaseline", f.Kind)
	}
	msg := f.String()
	for _, want := range []string{"Darknet/s64/w2/d2/all", "wall_ms", "no entry", "refresh the baseline"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("missing-baseline message %q lacks %q", msg, want)
		}
	}
}

// TestFailureDiffFormat pins the per-setting diff vxgrid prints:
// measured vs baseline vs allowed, with the spread and the regression
// percentage visible.
func TestFailureDiffFormat(t *testing.T) {
	g := &Gate{Tolerance: 0.25, K: 3}
	g.Compare("workers=4", "analysis_ms_per_op", Summarize([]float64{72, 73, 74}), Summarize([]float64{119, 120, 121}))
	if g.OK() {
		t.Fatal("expected a regression")
	}
	msg := g.Failures()[0].String()
	want := "workers=4 analysis_ms_per_op: measured 120.00 (std 0.82, n=3) vs baseline 73.00 (std 0.82, n=3), allowed <= 91.25 — regressed +64%"
	if msg != want {
		t.Fatalf("diff format:\n got %q\nwant %q", msg, want)
	}
}

// TestStatJSONLegacy: the retired single-mean schema stored bare
// numbers; they are now rejected rather than gating as a spread-free
// run, and a Stat round-trips through the object form unchanged.
func TestStatJSONLegacy(t *testing.T) {
	want := Summarize([]float64{1, 2, 3})
	out, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `{"mean":2,"std":`) || !strings.HasSuffix(string(out), `"min":1,"max":3,"repeats":3}`) {
		t.Fatalf("object form: %s", out)
	}
	var round Stat
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatal(err)
	}
	if round != want {
		t.Fatalf("object round trip: %s → %+v", out, round)
	}
	var s Stat
	if err := json.Unmarshal([]byte("149.37"), &s); err == nil {
		t.Fatal("bare number accepted as Stat")
	}
}

func TestStatJSONRejectsGarbage(t *testing.T) {
	var s Stat
	if err := json.Unmarshal([]byte(`"fast"`), &s); err == nil {
		t.Fatal("string accepted as Stat")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &s); err == nil {
		t.Fatal("array accepted as Stat")
	}
}
