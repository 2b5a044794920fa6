// Package benchgate is the perf-regression gate behind cmd/vxgrid's
// experiment grid: a measured statistic is compared against a
// checked-in baseline and the run fails when the mean regresses beyond
// BOTH the fractional tolerance and k standard deviations of the
// measured runs. Requiring both keeps the gate statistics-aware: a
// noisy cell whose mean wobbles inside its own spread cannot fail the
// build, and the same spread cannot mask a real regression that clears
// the tolerance, because the tolerance bound is computed from the
// baseline mean alone.
//
// The Stat type is the gated unit. Its JSON form is an object carrying
// mean, std, min/max, and the repeat count.
package benchgate

import (
	"fmt"
	"math"
)

// Stat is one gated metric: the mean of the runs behind it plus their
// dispersion.
type Stat struct {
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Repeats int     `json:"repeats"`
}

// Single wraps one deterministic measurement as a Stat with no spread.
func Single(v float64) Stat { return Stat{Mean: v, Min: v, Max: v, Repeats: 1} }

// Summarize reduces repeated samples to their Stat. The standard
// deviation is the population form (÷n): the gate asks how much THESE
// runs spread, not how an infinite population would.
func Summarize(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := Stat{Min: samples[0], Max: samples[0], Repeats: len(samples)}
	var sum float64
	for _, v := range samples {
		sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean = sum / float64(len(samples))
	var sq float64
	for _, v := range samples {
		d := v - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(samples)))
	return s
}

// FailureKind classifies what a gate failure means.
type FailureKind int

const (
	// Regression: the measured mean exceeds what the baseline allows.
	Regression FailureKind = iota
	// MissingBaseline: a measured setting has no baseline entry, so
	// nothing vouches for it — refresh the baseline deliberately.
	MissingBaseline
)

// Failure is one gate violation, formatted as a per-setting diff of
// measured vs baseline vs allowed so the failing run's output says
// exactly which cell moved and by how much.
type Failure struct {
	Setting string // which grid cell / worker setting
	Metric  string // which measured quantity
	Kind    FailureKind

	Base    Stat    // baseline statistic (zero for MissingBaseline)
	Cur     Stat    // measured statistic
	Allowed float64 // regression threshold the measurement exceeded
}

// fmtStat renders a Stat compactly; single runs omit the spread.
func fmtStat(s Stat) string {
	if s.Repeats <= 1 {
		return fmt.Sprintf("%.2f", s.Mean)
	}
	return fmt.Sprintf("%.2f (std %.2f, n=%d)", s.Mean, s.Std, s.Repeats)
}

// String is the diff line vxgrid prints before exiting nonzero.
func (f Failure) String() string {
	if f.Kind == MissingBaseline {
		return fmt.Sprintf("%s %s: measured %s but the baseline has no entry for this setting (refresh the baseline to vouch for it)",
			f.Setting, f.Metric, fmtStat(f.Cur))
	}
	return fmt.Sprintf("%s %s: measured %s vs baseline %s, allowed <= %.2f — regressed %+.0f%%",
		f.Setting, f.Metric, fmtStat(f.Cur), fmtStat(f.Base), f.Allowed,
		100*(f.Cur.Mean/f.Base.Mean-1))
}

// Gate accumulates per-setting comparisons against a baseline.
type Gate struct {
	// Tolerance is the allowed fractional regression of the mean over the
	// baseline mean (0.25 = +25%).
	Tolerance float64
	// K scales the measured runs' standard deviation: a mean inside
	// baseline + K·std is noise, not a regression. K <= 0 disables the
	// noise bound (single-point gates behave exactly as before).
	K float64

	failures []Failure
}

// Allowed is the regression threshold for one comparison: the larger of
// the tolerance bound (from the baseline mean) and the noise bound (from
// the measured spread). A mean must clear both to fail.
func (g *Gate) Allowed(base, cur Stat) float64 {
	allowed := base.Mean * (1 + g.Tolerance)
	if g.K > 0 {
		if noise := base.Mean + g.K*cur.Std; noise > allowed {
			allowed = noise
		}
	}
	return allowed
}

// Compare gates cur against base for one (setting, metric) pair.
// Non-positive baseline means are skipped: there is nothing meaningful
// to regress from.
func (g *Gate) Compare(setting, metric string, base, cur Stat) {
	if base.Mean <= 0 {
		return
	}
	if allowed := g.Allowed(base, cur); cur.Mean > allowed {
		g.failures = append(g.failures, Failure{
			Setting: setting, Metric: metric, Kind: Regression,
			Base: base, Cur: cur, Allowed: allowed,
		})
	}
}

// Missing records a measured setting the baseline does not cover.
// Strict callers (the grid) treat an uncovered cell as a failure so new
// grid cells land with a deliberately refreshed baseline, never an
// accidental free pass.
func (g *Gate) Missing(setting, metric string, cur Stat) {
	g.failures = append(g.failures, Failure{
		Setting: setting, Metric: metric, Kind: MissingBaseline, Cur: cur,
	})
}

// OK reports whether every comparison passed.
func (g *Gate) OK() bool { return len(g.failures) == 0 }

// Failures returns the accumulated violations in comparison order.
func (g *Gate) Failures() []Failure { return g.failures }
