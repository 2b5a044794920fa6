package expgrid

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"valueexpert/internal/benchgate"
)

// Every writer here is deterministic for a fixed Result: rows follow the
// grid's cell order, floats print at fixed precision, and nothing
// environmental (timestamps, hostnames, paths) enters gated output —
// the golden-file tests hold the bytes still.

// runsHeader is the per-run CSV schema, one row per (cell, repeat).
const runsHeader = "workload,scale,patterns,workers,depth,rep,wall_ms,collection_ms,analysis_ms,snapshot_ms," +
	"compact_ms,absorb_ms,finalize_ms,flushes,records"

// WriteRunsCSV emits every individual measurement.
func (r *Result) WriteRunsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, runsHeader); err != nil {
		return err
	}
	for _, run := range r.Runs {
		c, s := run.Cell, run.Sample
		_, err := fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d\n",
			c.Workload.Name, c.Workload.Scale, c.patternLabel(),
			c.Setting.Workers, c.Setting.Depth, run.Rep,
			s.WallMS, s.CollectionMS, s.AnalysisMS, s.SnapshotMS,
			s.CompactMS, s.AbsorbMS, s.FinalizeMS, s.Flushes, s.Records)
		if err != nil {
			return err
		}
	}
	return nil
}

// summaryHeader is the grouped CSV schema, one row per cell.
const summaryHeader = "workload,scale,patterns,workers,depth,repeats," +
	"wall_mean_ms,wall_std_ms,wall_min_ms,wall_max_ms," +
	"analysis_mean_ms,analysis_std_ms,analysis_min_ms,analysis_max_ms," +
	"collection_mean_ms,snapshot_mean_ms," +
	"compact_mean_ms,absorb_mean_ms,finalize_mean_ms,flushes,records"

// WriteSummaryCSV emits the grouped mean/std/min/max statistics.
func (r *Result) WriteSummaryCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, summaryHeader); err != nil {
		return err
	}
	for _, g := range r.Groups {
		c := g.Cell
		_, err := fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d\n",
			c.Workload.Name, c.Workload.Scale, c.patternLabel(),
			c.Setting.Workers, c.Setting.Depth, g.Wall.Repeats,
			g.Wall.Mean, g.Wall.Std, g.Wall.Min, g.Wall.Max,
			g.Analysis.Mean, g.Analysis.Std, g.Analysis.Min, g.Analysis.Max,
			g.Collection.Mean, g.Snapshot.Mean,
			g.Compact.Mean, g.Absorb.Mean, g.Finalize.Mean, g.Flushes, g.Records)
		if err != nil {
			return err
		}
	}
	return nil
}

// Markdown renders the grouped summary as a table, the form EXPERIMENTS.md
// and CI artifacts embed.
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Grid `%s` — %d cells × %d repeats\n\n", r.Spec.Name, len(r.Groups), r.Spec.Repeats)
	b.WriteString("| workload | scale | patterns | workers | depth | wall ms (mean±std) | analysis ms (mean±std) | collection ms | snapshot ms | compact ms | absorb ms | finalize ms | flushes |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, g := range r.Groups {
		c := g.Cell
		scale := "—"
		if c.Workload.Corpus == "" {
			scale = fmt.Sprintf("%d", c.Workload.Scale)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %d | %.2f ± %.2f | %.2f ± %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %d |\n",
			c.Workload.Name, scale, c.patternLabel(), c.Setting.Workers, c.Setting.Depth,
			g.Wall.Mean, g.Wall.Std, g.Analysis.Mean, g.Analysis.Std,
			g.Collection.Mean, g.Snapshot.Mean,
			g.Compact.Mean, g.Absorb.Mean, g.Finalize.Mean, g.Flushes)
	}
	return b.String()
}

// BaselineCell is one cell's gated statistics in BENCH_grid.json.
type BaselineCell struct {
	Key      string         `json:"key"`
	Wall     benchgate.Stat `json:"wall_ms"`
	Analysis benchgate.Stat `json:"analysis_ms"`
}

// Baseline is the BENCH_grid.json schema: the grid's identity plus the
// per-cell statistics the gate compares against.
type Baseline struct {
	Grid    string         `json:"grid"`
	Repeats int            `json:"repeats"`
	Cells   []BaselineCell `json:"cells"`
}

// Baseline reduces a result to the checked-in gate file.
func (r *Result) Baseline() Baseline {
	b := Baseline{Grid: r.Spec.Name, Repeats: r.Spec.Repeats}
	for _, g := range r.Groups {
		b.Cells = append(b.Cells, BaselineCell{Key: g.Cell.Key(), Wall: g.Wall, Analysis: g.Analysis})
	}
	return b
}

// WriteBaseline writes the baseline file with stable formatting.
func (b Baseline) WriteBaseline(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBaseline reads a prior baseline. A missing file returns (nil, nil):
// a fresh checkout's first grid run has nothing to gate against and
// writes the initial file instead.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &b, nil
}

// Gate compares the result's cells against the baseline with the shared
// statistics-aware comparison: wall and analysis ms regress only when
// the measured mean exceeds the baseline mean by the tolerance AND by
// k·std of the measured runs. A measured cell missing from the baseline
// is a failure — new grid cells must land with a refreshed baseline.
func (r *Result) Gate(base *Baseline, tolerance, k float64) []benchgate.Failure {
	g := &benchgate.Gate{Tolerance: tolerance, K: k}
	byKey := make(map[string]BaselineCell, len(base.Cells))
	for _, c := range base.Cells {
		byKey[c.Key] = c
	}
	for _, grp := range r.Groups {
		key := grp.Cell.Key()
		b, ok := byKey[key]
		if !ok {
			g.Missing(key, "wall_ms", grp.Wall)
			continue
		}
		g.Compare(key, "wall_ms", b.Wall, grp.Wall)
		g.Compare(key, "analysis_ms", b.Analysis, grp.Analysis)
	}
	return g.Failures()
}
