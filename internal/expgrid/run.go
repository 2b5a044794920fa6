package expgrid

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/benchgate"
	"valueexpert/internal/capsule"
	"valueexpert/internal/core"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/workloads"
)

// Sample is one repeat's measurement of one cell, in milliseconds.
// Corpus cells have no collection side and Reprofile zeroes the
// engine's overhead attribution, so their collection, analysis and
// snapshot fields stay 0 and are never gated; the analysis-stage
// breakdown and the volume counters come from telemetry for both kinds.
type Sample struct {
	WallMS       float64
	CollectionMS float64
	AnalysisMS   float64
	SnapshotMS   float64
	// The analysis stage's breakdown, summed over stages: worker-side
	// compaction, the collector's ordered absorbs, and launch-end
	// finalization (the stage.*.compact|absorb|finalize timers).
	CompactMS  float64
	AbsorbMS   float64
	FinalizeMS float64
	// Flushes and Records are the sanitizer buffer flushes and access
	// records behind the numbers, context for reading the spread
	// (identical every repeat for corpus cells — that is the point of the
	// corpus).
	Flushes uint64
	Records uint64
}

// Run is one (cell, repeat) measurement.
type Run struct {
	Cell   Cell
	Rep    int
	Sample Sample
}

// Group is one cell's repeats reduced to summary statistics.
type Group struct {
	Cell       Cell
	Wall       benchgate.Stat
	Collection benchgate.Stat
	Analysis   benchgate.Stat
	Snapshot   benchgate.Stat
	Compact    benchgate.Stat
	Absorb     benchgate.Stat
	Finalize   benchgate.Stat
	Flushes    uint64 // per-repeat flush count (max across repeats)
	Records    uint64 // per-repeat record volume (max across repeats)
}

// group reduces one cell's repeats to a Group.
func group(c Cell, samples []Sample) Group {
	stat := func(field func(Sample) float64) benchgate.Stat {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = field(s)
		}
		return benchgate.Summarize(v)
	}
	g := Group{
		Cell:       c,
		Wall:       stat(func(s Sample) float64 { return s.WallMS }),
		Collection: stat(func(s Sample) float64 { return s.CollectionMS }),
		Analysis:   stat(func(s Sample) float64 { return s.AnalysisMS }),
		Snapshot:   stat(func(s Sample) float64 { return s.SnapshotMS }),
		Compact:    stat(func(s Sample) float64 { return s.CompactMS }),
		Absorb:     stat(func(s Sample) float64 { return s.AbsorbMS }),
		Finalize:   stat(func(s Sample) float64 { return s.FinalizeMS }),
	}
	for _, s := range samples {
		g.Flushes = max(g.Flushes, s.Flushes)
		g.Records = max(g.Records, s.Records)
	}
	return g
}

// Result is a completed grid run.
type Result struct {
	Spec   Spec
	Runs   []Run
	Groups []Group
}

// Runner executes a grid spec. Measure is injectable so the output and
// gate layers are testable with deterministic fake measurements; nil
// selects the real profiled run.
type Runner struct {
	Spec Spec
	// Measure produces one repeat's sample for a cell. nil → MeasureCell.
	Measure func(c Cell, rep int) (Sample, error)
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// Run executes every cell Repeats times, in deterministic grid order,
// and reduces each cell's repeats to a Group.
func (r *Runner) Run() (*Result, error) {
	measure := r.Measure
	if measure == nil {
		measure = MeasureCell
	}
	res := &Result{Spec: r.Spec}
	for _, c := range r.Spec.Cells() {
		samples := make([]Sample, 0, r.Spec.Repeats)
		for rep := 0; rep < r.Spec.Repeats; rep++ {
			s, err := measure(c, rep)
			if err != nil {
				return nil, fmt.Errorf("cell %s repeat %d: %w", c.Key(), rep, err)
			}
			res.Runs = append(res.Runs, Run{Cell: c, Rep: rep, Sample: s})
			samples = append(samples, s)
		}
		g := group(c, samples)
		res.Groups = append(res.Groups, g)
		if r.Progress != nil {
			fmt.Fprintf(r.Progress, "%s: wall %.2f±%.2f ms, analysis %.2f±%.2f ms (n=%d)\n",
				c.Key(), g.Wall.Mean, g.Wall.Std, g.Analysis.Mean, g.Analysis.Std, g.Wall.Repeats)
		}
	}
	return res, nil
}

// MeasureCell is the real measurement: profile a live workload run or
// replay a capsule corpus, once, and attribute the cost from the
// engine's telemetry.
func MeasureCell(c Cell, rep int) (Sample, error) {
	if c.Workload.Corpus != "" {
		return measureCorpus(c)
	}
	return measureLive(c)
}

// measureLive profiles one instrumented run of a bundled workload with
// coarse and fine analysis on.
func measureLive(c Cell) (Sample, error) {
	w, err := workloads.ByName(c.Workload.Name)
	if err != nil {
		return Sample{}, err
	}
	oldScale := workloads.Scale
	workloads.Scale = c.Workload.Scale
	defer func() { workloads.Scale = oldScale }()

	tel := telemetry.New()
	cfg := core.Config{
		Coarse: true, Fine: true,
		Patterns:        splitPatterns(c.Patterns),
		AnalysisWorkers: c.Setting.Workers,
		PipelineDepth:   c.Setting.Depth,
		Telemetry:       tel,
		Program:         c.Workload.Name,
	}
	src := cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
		return w.Run(rt, workloads.Original)
	})
	start := time.Now()
	p, err := core.Profile(src, cfg)
	if err != nil {
		return Sample{}, err
	}
	defer p.Detach()
	s := Sample{WallMS: ms(time.Since(start))}
	ov := p.Overhead()
	s.CollectionMS = ms(ov.CollectionTime)
	s.AnalysisMS = ms(ov.AnalysisTime)
	s.SnapshotMS = ms(ov.SnapshotTime)
	s.fillTelemetry(tel.Metrics())
	return s, nil
}

// fillTelemetry fills the analysis-stage breakdown and the volume
// counters from a telemetry export.
func (s *Sample) fillTelemetry(m telemetry.Metrics) {
	s.Flushes = m.Counters["sanitizer.flushes"]
	s.Records = m.Counters["sanitizer.records"]
	var compact, absorb, finalize time.Duration
	for name, ts := range m.Timers {
		if !strings.HasPrefix(name, "stage.") {
			continue
		}
		d := time.Duration(ts.TotalNS)
		switch {
		case strings.HasSuffix(name, ".compact"):
			compact += d
		case strings.HasSuffix(name, ".absorb"):
			absorb += d
		case strings.HasSuffix(name, ".finalize"):
			finalize += d
		}
	}
	s.CompactMS, s.AbsorbMS, s.FinalizeMS = ms(compact), ms(absorb), ms(finalize)
}

// corpusCfg is the analysis configuration corpus capsules replay under —
// the same per-launch dimensions their checked-in reports were recorded
// with (see CorpusConfig in corpus.go), at the cell's pipeline setting.
func corpusCfg(c Cell, tel *telemetry.Recorder) core.Config {
	cfg := CorpusConfig()
	cfg.Patterns = splitPatterns(c.Patterns)
	cfg.AnalysisWorkers = c.Setting.Workers
	cfg.PipelineDepth = c.Setting.Depth
	cfg.Telemetry = tel
	return cfg
}

// measureCorpus replays every capsule in the cell's corpus directory and
// reports the total replay wall time, with the analysis breakdown summed
// over the capsules through one telemetry recorder. The input bytes are
// checked in, so the measured work is fixed — the closest thing the grid
// has to a noise-floor probe.
func measureCorpus(c Cell) (Sample, error) {
	files, err := CorpusFiles(c.Workload.Corpus)
	if err != nil {
		return Sample{}, err
	}
	if len(files) == 0 {
		return Sample{}, fmt.Errorf("corpus %s: no *.capsule files", c.Workload.Corpus)
	}
	tel := telemetry.New()
	var s Sample
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return Sample{}, err
		}
		start := time.Now()
		rep, _, err := capsule.Reprofile(data, corpusCfg(c, tel))
		if err != nil {
			return Sample{}, fmt.Errorf("%s: %w", path, err)
		}
		s.WallMS += ms(time.Since(start))
		if rep == nil {
			return Sample{}, fmt.Errorf("%s: empty report", path)
		}
	}
	s.fillTelemetry(tel.Metrics())
	return s, nil
}

// CorpusFiles lists a corpus directory's capsules in sorted order.
func CorpusFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.capsule"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
