// Command vxpipebench measures the profiler's own overhead across
// analysis-worker settings and writes the result as JSON — the perf
// trajectory file (BENCH_pipeline.json) maintained by make verify's
// bench-smoke step. Each entry times -iters instrumented runs of a
// bundled workload and attributes the cost from the telemetry metrics
// export: collection (sanitizer flush capture + buffer waits) vs.
// analysis vs. snapshot maintenance, the same split the paper's §6
// overhead tables use, plus the analysis stage's own breakdown
// (worker-side compaction, the collector's serial absorbs, launch-end
// finalization). The gated metrics (wall, analysis)
// carry the repeats' mean AND spread, so the baseline file records how
// noisy the measurement was, not just where it landed.
//
// With -baseline, the run is also a regression gate through the shared
// statistics-aware comparison (internal/benchgate): a setting fails only
// when its measured mean exceeds the baseline mean by the tolerance AND
// by -k standard deviations of the measured runs, and the command exits
// nonzero printing a per-setting diff of measured vs baseline vs
// allowed.
//
// Usage:
//
//	vxpipebench [-workload Darknet] [-scale 64] [-workers 0,2,4]
//	            [-iters 1] [-out BENCH_pipeline.json]
//	            [-baseline BENCH_pipeline.json] [-tolerance 0.25] [-k 3]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"valueexpert"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/benchgate"
	"valueexpert/internal/workloads"
)

// setting is one measured pipeline configuration. The two gated metrics
// are full statistics; the attribution breakdown stays per-run means.
type setting struct {
	Workers int `json:"workers"`
	Depth   int `json:"depth"`

	// WallMSPerOp is total instrumented wall time per profiled run.
	WallMSPerOp benchgate.Stat `json:"wall_ms_per_op"`

	// AnalysisMSPerOp is the analysis stage's attributed time per run —
	// the metric ROADMAP item 1 worked down, gated so it stays down.
	AnalysisMSPerOp benchgate.Stat `json:"analysis_ms_per_op"`

	// Overhead attribution from the telemetry export, mean ms per run.
	CollectionMSPerOp float64 `json:"collection_ms_per_op"`
	SnapshotMSPerOp   float64 `json:"snapshot_ms_per_op"`

	// Analysis-stage breakdown (summed over stages), mean ms per run:
	// where the analysis cost actually sits — parallel worker-side
	// compaction, the collector's serial absorbs, and launch-end
	// finalization.
	CompactMSPerOp  float64 `json:"compact_ms_per_op"`
	AbsorbMSPerOp   float64 `json:"absorb_ms_per_op"`
	FinalizeMSPerOp float64 `json:"finalize_ms_per_op"`

	// Volume counters for context (totals over all iterations).
	SanitizerFlushes uint64 `json:"sanitizer_flushes"`
	SanitizerRecords uint64 `json:"sanitizer_records"`
	StageBatches     uint64 `json:"stage_batches"`
}

// trajectory is the file schema: one benchmark run of the pipeline at
// each worker setting.
type trajectory struct {
	Workload string    `json:"workload"`
	Scale    int       `json:"scale"`
	Iters    int       `json:"iters"`
	Settings []setting `json:"settings"`
}

func main() {
	var (
		workload  = flag.String("workload", "Darknet", "workload to instrument")
		scale     = flag.Int("scale", 64, "problem-size divisor")
		workerss  = flag.String("workers", "0,2,4", "comma-separated worker settings to measure")
		iters     = flag.Int("iters", 1, "profiled runs per setting")
		out       = flag.String("out", "BENCH_pipeline.json", "output file")
		baseline  = flag.String("baseline", "", "baseline trajectory to gate against (skipped when absent)")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression vs the baseline")
		k         = flag.Float64("k", 3, "noise bound: regressions inside k·std of the measured runs pass")
	)
	flag.Parse()

	settings, err := parseWorkers(*workerss)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxpipebench:", err)
		os.Exit(2)
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxpipebench:", err)
		os.Exit(2)
	}
	traj := trajectory{Workload: *workload, Scale: *scale, Iters: *iters}
	for _, w := range settings {
		s, err := measure(*workload, *scale, w, *iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vxpipebench:", err)
			os.Exit(1)
		}
		traj.Settings = append(traj.Settings, s)
		fmt.Fprintf(os.Stderr, "workers=%d: %.2f±%.2f ms/op (collection %.2f, analysis %.2f±%.2f [compact %.2f, absorb %.2f, finalize %.2f], snapshots %.2f)\n",
			s.Workers, s.WallMSPerOp.Mean, s.WallMSPerOp.Std, s.CollectionMSPerOp,
			s.AnalysisMSPerOp.Mean, s.AnalysisMSPerOp.Std,
			s.CompactMSPerOp, s.AbsorbMSPerOp, s.FinalizeMSPerOp,
			s.SnapshotMSPerOp)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxpipebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "vxpipebench:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if base != nil {
		if failures := gate(base, traj, *tolerance, *k); len(failures) > 0 {
			for _, r := range failures {
				fmt.Fprintln(os.Stderr, "vxpipebench: REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline gate passed (tolerance %.0f%%, %g·std noise bound)\n", 100**tolerance, *k)
	}
}

// loadBaseline reads a prior trajectory. A missing file is not an error —
// the first run of a fresh checkout has nothing to gate against.
func loadBaseline(path string) (*trajectory, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "vxpipebench: no baseline %s, gate skipped\n", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &t, nil
}

// gate compares each measured setting against the baseline setting with
// the same worker count through the shared statistics-aware comparison
// and returns every wall/analysis regression as a per-setting diff.
// Settings absent from the baseline pass (this CLI sweeps ad-hoc worker
// lists; the grid's strict coverage lives in vxgrid).
func gate(base *trajectory, cur trajectory, tolerance, k float64) []benchgate.Failure {
	byWorkers := map[int]setting{}
	for _, s := range base.Settings {
		byWorkers[s.Workers] = s
	}
	g := &benchgate.Gate{Tolerance: tolerance, K: k}
	for _, s := range cur.Settings {
		b, ok := byWorkers[s.Workers]
		if !ok {
			continue
		}
		key := fmt.Sprintf("workers=%d", s.Workers)
		g.Compare(key, "wall_ms_per_op", b.WallMSPerOp, s.WallMSPerOp)
		g.Compare(key, "analysis_ms_per_op", b.AnalysisMSPerOp, s.AnalysisMSPerOp)
	}
	return g.Failures()
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-workers: bad setting %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// measure profiles the workload iters times at the given worker count,
// keeping each run's wall/analysis sample so the gated statistics carry
// the spread, and averaging the telemetry-attributed breakdown.
func measure(workload string, scale, workers, iters int) (setting, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return setting{}, err
	}
	workloads.Scale = scale
	depth := 0
	if workers > 0 {
		depth = workers
	}
	s := setting{Workers: workers, Depth: depth}

	var wallS, analS, collS, snapS, compS, absS, finS []float64
	for i := 0; i < iters; i++ {
		tel := valueexpert.NewTelemetry()
		cfg := valueexpert.Config{
			Coarse: true, Fine: true,
			AnalysisWorkers: workers, PipelineDepth: depth,
			Telemetry: tel, Program: workload,
		}
		src := valueexpert.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
			return w.Run(rt, workloads.Original)
		})
		start := time.Now()
		p, err := valueexpert.Profile(src, cfg)
		if err != nil {
			return setting{}, err
		}
		wallS = append(wallS, ms(time.Since(start)))
		ov := p.Overhead()
		collS = append(collS, ms(ov.CollectionTime))
		analS = append(analS, ms(ov.AnalysisTime))
		snapS = append(snapS, ms(ov.SnapshotTime))
		m := tel.Metrics()
		s.SanitizerFlushes += m.Counters["sanitizer.flushes"]
		s.SanitizerRecords += m.Counters["sanitizer.records"]
		for name, v := range m.Counters {
			if strings.HasPrefix(name, "stage.") && strings.HasSuffix(name, ".batches") {
				s.StageBatches += v
			}
		}
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
		compS = append(compS, ms(compact))
		absS = append(absS, ms(absorb))
		finS = append(finS, ms(finalize))
		p.Detach()
	}
	mean := func(samples []float64) float64 { return benchgate.Summarize(samples).Mean }
	s.WallMSPerOp = benchgate.Summarize(wallS)
	s.AnalysisMSPerOp = benchgate.Summarize(analS)
	s.CollectionMSPerOp = mean(collS)
	s.SnapshotMSPerOp = mean(snapS)
	s.CompactMSPerOp = mean(compS)
	s.AbsorbMSPerOp = mean(absS)
	s.FinalizeMSPerOp = mean(finS)
	return s, nil
}
