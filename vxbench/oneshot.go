package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"valueexpert"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// oneShot is a workload whose op is one `vxprof -json` run in process:
// live-darknet profiles the program as it runs, replay-pathfinder
// replays a trace of it recorded during set-up.
type oneShot struct {
	program string
	cfg     core.Config
	prof    gpu.Profile
	run     func(rt *cuda.Runtime) error // the program, live
	replay  []byte                       // the recorded container; nil for a live workload
	check   *gate

	recordTime time.Duration // time to record the replayed trace

	// held keeps the last op's profiler and report reachable until the
	// run ends, as vxprof holds them until it exits.
	held struct {
		p   *core.Profiler
		rep *profile.Report
	}
}

// newLiveDarknet sets up live-darknet: Darknet at scale 64, coarse and
// fine analysis, synchronous (no analysis workers).
func newLiveDarknet(digests map[string]string) (*oneShot, error) {
	return newOneShot("Darknet", 64, engineOptions(), false, digests)
}

// newReplayPathfinder sets up replay-pathfinder: Rodinia/pathfinder at
// scale 8, recorded once, replayed with coarse, fine and reuse analysis
// on 2 workers with pipeline depth 2.
func newReplayPathfinder(digests map[string]string) (*oneShot, error) {
	opts := engineOptions()
	opts.ReuseDistance, opts.Workers, opts.Depth = true, 2, 2
	return newOneShot("Rodinia/pathfinder", 8, opts, true, digests)
}

func newOneShot(name string, scale int, opts cliconfig.Options, replay bool, digests map[string]string) (*oneShot, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	workloads.Scale = scale
	cfg, err := opts.EngineConfig(w.Name())
	if err != nil {
		return nil, err
	}
	o := &oneShot{
		program: w.Name(), cfg: cfg, prof: gpu.RTX2080Ti,
		run:   func(rt *cuda.Runtime) error { return w.Run(rt, workloads.Original) },
		check: newGate(digests),
	}
	// The reference is always a live run: a replayed report must equal
	// the live report of the same program.
	raw, st, err := referenceReport(o.prof, cfg, o.run)
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", name, err)
	}
	if err := o.check.addReference(o.program, raw, w.ExpectedPatterns(), st); err != nil {
		return nil, err
	}
	if replay {
		start := time.Now()
		var buf bytes.Buffer
		rt := cuda.NewRuntime(o.prof)
		rec := trace.Record(rt, &buf, trace.FormatBinary)
		runErr := o.run(rt)
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("recording %s: %w", name, err)
		}
		if runErr != nil {
			return nil, fmt.Errorf("recording %s: %w", name, runErr)
		}
		o.recordTime = time.Since(start)
		o.replay = buf.Bytes()
	}
	return o, nil
}

// referenceReport profiles run once, in process, with a telemetry
// recorder attached for the exact counts the report lacks. Telemetry
// never changes the report.
func referenceReport(prof gpu.Profile, cfg core.Config, run func(rt *cuda.Runtime) error) ([]byte, refStats, error) {
	tel := telemetry.New()
	cfg.Telemetry = tel
	p, err := core.Profile(cuda.NewLiveSource(cuda.NewRuntime(prof), run), cfg)
	if err != nil {
		return nil, refStats{}, err
	}
	var buf bytes.Buffer
	if err := p.Report().WriteJSON(&buf); err != nil {
		return nil, refStats{}, err
	}
	return buf.Bytes(), refStats{Combines: combines(tel.Metrics())}, nil
}

// combines counts the pre-combiner's pairwise folds. Each fold times
// every combinable stage once, so the busiest stage's count is the
// number of folds.
func combines(m telemetry.Metrics) uint64 {
	var n uint64
	for name, t := range m.Timers {
		if len(name) > len(".combine") && name[len(name)-len(".combine"):] == ".combine" {
			n = max(n, t.Count)
		}
	}
	return n
}

// source returns a fresh event source for one op.
func (o *oneShot) source() cuda.EventSource {
	if o.replay != nil {
		return trace.NewSource(bytes.NewReader(o.replay), o.prof)
	}
	return cuda.NewLiveSource(cuda.NewRuntime(o.prof), o.run)
}

// textSink keeps the rendered text report reachable so rendering it is
// never optimized away.
var textSink string

// profileOp is what `vxprof -json` does: Profile → Report → Text →
// Suggest → WriteJSON. With a span log, each call is a span and the
// profiler runs behind tracedProfiler.
func (o *oneShot) profileOp(log *spanLog) ([]byte, error) {
	step := func(name string, f func()) {
		if log == nil {
			f()
			return
		}
		id := log.begin(name)
		f()
		log.end(id)
	}
	var p *core.Profiler
	var err error
	if log == nil {
		p, err = core.Profile(o.source(), o.cfg)
	} else {
		step("source", func() {
			var t *tracedProfiler
			t, err = cuda.Drive(o.source(), attachTraced(o.cfg, log))
			p = t.p
		})
	}
	if err != nil {
		return nil, err
	}
	var rep *profile.Report
	var buf bytes.Buffer
	step("profile.report", func() { rep = p.Report() })
	step("profile.text", func() { textSink = rep.Text() })
	step("advisor.suggest", func() { _ = valueexpert.Suggest(rep, p.Graph()) })
	step("profile.json", func() { err = rep.WriteJSON(&buf) })
	o.held.p, o.held.rep = p, rep
	return buf.Bytes(), err
}

// runTwin runs the program unprofiled and returns its wall time. With a
// span log the twin is a "gpu.twin" root span whose kernel windows are
// spans too.
func runTwin(prof gpu.Profile, run func(rt *cuda.Runtime) error, log *spanLog) (time.Duration, error) {
	start := time.Now()
	rt := cuda.NewRuntime(prof)
	if log == nil {
		err := run(rt)
		return time.Since(start), err
	}
	id := log.begin("gpu.twin")
	rt.SetInterceptor(windowTimer(log))
	err := run(rt)
	log.end(id)
	return time.Since(start), err
}

func (o *oneShot) warmUp() (int, error) {
	raw, err := o.profileOp(nil)
	if err == nil {
		err = o.check.check(o.program, raw)
	}
	if err != nil {
		return 1, fmt.Errorf("%s: %w", o.program, err)
	}
	return 1, nil
}

// measure runs twin + op + check until d has passed. Only the op counts
// toward op_ms; session_ms adds the check, ending when the report is
// verified. A collection before the twin and before the op starts each
// on a clean heap, as a fresh vxprof process would: neither pays for
// the garbage of the one before.
func (o *oneShot) measure(d time.Duration, traced bool) *phase {
	ph := newPhase()
	var log *spanLog
	if traced {
		log = newSpanLog(ph.start, "ops")
		ph.logs = append(ph.logs, log)
	}
	for deadline := ph.start.Add(d); time.Now().Before(deadline); {
		ph.attempt()
		runtime.GC()
		twin, err := runTwin(o.prof, o.run, log)
		if err != nil {
			ph.fail(fmt.Errorf("unprofiled twin: %w", err))
			continue
		}
		runtime.GC()
		cpu0, _ := rusage()
		opID := -1
		if log != nil {
			opID = log.begin("op")
		}
		start := time.Now()
		raw, err := o.profileOp(log)
		op := time.Since(start)
		if log != nil {
			log.end(opID)
		}
		cpu1, _ := rusage()
		if err == nil {
			err = o.check.check(o.program, raw)
		}
		session := time.Since(start)
		if err != nil {
			ph.fail(fmt.Errorf("%s: %w", o.program, err))
			continue
		}
		ph.ok(sample{op: op, session: session, twin: twin, cpu: cpu1 - cpu0, program: o.program})
		if log != nil && o.replay != nil {
			id := log.begin("trace.scan")
			err := trace.Scan(bytes.NewReader(o.replay), func(*trace.Event) error { return nil })
			log.end(id)
			if err != nil {
				ph.fail(fmt.Errorf("trace.Scan: %w", err))
			}
		}
	}
	ph.finish()
	return ph
}

// layers derives the per-layer metrics of a traced phase.
func (o *oneShot) layers(ph *phase) (map[string]float64, error) {
	l := ph.logs[0]
	ops, err := breakdowns(l.spans, "op")
	if err != nil {
		return nil, err
	}
	m := selfMetrics(ops, slices.Concat(engineLayers, reportLayers))
	twins, err := breakdowns(l.spans, "gpu.twin")
	if err != nil {
		return nil, err
	}
	var twinWall, twinWindow []float64
	for _, t := range twins {
		twinWall = append(twinWall, ms(t.Wall))
		twinWindow = append(twinWindow, ms(t.Self["gpu.kernel_window"]))
	}
	m["gpu.unprofiled_ms"] = mean(twinWall)
	m["gpu.kernel_window_unprofiled_ms"] = mean(twinWindow)
	m["core.in_kernel_ms"] = m["core.kernel_window_ms"] - m["gpu.kernel_window_unprofiled_ms"]
	var scans []float64
	for _, s := range l.spans {
		if s.Parent < 0 && s.Name == "trace.scan" {
			scans = append(scans, ms(s.End-s.Start))
		}
	}
	m["trace.decode_ms"] = mean(scans)
	m["trace.bytes"] = float64(len(o.replay))
	m["trace.record_ms"] = ms(o.recordTime)
	return m, nil
}

// engineLayers are the spans a traced op puts around the event source
// and the profiler's interceptor calls.
var engineLayers = []string{
	"source", "core.attach", "core.api_begin", "core.api_end", "core.launch_begin",
	"core.instrument", "core.kernel_window", "core.launch_end",
}

// reportLayers are the spans around what a one-shot op does with the
// profile once the program has run.
var reportLayers = []string{"profile.report", "profile.text", "advisor.suggest", "profile.json"}

// selfMetrics averages each named layer's self time, and the residual,
// over ops: "<name>_ms" per op. The averages add up to the mean op wall
// time, which is reported beside them as op_ms_mean.
func selfMetrics(ops []opBreakdown, names []string) map[string]float64 {
	m := map[string]float64{}
	if len(ops) == 0 {
		return m
	}
	n := float64(len(ops))
	for _, b := range ops {
		for _, name := range names {
			m[name+"_ms"] += ms(b.Self[name]) / n
		}
		m["unattributed_ms"] += ms(b.Unattributed) / n
		m["op_ms_mean"] += ms(b.Wall) / n
	}
	return m
}

func (o *oneShot) gate() *gate   { return o.check }
func (o *oneShot) service() bool { return false }
func (o *oneShot) close()        {}
