// Package core implements ValueExpert itself as a staged
// collection→analysis engine. The engine owns data collection — GPU API
// interception, sanitizer buffers, the batch pipeline — and drives
// pluggable Analysis stages (paper §4, Figure 1): the coarse analyzer
// maintains value snapshots and the value flow graph, the fine analyzer
// recognizes per-access value patterns, and the reuse-distance analyzer
// rides the same instrumented stream.
package core

import (
	"fmt"
	"sync"
	"time"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/interval"
	"valueexpert/internal/profile"
	"valueexpert/internal/sanitizer"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/vflow"
	"valueexpert/internal/vpattern"
)

// Config selects ValueExpert's analyses and their cost controls.
type Config struct {
	// Coarse enables coarse-grained value pattern analysis (redundant and
	// duplicate values via snapshots, §5.1) and value-flow-graph
	// construction.
	Coarse bool
	// Fine enables fine-grained value pattern analysis of instrumented
	// accesses (§5.1).
	Fine bool

	// FineConfig tunes fine-grained recognition thresholds.
	FineConfig vpattern.FineConfig

	// Patterns selects the value-pattern detectors to run, by registry
	// name (vpattern.Names). nil runs every pattern enabled by default;
	// an empty non-nil slice disables them all. A pattern left out is
	// never constructed — it costs no per-access work, emits no report
	// rows, and yields no suggestions. Unknown names panic in Attach;
	// callers taking user input validate with vpattern.ParseSet first.
	Patterns []string

	// Instrumentation scope and sampling (§6.2).
	BufferRecords        int
	KernelFilter         func(name string) bool
	KernelSamplingPeriod int
	BlockSamplingPeriod  int

	// CopyStrategy selects the snapshot-update copy strategy (§6.1,
	// Figure 5). Default AdaptiveCopy.
	CopyStrategy interval.CopyStrategy

	// AnalysisWorkers is the number of concurrent workers draining flushed
	// sanitizer buffers — the analog of §6.1's data-processing kernels
	// running alongside collection. 0 analyzes each buffer synchronously on
	// the kernel-execution goroutine (the degenerate inline pipeline). Any
	// setting emits a byte-identical report: workers compact batches into
	// independent partials that a single collector folds in flush order.
	AnalysisWorkers int

	// PipelineDepth is the number of flush buffers cycled between the
	// collector and the analysis stage (§6.1's double buffering is depth
	// 2). <=0 selects AnalysisWorkers+1 when pipelined, else 1 — the
	// synchronous single-buffer behaviour.
	PipelineDepth int

	// ReuseDistance additionally computes per-kernel reuse-distance
	// histograms from the instrumented access stream — the follow-on
	// analysis the paper's conclusion proposes offloading onto this
	// measurement pipeline. Requires Coarse or Fine.
	ReuseDistance bool

	// RetainDeadObjects bounds how many freed data objects keep their
	// report state (object-table entry, coarse/fine records, flow-graph
	// edges, duplicate groups). 0 — the default — retains everything, the
	// one-shot behaviour. A positive bound evicts the least-recently-freed
	// objects' state once the dead set exceeds twice the bound (see
	// evict.go), keeping long-lived daemon sessions bounded in memory;
	// reported state for live and retained objects is unaffected.
	RetainDeadObjects int

	// Analyses registers additional custom stages after the built-in ones.
	// Each factory runs once per attached profiler, so every device gets
	// fresh stage state.
	Analyses []AnalysisFactory

	// Telemetry, when non-nil, threads self-observation probes through
	// every engine layer: per-stage timers and counters, pipeline
	// gauges, and (with a trace sink attached to the recorder) a Chrome
	// trace-event self-trace. nil — the default — keeps the engine's hot
	// paths probe-free; enabling telemetry never perturbs the emitted
	// report.
	Telemetry *telemetry.Recorder

	// Program names the profiled application in reports.
	Program string
}

// Profiler is a ValueExpert instance attached to one runtime. It is the
// collection engine: stages do the analysis.
type Profiler struct {
	cfg      Config
	patterns vpattern.Set
	rt       *cuda.Runtime

	tree  *callpath.Tree
	graph *vflow.Graph
	san   *sanitizer.Engine

	// stages are the registered analyses, lifecycle-driven in this order.
	stages []Analysis
	// coarse is the built-in coarse stage when Config.Coarse is set; the
	// Session's cross-device duplicate analysis reads its snapshot hashes.
	coarse *coarseStage

	objects []profile.Object

	launch *launchState

	// Degradation accounting: pending is the API event that has begun but
	// not yet ended (APIEnd never firing means the API failed), failedAPIs
	// collects those that never completed, skippedLaunches counts
	// instrumented launches whose analysis Drain discarded.
	pending         string
	failedAPIs      []string
	skippedLaunches int

	// Dead-object tracking (evict.go): pendingFree is the ID of the object
	// a cudaFree in flight is releasing (-1 when none), resolved in
	// APIBegin while still addressable; deadIDs lists freed objects in
	// free order, the engine's LRU order.
	pendingFree    int
	deadIDs        []int
	evictedObjects int

	analysisTime time.Duration

	// batchPool recycles Batch shells (ID slices, range-capture buffers)
	// across flushes so the per-batch hot path stops allocating.
	batchPool sync.Pool

	// tel and probes are the self-observability layer; tel is nil (and
	// every probe a no-op) unless Config.Telemetry carries a recorder.
	tel    *telemetry.Recorder
	probes engineProbes
}

// launchState tracks one instrumented kernel launch in flight: the
// sanitizer's finish hook, the pipeline executing the analysis, each
// stage's per-launch accumulator (indexed like Profiler.stages; nil for
// stages sitting this launch out), and the launch's self-trace span on
// the kernel-execution lane.
type launchState struct {
	finish func()
	pipe   *pipeline
	stages []LaunchAnalysis
	span   telemetry.Span
}

// Attach creates a profiler and installs it as rt's interceptor. The
// configuration must pass Validate; Attach panics on an invalid one (the
// historical contract — error-returning callers go through Profile or
// NewSession, which route the same validator's error back).
func Attach(rt *cuda.Runtime, cfg Config) *Profiler {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	if cfg.PipelineDepth <= 0 {
		if cfg.AnalysisWorkers > 0 {
			// One buffer filling plus one per worker draining keeps every
			// stage busy without unbounded buffering.
			cfg.PipelineDepth = cfg.AnalysisWorkers + 1
		} else {
			cfg.PipelineDepth = 1
		}
	}
	patterns, err := vpattern.ParseSet(cfg.Patterns)
	if err != nil {
		panic("core: " + err.Error())
	}
	p := &Profiler{
		cfg:         cfg,
		patterns:    patterns,
		rt:          rt,
		tree:        callpath.NewTree(),
		pendingFree: -1,
	}
	p.graph = vflow.New(p.tree)

	env := Env{RT: rt, Tree: p.tree, Graph: p.graph, Cfg: &p.cfg, Patterns: patterns, Tel: cfg.Telemetry}
	if cfg.Coarse {
		p.coarse = newCoarseStage(env)
		p.stages = append(p.stages, p.coarse)
	}
	if cfg.Fine {
		p.stages = append(p.stages, newFineStage(env))
	}
	if cfg.ReuseDistance {
		p.stages = append(p.stages, newReuseStage(env))
	}
	for _, f := range cfg.Analyses {
		p.stages = append(p.stages, f(env))
	}

	p.initTelemetry()
	p.san = sanitizer.New(sanitizer.Config{
		BufferRecords:        cfg.BufferRecords,
		PipelineDepth:        cfg.PipelineDepth,
		KernelFilter:         cfg.KernelFilter,
		KernelSamplingPeriod: cfg.KernelSamplingPeriod,
		BlockSamplingPeriod:  cfg.BlockSamplingPeriod,
		Probes:               p.sanitizerProbes(),
		// The runtime's armed fault plan (if any) also drives the
		// sanitizer's buffer-delivery fault points — arm before Attach.
		Faults: rt.Faults(),
	})
	rt.SetInterceptor(p)
	return p
}

// Profile attaches a profiler configured by cfg to src's runtime and runs
// the source's event stream through it. Live execution and trace replay
// are both event sources, so this is the one entry point for either mode.
// An invalid configuration returns its validation error with a nil
// profiler; once attached, the profiler is returned even on a stream
// error, holding whatever the stream produced before failing.
func Profile(src cuda.EventSource, cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cuda.Drive(src, func(rt *cuda.Runtime) *Profiler { return Attach(rt, cfg) })
}

// Detach removes the profiler from its runtime.
func (p *Profiler) Detach() { p.rt.SetInterceptor(nil) }

// Graph returns the program-wide value flow graph built so far.
func (p *Profiler) Graph() *vflow.Graph { return p.graph }

// Tree returns the calling-context tree.
func (p *Profiler) Tree() *callpath.Tree { return p.tree }

// AnalysisTime reports wall time spent inside the analyzer (overhead
// accounting for Figure 6).
func (p *Profiler) AnalysisTime() time.Duration { return p.analysisTime }

// instrumenting reports whether any registered stage consumes per-access
// records.
func (p *Profiler) instrumenting() bool {
	for _, st := range p.stages {
		if st.NeedsAccesses() {
			return true
		}
	}
	return false
}

// APIBegin implements cuda.Interceptor: stages observe the event before
// its device effect (frees are still addressable).
func (p *Profiler) APIBegin(ev *cuda.APIEvent) {
	// An API still pending from the previous Begin never ended: it failed.
	if p.pending != "" {
		p.failedAPIs = append(p.failedAPIs, p.pending)
		p.probes.failedAPIs.Inc()
	}
	p.pending = fmt.Sprintf("%s %q (seq %d)", ev.Kind, ev.Name, ev.Seq)
	if ev.Kind == cuda.APILaunch {
		return
	}
	if ev.Kind == cuda.APIFree {
		// Resolve the dying object's ID while it is still addressable; the
		// free joins the dead list only when its APIEnd confirms success.
		p.pendingFree = -1
		if a := p.rt.Device().Mem.Lookup(ev.Dst); a != nil {
			p.pendingFree = a.ID
		}
	}
	for _, st := range p.stages {
		st.APIBegin(ev)
	}
}

// Instrumentation implements cuda.Interceptor: it consults the sanitizer
// engine for the upcoming launch, opens each stage's per-launch
// accumulator, and builds the analysis pipeline the flushed buffers flow
// through.
func (p *Profiler) Instrumentation(kernelName string) (gpu.AccessFunc, func(int32) bool) {
	if !p.instrumenting() {
		return nil, nil
	}
	// A leftover launch means the previous kernel failed mid-execution
	// (its APIEnd never fired); discard its state before reusing buffers.
	if p.launch != nil {
		p.Drain()
	}
	ls := &launchState{stages: make([]LaunchAnalysis, len(p.stages))}
	needVals := false
	for i, st := range p.stages {
		if !st.NeedsAccesses() {
			continue
		}
		ls.stages[i] = st.LaunchBegin(kernelName)
		if ls.stages[i] != nil && st.NeedsValues() {
			needVals = true
		}
	}
	mem := p.rt.Device().Mem
	hook, filter, finish := p.san.Instrument(kernelName, func(recs []gpu.Access) {
		// On the kernel-execution goroutine. Only flush-time capture and
		// the hand-off run here; with workers, compaction and absorption
		// overlap the kernel's continued execution.
		start := time.Now()
		sw := p.probes.flushCapture.Start()
		p.tel.Instant(telemetry.LaneKernel, "sanitizer", "flush")
		b := p.newBatch(recs)
		if needVals {
			b.captureRangeLoads(mem)
		}
		ls.pipe.submit(b)
		sw.Stop()
		p.analysisTime += time.Since(start)
	})
	if hook == nil {
		p.launch = nil
		return nil, nil
	}
	// The flush closure reads ls.pipe on first use, after this point.
	ls.pipe = p.newPipeline(ls, p.cfg.AnalysisWorkers, p.cfg.PipelineDepth)
	ls.finish = finish
	ls.span = p.tel.Span(telemetry.LaneKernel, "kernel", kernelName)
	p.launch = ls
	return hook, filter
}

// Drain implements cuda.Drainer: it quiesces and discards any in-flight
// launch state. The runtime calls it when the interceptor is replaced or
// a kernel fails mid-execution; the partial launch's buffers return to
// the sanitizer pool and its analysis is dropped. Safe with no launch in
// flight, and idempotent.
func (p *Profiler) Drain() {
	ls := p.launch
	p.launch = nil
	if ls == nil {
		return
	}
	// A launch still in flight here failed mid-execution (a completed one
	// clears p.launch in onLaunch); its analysis is discarded, so the
	// report must mark the run degraded.
	p.skippedLaunches++
	p.probes.skippedLaunches.Inc()
	ls.span.End() // the aborted kernel still shows on its trace lane
	ls.pipe.drain()
	// Release the sanitizer's in-flight buffers (the partial current
	// buffer and any delayed delivery) so the next launch starts clean.
	p.san.Abort()
}

// APIEnd implements cuda.Interceptor: launches are finalized through the
// stages' LaunchEnd, every other event is forwarded to their APIEnd.
func (p *Profiler) APIEnd(ev *cuda.APIEvent) {
	// The interval counts once: a launch's final flush runs inside this
	// call and its callback adds to analysisTime, so restore the entry
	// value rather than adding on top of it.
	start, before := time.Now(), p.analysisTime
	defer func() { p.analysisTime = before + time.Since(start) }()

	p.pending = "" // the API completed
	if ev.Kind == cuda.APILaunch {
		p.onLaunch(ev)
		return
	}
	if ev.Kind == cuda.APIMalloc {
		p.onMalloc(ev)
	}
	for _, st := range p.stages {
		st.APIEnd(ev)
	}
	if ev.Kind == cuda.APIFree {
		p.noteFree()
	}
}

// onMalloc records the new data object in the engine-level object table;
// stage-specific allocation work (snapshots, graph vertices) happens in
// the stages' APIEnd.
func (p *Profiler) onMalloc(ev *cuda.APIEvent) {
	a := p.rt.Device().Mem.Lookup(ev.Dst)
	if a == nil {
		return
	}
	ctx := p.tree.Intern(ev.Frames)
	p.objects = append(p.objects, profile.Object{
		ID: a.ID, Tag: a.Tag, Size: a.Size, CallPath: p.tree.Format(ctx),
	})
}

// onLaunch completes a kernel launch: the pipeline drains so every
// stage's accumulator is fully absorbed and exclusively owned, then each
// stage finalizes in registration order.
func (p *Profiler) onLaunch(ev *cuda.APIEvent) {
	ls := p.launch
	p.launch = nil
	if ls != nil {
		ls.span.End() // close the kernel-execution trace lane
		ls.finish()   // flush the final partial buffer
		// Wait for in-flight batches; only analysis the pipeline failed to
		// hide behind kernel execution is spent here.
		sw := p.probes.drainWait.Start()
		dsp := p.tel.Span(telemetry.LaneKernel, "pipeline", "drain")
		ls.pipe.drain()
		dsp.End()
		sw.Stop()
	}
	for i, st := range p.stages {
		var la LaunchAnalysis
		if ls != nil {
			la = ls.stages[i]
		}
		sw := p.probes.finalize[i].Start()
		st.LaunchEnd(ev, la)
		sw.Stop()
	}
}

// Report assembles the annotated profile: the engine contributes the run
// header, object table, and collection statistics; each stage contributes
// its findings.
func (p *Profiler) Report() *profile.Report {
	dev := p.rt.Device()
	st := dev.Stats()
	sanSt := p.san.Stats()
	rep := &profile.Report{
		Tool: "ValueExpert", Device: dev.Prof.Name, Program: p.cfg.Program,
		Objects: append([]profile.Object(nil), p.objects...),
		Stats: profile.RunStats{
			KernelLaunches:   st.KernelLaunches,
			LaunchesProfiled: sanSt.LaunchesProfiled,
			MemcpyCalls:      st.MemcpyCalls,
			MemsetCalls:      st.MemsetCalls,
			AllocCalls:       st.AllocCalls,
			AccessRecords:    sanSt.Records,
			BufferFlushes:    sanSt.Flushes,
			KernelTime:       st.KernelTime,
			MemoryTime:       st.MemoryTime(),
			AnalysisTime:     p.analysisTime,
		},
	}
	// Record a non-default detector selection so report consumers know
	// which patterns ran; the default set stays implicit, keeping the
	// default-config report unchanged.
	if p.cfg.Patterns != nil {
		rep.EnabledPatterns = p.patterns.Names()
	}
	for _, stg := range p.stages {
		stg.Finish(rep)
	}
	rep.Degraded = p.degradedSection()
	return rep
}

// degradedSection assembles the report's Degraded section, or nil when
// the run lost nothing — keeping clean-run reports byte-identical whether
// or not fault plumbing was armed.
func (p *Profiler) degradedSection() *profile.Degraded {
	d := &profile.Degraded{
		FailedAPIs:      append([]string(nil), p.failedAPIs...),
		SkippedLaunches: p.skippedLaunches,
	}
	// An API still pending at report time began and never completed.
	if p.pending != "" {
		d.FailedAPIs = append(d.FailedAPIs, p.pending)
	}
	sanSt := p.san.Stats()
	d.DroppedRecords = sanSt.DroppedRecords
	d.DroppedFlushes = sanSt.DroppedFlushes
	for _, inj := range p.rt.Faults().Fired() {
		d.InjectedFaults = append(d.InjectedFaults, inj.String())
	}
	if len(d.FailedAPIs) == 0 && d.SkippedLaunches == 0 &&
		d.DroppedRecords == 0 && d.DroppedFlushes == 0 && len(d.InjectedFaults) == 0 {
		return nil
	}
	return d
}

// SnapshotCopyTime reports the simulated cost of snapshot maintenance
// under the configured copy strategy (the Figure 5 metric).
func (p *Profiler) SnapshotCopyTime() time.Duration {
	if p.coarse == nil {
		return 0
	}
	return p.coarse.snapshotTime
}

// String summarizes the profiler configuration.
func (p *Profiler) String() string {
	return fmt.Sprintf("ValueExpert(coarse=%v fine=%v strategy=%s)",
		p.cfg.Coarse, p.cfg.Fine, p.cfg.CopyStrategy)
}
