// Engine self-observability: when Config.Telemetry carries a recorder,
// Attach threads probes through every layer — sanitizer flush volume and
// buffer-wait stalls, per-stage compact/absorb timers, pipeline occupancy
// and drain waits, interval-merge volumes, and the coarse stage's
// snapshot diff/apply timers with per-strategy copy traffic — and
// declares the self-trace lanes (kernel execution, the collector, one
// lane per analysis worker). With a nil recorder every probe is nil and
// the engine's hot paths pay only pointer tests.
package core

import (
	"fmt"

	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/sanitizer"
	"valueexpert/internal/telemetry"
)

// engineProbes are the engine-owned probes, indexed to match
// Profiler.stages where per-stage. The slices are always allocated so
// hot paths index without branching; entries are nil when telemetry is
// off.
type engineProbes struct {
	// flushCapture times the kernel-goroutine share of each flush:
	// value capture plus pipeline hand-off.
	flushCapture *telemetry.Timer
	// drainWait times the launch-end wait for in-flight batches — the
	// analysis the pipeline failed to hide behind kernel execution.
	drainWait *telemetry.Timer
	// occupancy samples the pending-batch queue length at each submit.
	occupancy *telemetry.Gauge

	// compact/absorb/finalize/batches instrument each stage's pipeline
	// work: worker-side compaction, the collector's serial absorbs, and
	// launch-end finalization.
	compact  []*telemetry.Timer
	absorb   []*telemetry.Timer
	finalize []*telemetry.Timer
	batches  []*telemetry.Counter

	// failedAPIs counts runtime APIs that began but never completed;
	// skippedLaunches counts instrumented launches Drain discarded.
	failedAPIs      *telemetry.Counter
	skippedLaunches *telemetry.Counter

	// evictedObjects counts dead data objects whose report state the
	// engine evicted (Config.RetainDeadObjects).
	evictedObjects *telemetry.Counter
}

// initTelemetry builds the probe set (and, with a recorder, the metric
// registry and trace lanes). Called once from Attach, after stages are
// registered; must precede the sanitizer's construction so its probes
// exist.
func (p *Profiler) initTelemetry() {
	tel := p.cfg.Telemetry
	p.tel = tel
	n := len(p.stages)
	p.probes = engineProbes{
		compact:  make([]*telemetry.Timer, n),
		absorb:   make([]*telemetry.Timer, n),
		finalize: make([]*telemetry.Timer, n),
		batches:  make([]*telemetry.Counter, n),
	}
	if tel == nil {
		return
	}
	tel.SetProgram(p.cfg.Program)
	p.probes.flushCapture = tel.Timer("collector.flush_capture")
	p.probes.drainWait = tel.Timer("pipeline.drain_wait")
	p.probes.occupancy = tel.Gauge("pipeline.occupancy")
	p.probes.failedAPIs = tel.Counter("engine.failed_apis")
	p.probes.skippedLaunches = tel.Counter("engine.skipped_launches")
	p.probes.evictedObjects = tel.Counter("engine.evicted_objects")
	if plan := p.rt.Faults(); plan != nil {
		// Count fired injections as they happen. The plan must be armed
		// before Attach for this wiring (and the sanitizer's) to exist.
		injected := tel.Counter("faults.injected")
		plan.SetOnFire(func(faultinject.Injection) { injected.Inc() })
	}
	for i, st := range p.stages {
		p.probes.compact[i] = tel.Timer("stage." + st.Name() + ".compact")
		p.probes.absorb[i] = tel.Timer("stage." + st.Name() + ".absorb")
		p.probes.finalize[i] = tel.Timer("stage." + st.Name() + ".finalize")
		p.probes.batches[i] = tel.Counter("stage." + st.Name() + ".batches")
	}

	tel.DeclareLane(telemetry.LaneKernel, "kernel execution")
	tel.DeclareLane(telemetry.LaneCollector, "collector")
	for i := 0; i < p.cfg.AnalysisWorkers; i++ {
		tel.DeclareLane(telemetry.LaneWorker0+i, fmt.Sprintf("analysis worker %d", i))
	}
}

// sanitizerProbes builds the sanitizer's probe set from the recorder
// (all nil with telemetry off — sanitizer probes no-op on nil).
func (p *Profiler) sanitizerProbes() sanitizer.Probes {
	return sanitizer.Probes{
		Flushes:        p.tel.Counter("sanitizer.flushes"),
		Records:        p.tel.Counter("sanitizer.records"),
		BufferWait:     p.tel.Timer("sanitizer.buffer_wait"),
		DroppedFlushes: p.tel.Counter("sanitizer.dropped_flushes"),
		DroppedRecords: p.tel.Counter("sanitizer.dropped_records"),
	}
}

// Telemetry returns the recorder carried by the configuration (nil when
// self-observation is off).
func (p *Profiler) Telemetry() *telemetry.Recorder { return p.tel }

// Overhead assembles the profiler's own cost breakdown — the §6-style
// attribution of where tool time went. Analysis and snapshot times come
// from the engine's always-on accounting; the collection-side split
// (flush capture, buffer-wait stalls, drain waits) needs Config.Telemetry
// and reports zero without it.
func (p *Profiler) Overhead() *profile.Overhead {
	o := &profile.Overhead{
		AnalysisTime: p.analysisTime,
		SnapshotTime: p.SnapshotCopyTime(),
	}
	if p.tel != nil {
		o.FlushCaptureTime = p.tel.Timer("collector.flush_capture").Total()
		o.BufferWaitTime = p.tel.Timer("sanitizer.buffer_wait").Total()
		o.DrainWaitTime = p.tel.Timer("pipeline.drain_wait").Total()
		o.CollectionTime = o.FlushCaptureTime + o.BufferWaitTime
	}
	return o
}
