// Asynchronous analysis pipeline: the reproduction of paper §6.1's
// double-buffered overlap of data collection and online analysis. The
// sanitizer cycles PipelineDepth flush buffers through a bounded hand-off
// queue; AnalysisWorkers workers compact each flushed batch into
// independent per-stage partials (recycling the record buffer the moment
// compaction ends, so buffers never wait on absorption); and a single
// ordered collector absorbs the partials in flush order, so the merged
// state — and therefore the emitted report — is byte-identical for every
// worker/depth setting. Synchronous analysis is the degenerate pipeline:
// with zero workers the same submit path compacts and absorbs inline on
// the kernel-execution goroutine.
package core

import (
	"slices"
	"sync"

	"valueexpert/gpu"
	"valueexpert/internal/telemetry"
)

// pendingBatch pairs a submitted batch with the slot its per-stage
// partials arrive in. The pending queue holds these in submission order,
// which is what makes out-of-order workers safe: the collector waits on
// each slot in turn.
type pendingBatch struct {
	b    *Batch
	done chan []Partial
}

// pipeline runs every registered stage's analysis for one instrumented
// launch. With workers it owns a compaction worker pool and an ordered
// collector; without, it executes inline.
type pipeline struct {
	p  *Profiler
	ls *launchState

	// work and pending are nil in inline mode.
	work    chan *pendingBatch
	pending chan *pendingBatch
	workers sync.WaitGroup
	// collected closes when the collector has absorbed every pending batch.
	collected chan struct{}
	drained   bool
}

// newPipeline builds the execution path for launch state ls: an inline
// executor when workers <= 0, else workers compaction goroutines plus the
// ordered collector. The Go runtime multiplexes them onto the host's
// processors alongside the kernel-execution goroutine.
func (p *Profiler) newPipeline(ls *launchState, workers, depth int) *pipeline {
	pl := &pipeline{p: p, ls: ls}
	if workers <= 0 {
		return pl
	}
	pl.work = make(chan *pendingBatch, depth)
	pl.pending = make(chan *pendingBatch, depth)
	pl.collected = make(chan struct{})
	for i := 0; i < workers; i++ {
		pl.workers.Add(1)
		lane := telemetry.LaneWorker0 + i
		go func() {
			defer pl.workers.Done()
			for pb := range pl.work {
				sp := p.tel.Span(lane, "analysis", "compact")
				parts := p.compact(pl.ls, pb.b)
				sp.End()
				// Partials are self-contained: the record buffer can
				// return to the sanitizer before absorption, so holding
				// partials downstream never starves collection.
				p.releaseBatch(pb.b)
				pb.b = nil
				pb.done <- parts
			}
		}()
	}
	go func() {
		defer close(pl.collected)
		for pb := range pl.pending {
			parts := <-pb.done
			sp := p.tel.Span(telemetry.LaneCollector, "analysis", "absorb")
			p.absorbAll(pl.ls, parts)
			sp.End()
		}
	}()
	return pl
}

// submit hands one flushed batch to the pipeline. Called on the
// kernel-execution goroutine. Inline mode analyzes the batch before
// returning; pipelined mode enqueues it, with backpressure from the
// sanitizer's buffer pool bounding in-flight batches to the pipeline
// depth, so neither channel send can block indefinitely.
func (pl *pipeline) submit(b *Batch) {
	if pl.work == nil {
		// Inline (zero-worker) analysis runs on the kernel goroutine but
		// traces on the collector lane, where absorbs always appear.
		sp := pl.p.tel.Span(telemetry.LaneCollector, "analysis", "analyze")
		parts := pl.p.compact(pl.ls, b)
		pl.p.releaseBatch(b)
		pl.p.absorbAll(pl.ls, parts)
		sp.End()
		return
	}
	pb := &pendingBatch{b: b, done: make(chan []Partial, 1)}
	pl.pending <- pb
	pl.work <- pb
	// Queue length after enqueue samples how full the pipeline runs —
	// its occupancy, bounded by the sanitizer's buffer pool.
	pl.p.probes.occupancy.Observe(int64(len(pl.pending)))
}

// drain stops the workers and waits for the collector to absorb every
// submitted batch. After drain returns, the launch state is complete and
// owned by the caller's goroutine. Idempotent: a launch drained on kernel
// failure may be drained again by interceptor replacement.
func (pl *pipeline) drain() {
	if pl.drained {
		return
	}
	pl.drained = true
	if pl.work == nil {
		return
	}
	close(pl.work)
	pl.workers.Wait()
	close(pl.pending)
	<-pl.collected
}

// compact turns one flushed buffer into the per-stage partials: the
// engine resolves each record's data object once (stages share the lookup
// pass), then every participating stage compacts the batch independently.
// compact only reads allocation metadata (stable while a kernel executes)
// and the batch itself, so any number of calls may run concurrently.
func (p *Profiler) compact(ls *launchState, b *Batch) []Partial {
	p.resolveObjects(b)
	parts := make([]Partial, len(ls.stages))
	for i, la := range ls.stages {
		if la != nil {
			sw := p.probes.compact[i].Start()
			parts[i] = la.Compact(b)
			sw.Stop()
			p.probes.batches[i].Inc()
		}
	}
	return parts
}

// resolveObjects fills b.IDs with each record's containing data object,
// reusing the batch's slice across flushes. Consecutive records
// overwhelmingly hit the same object (coalesced warps), so one cached
// allocation covers almost every lookup.
func (p *Profiler) resolveObjects(b *Batch) {
	mem := p.rt.Device().Mem
	if cap(b.IDs) < len(b.Recs) {
		b.IDs = make([]int, len(b.Recs))
	} else {
		b.IDs = b.IDs[:len(b.Recs)]
	}
	var cached *gpu.Allocation
	for i, a := range b.Recs {
		alloc := cached
		if alloc == nil || !alloc.Contains(a.Addr) {
			alloc = mem.Lookup(a.Addr)
			cached = alloc
		}
		if alloc == nil {
			b.IDs[i] = -1 // defensive: racing frees
			continue
		}
		b.IDs[i] = alloc.ID
	}
}

// absorbAll folds one batch's partials into each stage's launch state, in
// stage order. Partials must be absorbed in flush order: the
// fine-accumulator merge replays value first-occurrences, and
// reuse-distance analysis is order-sensitive by definition. In pipelined
// mode only the collector goroutine calls absorbAll; in inline mode, the
// kernel goroutine.
func (p *Profiler) absorbAll(ls *launchState, parts []Partial) {
	for i, la := range ls.stages {
		if la != nil && parts[i] != nil {
			sw := p.probes.absorb[i].Start()
			la.Absorb(parts[i])
			sw.Stop()
		}
	}
}

// newBatch wraps a flushed record buffer in a pooled Batch whose ID and
// range-capture allocations carry over from earlier flushes.
func (p *Profiler) newBatch(recs []gpu.Access) *Batch {
	b, _ := p.batchPool.Get().(*Batch)
	if b == nil {
		b = &Batch{}
	}
	b.Recs = recs
	return b
}

// releaseBatch returns the record buffer to the sanitizer pool and the
// batch shell — IDs slice, range-capture buffer — to the batch pool.
// Called the moment every stage has compacted the batch; partials are
// self-contained, so nothing downstream reads the batch again.
func (p *Profiler) releaseBatch(b *Batch) {
	p.san.Recycle(b.Recs)
	b.Recs = nil
	b.IDs = b.IDs[:0]
	b.rangeBytes = b.rangeBytes[:0]
	b.rangeOff = b.rangeOff[:0]
	p.batchPool.Put(b)
}

// captureRangeLoads bulk-reads the device bytes behind every compacted
// load-range record — one Memory.Read per record instead of one LoadRaw
// per element — so workers can decode element values from a stable host
// copy while the kernel keeps mutating device memory. Captures pack into
// the batch's reusable buffer; a read that fails (a malformed range
// straddling allocations) leaves no entry and the record contributes no
// fine-grained values, in either analysis mode.
func (b *Batch) captureRangeLoads(mem *gpu.Memory) {
	b.rangeOff = slices.Grow(b.rangeOff[:0], len(b.Recs))[:len(b.Recs)]
	clear(b.rangeOff)
	for i, a := range b.Recs {
		if a.Count <= 1 || a.Store {
			continue
		}
		n := int(a.Bytes())
		off := len(b.rangeBytes)
		if off+n <= cap(b.rangeBytes) {
			b.rangeBytes = b.rangeBytes[:off+n]
		} else {
			b.rangeBytes = append(b.rangeBytes, make([]byte, n)...)
		}
		if err := mem.Read(a.Addr, b.rangeBytes[off:off+n]); err != nil {
			b.rangeBytes = b.rangeBytes[:off]
			continue
		}
		b.rangeOff[i] = off + 1
	}
}
