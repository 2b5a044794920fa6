package core

import (
	"math"
	"runtime"
	"sync"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/profile"
	"valueexpert/internal/vpattern"
)

// fineStage is the fine-grained analyzer (§5.1): it accumulates every
// instrumented access's value into per-object histograms and fans each
// access out to the registry's enabled fine-grained detectors (frequent,
// single value, single zero, heavy type, structured, approximate, plus
// any out-of-tree registrations). A detector disabled in Env.Patterns is
// never constructed, so it costs nothing in Compact or Absorb.
type fineStage struct {
	cfg     vpattern.FineConfig
	regs    []vpattern.Registration
	records []profile.FineRecord

	// shards pools per-batch shard accumulators: a recycled shard Resets
	// in place (arena histograms and dense tables keep their
	// allocations), so the steady-state compact path allocates nothing.
	shards sync.Pool
}

func newFineStage(env Env) *fineStage {
	s := &fineStage{
		cfg:  env.Cfg.FineConfig,
		regs: vpattern.FineDetectors(env.Patterns),
	}
	s.shards.New = func() any {
		cfg := s.cfg
		cfg.MaxTrackedValues = math.MaxInt
		return vpattern.NewFineAccumulatorWith(cfg, s.regs)
	}
	return s
}

// getShard leases an empty uncapped shard from the pool.
func (s *fineStage) getShard() *vpattern.FineAccumulator {
	return s.shards.Get().(*vpattern.FineAccumulator)
}

// putShard resets a shard in place and returns it to the pool.
func (s *fineStage) putShard(sh *vpattern.FineAccumulator) {
	sh.Reset()
	s.shards.Put(sh)
}

func (s *fineStage) Name() string        { return "fine" }
func (s *fineStage) NeedsAccesses() bool { return true }

// NeedsValues: compacted load-range records carry no element values of
// their own; the engine must capture them at flush time.
func (s *fineStage) NeedsValues() bool { return true }

func (s *fineStage) APIBegin(*cuda.APIEvent) {}
func (s *fineStage) APIEnd(*cuda.APIEvent)   {}

// fineLaunch accumulates one instrumented launch's values.
type fineLaunch struct {
	st  *fineStage
	acc *vpattern.FineAccumulator
}

func (s *fineStage) LaunchBegin(string) LaunchAnalysis {
	return &fineLaunch{st: s, acc: vpattern.NewFineAccumulatorWith(s.cfg, s.regs)}
}

// Compact accumulates the batch's values into an independent uncapped
// shard running the same detector lineup. The shard must not saturate:
// the master re-applies the configured cap during the in-order merge,
// reproducing global first-occurrence eviction exactly (see
// FineAccumulator.Merge).
func (la *fineLaunch) Compact(b *Batch) Partial {
	shard := la.st.getShard()
	for i, a := range b.Recs {
		if b.Yield && i%yieldStride == 0 {
			runtime.Gosched()
		}
		id := b.IDs[i]
		if id < 0 {
			continue
		}
		if a.Count > 1 {
			// Expand compacted range records: fills repeat the stored
			// value; load values decode from the flush-time capture.
			elem := a
			elem.Count = 1
			if a.Store {
				for e := 0; e < a.Elems(); e++ {
					elem.Addr = a.Addr + uint64(e)*uint64(a.Size)
					shard.Add(id, elem)
				}
			} else if vals := b.RangeVal(i); vals != nil {
				for e := 0; e < a.Elems(); e++ {
					off := uint64(e) * uint64(a.Size)
					elem.Addr = a.Addr + off
					raw, err := gpu.RawValue(vals[off:], a.Size)
					if err != nil {
						continue // unsupported width: rejected upstream, skip defensively
					}
					elem.Raw = raw
					shard.Add(id, elem)
				}
			}
		} else {
			shard.Add(id, a)
		}
	}
	return shard
}

// Absorb merges a shard in flush order, re-applying the value cap, then
// recycles the shard to the pool.
func (la *fineLaunch) Absorb(pt Partial) {
	shard := pt.(*vpattern.FineAccumulator)
	la.acc.Merge(shard)
	la.st.putShard(shard)
}

// LaunchEnd finalizes the launch's per-object pattern reports.
func (s *fineStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil {
		return
	}
	for _, fr := range la.(*fineLaunch).acc.Finalize() {
		rec := profile.FineRecord{
			Seq: ev.Seq, Kernel: ev.Name, ObjectID: fr.ObjectID,
			Accesses: fr.Accesses, Loads: fr.Loads, Stores: fr.Stores,
			Bytes: fr.Bytes, Distinct: fr.DistinctValues, Saturated: fr.Saturated,
		}
		for _, vc := range fr.TopValues {
			rec.TopValues = append(rec.TopValues, profile.ValueCount{
				Value: vc.Value.Format(), Count: vc.Count,
			})
		}
		for _, m := range fr.Patterns {
			rec.Patterns = append(rec.Patterns, profile.Pattern{
				Kind: m.Kind.String(), Fraction: m.Fraction, Detail: m.Detail,
			})
		}
		s.records = append(s.records, rec)
	}
}

// EvictObjects implements ObjectEvicter: fine records are per-object, so
// an evicted object's records drop wholesale.
func (s *fineStage) EvictObjects(dead map[int]bool) {
	kept := s.records[:0]
	for _, rec := range s.records {
		if !dead[rec.ObjectID] {
			kept = append(kept, rec)
		}
	}
	clear(s.records[len(kept):])
	s.records = kept
}

// Finish contributes the fine records.
func (s *fineStage) Finish(rep *profile.Report) {
	rep.Fine = append([]profile.FineRecord(nil), s.records...)
}
