package core

import (
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
	records []profile.FineRecord

	// shards pools per-batch shard accumulators: a recycled shard Resets
	// in place (arena histograms and dense tables keep their
	// allocations), so the steady-state compact path allocates nothing.
	shards sync.Pool
}

func newFineStage(env Env) *fineStage {
	cfg, regs := env.Cfg.FineConfig, vpattern.FineDetectors(env.Patterns)
	s := &fineStage{}
	s.shards.New = func() any { return vpattern.NewFineAccumulatorWith(cfg, regs) }
	return s
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

// fineLaunch accumulates one instrumented launch's values. acc is nil
// until the first Absorb adopts a shard.
type fineLaunch struct {
	st  *fineStage
	acc *vpattern.FineAccumulator
}

func (s *fineStage) LaunchBegin(string) LaunchAnalysis {
	return &fineLaunch{st: s}
}

// Compact accumulates the batch's values into an independent shard
// running the same detector lineup, its histograms uncapped until the
// launch adopts or merges it (see FineAccumulator.Merge).
func (la *fineLaunch) Compact(b *Batch) Partial {
	shard := la.st.shards.Get().(*vpattern.FineAccumulator)
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

// Absorb folds shards in flush order: the first becomes the launch state
// (merging it into an empty accumulator would only replay it); later
// ones merge into it under the value cap and go back to the pool.
func (la *fineLaunch) Absorb(pt Partial) {
	shard := pt.(*vpattern.FineAccumulator)
	if la.acc == nil {
		la.acc = shard
		return
	}
	la.acc.Merge(shard)
	la.st.putShard(shard)
}

// LaunchEnd finalizes the launch's per-object pattern reports, then
// returns the launch state to the shard pool.
func (s *fineStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil || la.(*fineLaunch).acc == nil {
		return // filtered out, or no batch reached the launch
	}
	acc := la.(*fineLaunch).acc
	for _, fr := range acc.Finalize() {
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
	s.putShard(acc)
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
