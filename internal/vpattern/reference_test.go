package vpattern

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"valueexpert/gpu"
)

// refFine is the capped, per-access fine accumulator the engine used
// before shards settled under one cap policy, kept as an independent
// reference: every access applies the cap to a map-based exact histogram
// and hashes its truncated float value into a second capped histogram,
// as approximate-value detection once did on each access.
type refFine struct {
	cfg  FineConfig
	regs []Registration
	dets []Detector
	objs map[int]*refObject
}

type refObject struct {
	loads, stores, bytes, overflow uint64
	exact, approx                  *refHist
}

func newRefFine(cfg FineConfig, regs []Registration) *refFine {
	r := &refFine{cfg: cfg.withDefaults(), regs: regs, objs: map[int]*refObject{}}
	for _, reg := range regs {
		r.dets = append(r.dets, reg.New(r.cfg))
	}
	return r
}

func (r *refFine) add(objID int, a gpu.Access) {
	o := r.objs[objID]
	if o == nil {
		o = &refObject{exact: newRefHist(), approx: newRefHist()}
		r.objs[objID] = o
	}
	if a.Store {
		o.stores++
	} else {
		o.loads++
	}
	o.bytes += uint64(a.Size)
	v := Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}
	if !o.exact.add(v, 1, r.cfg.MaxTrackedValues) {
		o.overflow++
	}
	if a.Kind == gpu.KindFloat {
		o.approx.add(v.Truncate(r.cfg.ApproxMantissaBits), 1, r.cfg.MaxTrackedValues)
	}
	for _, d := range r.dets {
		d.Observe(objID, a)
	}
}

// finalize hands the reference's capped state, already final, to the
// detectors through a settled accumulator.
func (r *refFine) finalize() []FineReport {
	fa := NewFineAccumulatorWith(r.cfg, r.regs)
	fa.dets = r.dets
	fa.settled = true
	for id, o := range r.objs {
		sh, _ := fa.objs.at(id)
		sh.Loads, sh.Stores, sh.Bytes, sh.Overflow = o.loads, o.stores, o.bytes, o.overflow
		for _, e := range o.exact.entries() {
			sh.exact.add(e.Value, e.Count, math.MaxInt)
		}
		for _, e := range o.approx.entries() {
			sh.approx.add(e.Value, e.Count, math.MaxInt)
		}
	}
	return fa.Finalize()
}

// refStream draws accesses mixing randAccess's ints and floats with
// floats a hair apart around a few centres, so truncation merges exact
// values and the approximate histogram saturates under small caps.
func refStream(rng *rand.Rand, n int) ([]gpu.Access, func(i int) int) {
	accs, objOf := randStream(rng, n)
	for i := range accs {
		if rng.Intn(2) == 0 {
			continue
		}
		centre := float32(1 + rng.Intn(4)*20)
		accs[i] = f32Access(uint64(4*rng.Intn(256)), centre+float32(rng.Intn(64))*1e-5, rng.Intn(2) == 0)
	}
	return accs, objOf
}

// TestFineMatchesCappedReference: however a stream is cut into shards —
// finalized directly, adopted as launch state, or merged into an empty
// accumulator — the report equals the capped per-access reference's.
func TestFineMatchesCappedReference(t *testing.T) {
	lineups := map[string][]Registration{
		"defaults":  FineDetectors(nil),
		"no-approx": FineDetectors(Set{SingleValue: true, FrequentValues: true, HeavyType: true}),
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		const n = 500
		accs, objOf := refStream(rng, n)
		for _, maxTracked := range []int{2, 16, 0} {
			cfg := FineConfig{MaxTrackedValues: maxTracked}
			for name, regs := range lineups {
				ref := newRefFine(cfg, regs)
				for i, a := range accs {
					ref.add(objOf(i), a)
				}
				want := ref.finalize()

				seq := NewFineAccumulatorWith(cfg, regs)
				for i, a := range accs {
					seq.Add(objOf(i), a)
				}
				if got := seq.Finalize(); !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d cap %d %s: sequential diverged\nwant %+v\ngot  %+v", trial, maxTracked, name, want, got)
				}
				for i := range seq.objs.arena {
					if n := seq.objs.arena[i].approx.len(); (n > 0) != (name == "defaults") {
						t.Fatalf("trial %d cap %d %s: approximate histogram holds %d values", trial, maxTracked, name, n)
					}
				}
				for _, batch := range []int{1, 7, 64, n} {
					for _, adopt := range []bool{false, true} {
						got := mergeStream(cfg, regs, accs, objOf, batch, adopt)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("trial %d cap %d %s batch %d adopt=%v: diverged\nwant %+v\ngot  %+v",
								trial, maxTracked, name, batch, adopt, want, got)
						}
					}
				}
			}
		}
	}
}

// TestMergeNeverTrimsPartial: cap 2, a receiver already holding {A}, and
// a partial [B C A]. Replayed in order, B fills the cap, C overflows and
// A counts. Trimming the partial to its own first two values before the
// replay would instead drop A and keep C.
func TestMergeNeverTrimsPartial(t *testing.T) {
	cfg := FineConfig{MaxTrackedValues: 2}
	vals := []float32{1, 2, 3, 1} // A | B C A
	ref := newRefFine(cfg, FineDetectors(nil))
	recv := NewFineAccumulator(cfg)
	part := NewFineAccumulator(cfg)
	for i, v := range vals {
		a := f32Access(uint64(4*i), v, false)
		ref.add(1, a)
		if i == 0 {
			recv.Add(1, a)
		} else {
			part.Add(1, a)
		}
	}
	recv.Merge(part)
	got := recv.Finalize()
	if want := ref.finalize(); !reflect.DeepEqual(want, got) {
		t.Fatalf("merge diverged from the capped reference\nwant %+v\ngot  %+v", want, got)
	}
	r := got[0]
	if len(r.TopValues) != 2 || r.TopValues[0].Count != 2 || r.TopValues[0].Value.Numeric() != 1 ||
		r.TopValues[1].Value.Numeric() != 2 || !r.Saturated {
		t.Fatalf("want A counted twice, B once, C overflowed; got %+v", r)
	}
}

// TestApproxHistogramUnderSaturation: the approximate histogram derives
// from the exact values before the exact cap applies, so an exact value
// evicted by the cap still counts toward its truncated value, and the
// truncated histogram saturates on its own first occurrences.
func TestApproxHistogramUnderSaturation(t *testing.T) {
	cfg := FineConfig{MaxTrackedValues: 2, ApproxMantissaBits: 8}
	near := func(centre float32, from, to int) []float32 {
		var out []float32
		for i := from; i < to; i++ {
			out = append(out, centre+float32(i)*1e-4) // distinct exactly, one value truncated
		}
		return out
	}
	for _, c := range []struct {
		vals []float32
		frac float64 // the approximate match's fraction, 0 for none
	}{
		// Nine values truncating to 80, four of them past the exact cap
		// and interleaved with centres past the approximate cap.
		{append(append(near(80, 0, 5), 1, 20, 40), near(80, 5, 9)...), 9.0 / 12},
		// The dominant truncated value arrives past the approximate cap,
		// so it must not count.
		{append([]float32{1, 20}, near(40, 0, 10)...), 0},
	} {
		accs := make([]gpu.Access, len(c.vals))
		ref := newRefFine(cfg, FineDetectors(nil))
		for i, v := range c.vals {
			accs[i] = f32Access(uint64(4*i), v, false)
			ref.add(1, accs[i])
		}
		want := ref.finalize()
		if m, ok := want[0].Pattern(ApproximateValues); m.Fraction != c.frac || ok != (c.frac > 0) {
			t.Fatalf("%v: reference approximate match = %+v, %v; want fraction %v", c.vals, m, ok, c.frac)
		}
		for _, batch := range []int{1, 3, 5, len(c.vals)} {
			for _, adopt := range []bool{false, true} {
				got := mergeStream(cfg, FineDetectors(nil), accs, func(int) int { return 1 }, batch, adopt)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v batch %d adopt=%v: diverged\nwant %+v\ngot  %+v", c.vals, batch, adopt, want, got)
				}
			}
		}
	}
}
