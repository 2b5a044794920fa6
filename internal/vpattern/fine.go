package vpattern

import (
	"math"
	"sort"

	"valueexpert/gpu"
)

func ellipsis(yes bool) string {
	if yes {
		return ", …"
	}
	return ""
}

// FineConfig tunes fine-grained pattern recognition.
type FineConfig struct {
	// FrequentThreshold 𝒯 is the access share a value must exceed to be
	// "frequent" (Def 3.3). Default 0.5.
	FrequentThreshold float64
	// ApproxMantissaBits 𝒦 is the mantissa precision kept when relaxing
	// float values for approximate-pattern analysis (Def 3.8). Default 10
	// (≈3 decimal digits, within the paper's 2% RMSE budget).
	ApproxMantissaBits int
	// MaxTrackedValues caps the exact-value histogram; beyond it, new
	// distinct values are folded into an overflow count and single/
	// frequent detection degrades conservatively (no false positives).
	// Default 1<<16.
	MaxTrackedValues int
	// StructuredMinR2 is the minimum coefficient of determination for the
	// structured-values linear fit (Def 3.7). Default 0.99.
	StructuredMinR2 float64
	// StructuredMinCount is the minimum number of accesses before a
	// structured fit is attempted. Default 16.
	StructuredMinCount int
}

func (c FineConfig) withDefaults() FineConfig {
	if c.FrequentThreshold == 0 {
		c.FrequentThreshold = 0.5
	}
	if c.ApproxMantissaBits == 0 {
		c.ApproxMantissaBits = 10
	}
	if c.MaxTrackedValues == 0 {
		c.MaxTrackedValues = 1 << 16
	}
	if c.StructuredMinR2 == 0 {
		c.StructuredMinR2 = 0.99
	}
	if c.StructuredMinCount == 0 {
		c.StructuredMinCount = 16
	}
	return c
}

// hash mixes a Value into a table index with a splitmix64-style finalizer.
// Size and Kind fold into the high bits so values differing only in their
// declared type still spread.
func (v Value) hash() uint64 {
	h := v.Raw ^ uint64(v.Size)<<56 ^ uint64(v.Kind)<<48
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

const histMinSlots = 16 // power of two

// valueHist is an insertion-ordered value histogram. Ordering by first
// occurrence makes saturation behaviour and dominant-value selection
// deterministic, and lets two partial histograms merge into exactly the
// state one sequential pass over the concatenated streams would produce:
// replaying a partial's entries in insertion order against the saturation
// cap visits distinct values in global first-occurrence order.
//
// Layout: entries is a flat arena in first-occurrence order; slots is an
// open-addressing index over it (entry index + 1, 0 = empty, linear
// probing, power-of-two sized). Lookups touch one cache line of int32
// slots plus the entry itself — no per-value heap boxes — and a reset
// keeps both allocations, so a reused histogram adds values without
// allocating at all.
type valueHist struct {
	entries []ValueCount
	slots   []int32
}

// add counts n occurrences of v, admitting at most maxTracked distinct
// values. It reports whether v is tracked; untracked occurrences are the
// caller's to account (overflow or silent drop).
func (h *valueHist) add(v Value, n uint64, maxTracked int) bool {
	if len(h.slots) == 0 {
		h.grow(histMinSlots)
	}
	mask := uint64(len(h.slots) - 1)
	i := v.hash() & mask
	for {
		s := h.slots[i]
		if s == 0 {
			break
		}
		if e := &h.entries[s-1]; e.Value == v {
			e.Count += n
			return true
		}
		i = (i + 1) & mask
	}
	if len(h.entries) >= maxTracked {
		return false
	}
	h.entries = append(h.entries, ValueCount{Value: v, Count: n})
	h.slots[i] = int32(len(h.entries))
	// Keep the load factor under 3/4 so probe chains stay short.
	if 4*len(h.entries) >= 3*len(h.slots) {
		h.grow(2 * len(h.slots))
	}
	return true
}

// grow resizes the slot index to n (a power of two) and reindexes every
// entry. Also used to rebuild the index after trim.
func (h *valueHist) grow(n int) {
	if cap(h.slots) >= n {
		h.slots = h.slots[:n]
		clear(h.slots)
	} else {
		h.slots = make([]int32, n)
	}
	mask := uint64(n - 1)
	for idx := range h.entries {
		i := h.entries[idx].Value.hash() & mask
		for h.slots[i] != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = int32(idx + 1)
	}
}

// trim re-applies a saturation cap to an insertion-ordered histogram,
// returning the total count of evicted occurrences. Equivalent to
// replaying the entries through add with the given cap.
func (h *valueHist) trim(maxTracked int) uint64 {
	if len(h.entries) <= maxTracked {
		return 0
	}
	var evicted uint64
	for _, e := range h.entries[maxTracked:] {
		evicted += e.Count
	}
	h.entries = h.entries[:maxTracked]
	h.grow(len(h.slots))
	return evicted
}

// reset empties the histogram keeping both allocations, so the next use
// adds values without growing.
func (h *valueHist) reset() {
	h.entries = h.entries[:0]
	clear(h.slots)
}

func (h *valueHist) len() int { return len(h.entries) }

// table is a dense arena keyed by allocation ID: index maps an ID to its
// arena slot + 1 (0 = absent), arena stores the states by value in
// first-touch order, and ids remembers which IDs are present so reset and
// iteration never scan the full index. Allocation IDs are small and dense
// (a counter), so the index is a flat slice rather than a map — at() in
// the steady state is two slice loads.
//
// reset keeps every allocation: the index stays at length (only touched
// IDs are zeroed), the arena truncates but retains its slots' interior
// capacities, and at() revives truncated slots by re-extending the arena.
// The invariant making revival safe: reset clears each live slot before
// truncating, so everything between len(arena) and cap(arena) is always
// in its cleared state.
type table[T any] struct {
	index []int32
	ids   []int
	arena []T
}

// get returns id's state, or nil when absent.
func (t *table[T]) get(id int) *T {
	if id < 0 || id >= len(t.index) {
		return nil
	}
	s := t.index[id]
	if s == 0 {
		return nil
	}
	return &t.arena[s-1]
}

// at returns id's state, creating a cleared one if absent. The pointer is
// valid until the next at() call (arena growth may move states).
func (t *table[T]) at(id int) (p *T, created bool) {
	if id >= len(t.index) {
		n := id + 1
		if n < 2*len(t.index) {
			n = 2 * len(t.index)
		}
		if n < 16 {
			n = 16
		}
		idx := make([]int32, n)
		copy(idx, t.index)
		t.index = idx
	}
	if s := t.index[id]; s != 0 {
		return &t.arena[s-1], false
	}
	t.ids = append(t.ids, id)
	if len(t.arena) < cap(t.arena) {
		t.arena = t.arena[:len(t.arena)+1] // revive a cleared slot, keeping its capacities
	} else {
		var zero T
		t.arena = append(t.arena, zero)
	}
	t.index[id] = int32(len(t.arena))
	return &t.arena[len(t.arena)-1], true
}

// reset empties the table in place. clearSlot, when non-nil, clears one
// state preserving its interior allocations; nil zeroes states outright.
func (t *table[T]) reset(clearSlot func(*T)) {
	for _, id := range t.ids {
		t.index[id] = 0
	}
	if clearSlot != nil {
		for i := range t.arena {
			clearSlot(&t.arena[i])
		}
	} else {
		clear(t.arena)
	}
	t.arena = t.arena[:0]
	t.ids = t.ids[:0]
}

// ObjectShared is one data object's shared observation context: the
// access counters and exact-value histogram the accumulator maintains
// once per access, read by every detector at Finalize. Keeping the
// histogram here — rather than per detector — is what lets six detectors
// coexist at the cost the old monolith paid for one.
type ObjectShared struct {
	// Loads and Stores count accesses by direction.
	Loads, Stores uint64
	// Bytes is the total bytes accessed.
	Bytes uint64
	// Overflow counts accesses whose value fell outside the tracked set.
	Overflow uint64

	exact valueHist
	// approx holds the truncated float values (Def 3.8), derived per
	// distinct exact value (FineAccumulator.foldApprox), never per access.
	approx valueHist
	top    []ValueCount
}

// clear empties the state keeping the histograms' and ranking's
// allocations for reuse.
func (sh *ObjectShared) clear() {
	sh.Loads, sh.Stores, sh.Bytes, sh.Overflow = 0, 0, 0, 0
	sh.exact.reset()
	sh.approx.reset()
	sh.top = sh.top[:0]
}

// Accesses returns the total access count.
func (sh *ObjectShared) Accesses() uint64 { return sh.Loads + sh.Stores }

// Distinct returns the number of distinct exact values tracked (capped).
func (sh *ObjectShared) Distinct() int { return sh.exact.len() }

// Saturated reports whether the histogram cap was reached, making
// distinct/top counts lower bounds.
func (sh *ObjectShared) Saturated() bool { return sh.Overflow > 0 }

// Values returns the exact histogram in first-occurrence order. The
// slice is shared; callers must not mutate it.
func (sh *ObjectShared) Values() []ValueCount { return sh.exact.entries }

// Top returns the ranked most-frequent values (descending count, capped
// at 8), valid during Finalize. The slice is shared; callers must not
// mutate it.
func (sh *ObjectShared) Top() []ValueCount { return sh.top }

// Single returns the object's only value when exactly one distinct value
// was observed and the histogram never saturated.
func (sh *ObjectShared) Single() (Value, bool) {
	if sh.exact.len() == 1 && sh.Overflow == 0 {
		return sh.exact.entries[0].Value, true
	}
	return Value{}, false
}

// rankBefore is the ranking's strict total order: count descending, then
// raw/size/kind ascending, so the top set is reproducible across runs and
// worker configurations.
func rankBefore(a, b ValueCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.Value.Raw != b.Value.Raw {
		return a.Value.Raw < b.Value.Raw
	}
	if a.Value.Size != b.Value.Size {
		return a.Value.Size < b.Value.Size
	}
	return a.Value.Kind < b.Value.Kind
}

// rank computes the top-8 values with one bounded-insertion pass over the
// arena entries — no copy of the full histogram, no full sort. Because
// rankBefore is a strict total order, the kept set and its order equal
// those of a full sort truncated to 8.
func (sh *ObjectShared) rank() {
	const topK = 8
	top := sh.top[:0]
	if cap(top) < topK {
		top = make([]ValueCount, 0, topK)
	}
	for _, e := range sh.exact.entries {
		if len(top) == topK && !rankBefore(e, top[topK-1]) {
			continue
		}
		// Insertion position: shift the tail right, drop the overflow.
		pos := len(top)
		for pos > 0 && rankBefore(e, top[pos-1]) {
			pos--
		}
		if len(top) < topK {
			top = append(top, ValueCount{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = e
	}
	sh.top = top
}

// FineReport is the fine-grained pattern result for one data object at one
// GPU API.
type FineReport struct {
	ObjectID       int
	Accesses       uint64
	Loads, Stores  uint64
	Bytes          uint64
	DistinctValues int  // exact distinct values observed (capped)
	Saturated      bool // histogram cap reached; counts are lower bounds

	// TopValues are the most frequent values, descending by count.
	TopValues []ValueCount

	Patterns []Match
}

// ValueCount pairs a value with its access count.
type ValueCount struct {
	Value Value
	Count uint64
}

// HasPattern reports whether the report contains a pattern of kind k.
func (r *FineReport) HasPattern(k Kind) bool {
	for _, m := range r.Patterns {
		if m.Kind == k {
			return true
		}
	}
	return false
}

// Pattern returns the match of kind k, if present.
func (r *FineReport) Pattern(k Kind) (Match, bool) {
	for _, m := range r.Patterns {
		if m.Kind == k {
			return m, true
		}
	}
	return Match{}, false
}

// Resetter is the optional detector extension that clears state in place,
// letting the engine pool and reuse per-batch shard accumulators without
// reallocating detector state. A detector without it is rebuilt from its
// registration factory on every shard reset.
type Resetter interface {
	Reset()
}

// FineAccumulator ingests instrumented accesses grouped by data object and
// produces per-object fine-grained pattern reports for the current GPU
// API. It maintains the shared observation context (counters + exact
// histogram) and fans each access out to its detector lineup; matches are
// emitted in detector registration order. Reset between APIs (the online
// analyzer finalizes at each kernel exit).
//
// Add fills the exact histogram uncapped: an Add-fed accumulator is a
// per-batch shard, bounded by the flush buffer. MaxTrackedValues applies
// where state meets, when the accumulator settles (its first Merge, or
// Finalize) and when Merge replays a partial, so a shard adopted as
// launch state finalizes exactly as if merged into an empty accumulator.
type FineAccumulator struct {
	cfg     FineConfig
	regs    []Registration
	dets    []Detector
	objs    table[ObjectShared]
	approx  bool // the lineup runs the approximate-values detector
	settled bool // under the cap; Add must not follow before a Reset
}

// NewFineAccumulator creates an accumulator running every fine-grained
// detector enabled by default in the registry.
func NewFineAccumulator(cfg FineConfig) *FineAccumulator {
	return NewFineAccumulatorWith(cfg, FineDetectors(nil))
}

// NewFineAccumulatorWith creates an accumulator running exactly the given
// detector registrations. A detector left out costs nothing per access.
func NewFineAccumulatorWith(cfg FineConfig, regs []Registration) *FineAccumulator {
	fa := &FineAccumulator{cfg: cfg.withDefaults(), regs: regs}
	fa.dets = make([]Detector, len(regs))
	for i, r := range regs {
		fa.dets[i] = r.New(fa.cfg)
		if _, ok := fa.dets[i].(approxDetector); ok {
			fa.approx = true
		}
	}
	return fa
}

// Add records one access belonging to the data object objID. The exact
// histogram takes every distinct value; the cap waits for settle.
func (fa *FineAccumulator) Add(objID int, a gpu.Access) {
	sh, _ := fa.objs.at(objID)
	if a.Store {
		sh.Stores++
	} else {
		sh.Loads++
	}
	sh.Bytes += uint64(a.Size)
	sh.exact.add(Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}, 1, math.MaxInt)
	for _, d := range fa.dets {
		d.Observe(objID, a)
	}
}

// settle turns Add-fed state final: it derives the approximate histogram
// from the uncapped exact one, then trims that to the cap (equal to a
// capped replay). Idempotent until the next Reset.
func (fa *FineAccumulator) settle() {
	if fa.settled {
		return
	}
	fa.settled = true
	for i := range fa.objs.arena {
		sh := &fa.objs.arena[i]
		fa.foldApprox(sh, sh.exact.entries)
		sh.Overflow += sh.exact.trim(fa.cfg.MaxTrackedValues)
	}
}

// foldApprox adds uncapped exact entries' truncated float values, in
// insertion order and under the cap, to sh's approximate histogram: equal
// to hashing each access's, as first-occurrence order and counts carry.
func (fa *FineAccumulator) foldApprox(sh *ObjectShared, entries []ValueCount) {
	if !fa.approx {
		return
	}
	for _, e := range entries {
		if e.Value.Kind == gpu.KindFloat {
			sh.approx.add(e.Value.Truncate(fa.cfg.ApproxMantissaBits), e.Count, fa.cfg.MaxTrackedValues)
		}
	}
}

// Merge folds a partial accumulator into fa, producing exactly the state a
// single accumulator would hold after ingesting fa's access stream followed
// by other's. Pipelined analysis fills one partial per flushed batch on
// worker goroutines (shard pool) and merges them here in batch order, so
// the merged state — and hence the finalized report — is independent of
// worker count and scheduling. other must be Add-fed and run the same
// detector lineup. Merge settles fa, then replays other's uncapped entries
// in insertion order against fa's cap (a value past the partial's own cap
// may be tracked in fa). Merge reads other's state without consuming it,
// leaving the shard to the engine's pool (Reset) or the collector's discard.
func (fa *FineAccumulator) Merge(other *FineAccumulator) {
	fa.settle()
	for _, id := range other.objs.ids {
		ob := other.objs.get(id)
		sh, _ := fa.objs.at(id)
		sh.Loads += ob.Loads
		sh.Stores += ob.Stores
		sh.Bytes += ob.Bytes
		for _, e := range ob.exact.entries {
			if !sh.exact.add(e.Value, e.Count, fa.cfg.MaxTrackedValues) {
				sh.Overflow += e.Count
			}
		}
		fa.foldApprox(sh, ob.exact.entries)
	}
	for i, d := range fa.dets {
		d.Merge(other.dets[i])
	}
}

// Objects returns the IDs with accumulated accesses.
func (fa *FineAccumulator) Objects() []int {
	ids := append([]int(nil), fa.objs.ids...)
	sort.Ints(ids)
	return ids
}

// Reset clears all accumulated state for the next GPU API (or the next
// batch, for pooled shards) — in place: the object table, histograms, and
// detectors that implement Resetter keep their allocations, so a reused
// accumulator's Add path is allocation-free in the steady state.
func (fa *FineAccumulator) Reset() {
	fa.settled = false
	fa.objs.reset((*ObjectShared).clear)
	for i, d := range fa.dets {
		if r, ok := d.(Resetter); ok {
			r.Reset()
		} else {
			fa.dets[i] = fa.regs[i].New(fa.cfg)
		}
	}
}

// Finalize settles the accumulator and computes fine-grained pattern
// reports for every accumulated object, ordered by object ID.
func (fa *FineAccumulator) Finalize() []FineReport {
	fa.settle()
	var out []FineReport
	for _, id := range fa.Objects() {
		out = append(out, fa.finalizeObject(id, fa.objs.get(id)))
	}
	return out
}

func (fa *FineAccumulator) finalizeObject(id int, sh *ObjectShared) FineReport {
	total := sh.Accesses()
	r := FineReport{
		ObjectID: id, Accesses: total, Loads: sh.Loads, Stores: sh.Stores,
		Bytes: sh.Bytes, DistinctValues: sh.Distinct(), Saturated: sh.Saturated(),
	}
	if total == 0 {
		return r
	}
	sh.rank()
	r.TopValues = sh.top
	for _, d := range fa.dets {
		if m, ok := d.Finalize(id, sh); ok {
			r.Patterns = append(r.Patterns, m)
		}
	}
	return r
}
