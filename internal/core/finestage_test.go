package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
)

// testFineBatch synthesizes a resolved batch of n records over a handful
// of objects, mixing plain accesses with compacted store ranges and one
// captured load range, the shapes the fine stage expands.
func testFineBatch(rng *rand.Rand, n int) *Batch {
	b := &Batch{Recs: make([]gpu.Access, n), IDs: make([]int, n)}
	for i := range b.Recs {
		a := gpu.Access{
			Addr: uint64(rng.Intn(1<<14)) * 4, Size: 4, Kind: gpu.KindFloat,
			Raw: gpu.RawFromFloat32(float32(rng.Intn(32)) * 0.5), Store: rng.Intn(2) == 0,
		}
		if i%97 == 0 { // compacted store range: value repeats per element
			a.Store = true
			a.Count = 4
		}
		b.Recs[i] = a
		b.IDs[i] = rng.Intn(4)
	}
	// One captured load range decoded from the batch's capture buffer.
	b.Recs[1] = gpu.Access{Addr: 0x100, Size: 4, Kind: gpu.KindUint, Count: 3}
	b.rangeBytes = []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}
	b.rangeOff = make([]int, n)
	b.rangeOff[1] = 1 // offset 0, plus one
	return b
}

func newTestFineStage() *fineStage {
	return newFineStage(Env{Cfg: &Config{}})
}

// TestFineCompactAllocsFree: with the shard pool warmed, one
// compact-absorb round trip over a batch must not allocate — the
// engine-side half of the zero-alloc access path. Across launches, once
// warm launches have passed, a launch must not allocate either to begin,
// compact or absorb: it adopts a pooled shard instead of building an
// accumulator. LaunchEnd's record building is outside the measurement.
func TestFineCompactAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates around sync.Pool")
	}
	// sync.Pool keeps shards per P and drops them at GC; on one P with
	// collection off, a pooled shard is always found again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := newTestFineStage()
	la := st.LaunchBegin("k").(*fineLaunch)
	b := testFineBatch(rand.New(rand.NewSource(31)), 2048)
	round := func() { la.Absorb(la.Compact(b)) }
	round() // adopt the first shard as launch state
	round() // warm the pooled shard and the merge into the launch state
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("fine compact+absorb allocated %.1f times per warmed batch, want 0", allocs)
	}

	ev := &cuda.APIEvent{Kind: cuda.APILaunch, Name: "k"}
	st.LaunchEnd(ev, la)
	// Launch 0 adopts the shard that so far only merged: its first settle
	// sizes the approximate histograms.
	var ms runtime.MemStats
	for launch := 0; launch < 4; launch++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		next := st.LaunchBegin("k")
		next.Absorb(next.Compact(b)) // adopted
		next.Absorb(next.Compact(b)) // merged
		runtime.ReadMemStats(&ms)
		if allocs := ms.Mallocs - before; launch > 0 && allocs != 0 {
			t.Fatalf("launch %d after a warm one: begin+compact+absorb allocated %d times, want 0", launch, allocs)
		}
		st.LaunchEnd(ev, next)
	}
}
