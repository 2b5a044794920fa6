package vpattern_test

import (
	"math"
	"reflect"
	"testing"

	"valueexpert/detectors/poison"
	"valueexpert/gpu"
	"valueexpert/internal/vpattern"
)

// TestAdoptMatchesMergeIntoEmptyPoison: a launch adopts its first shard
// instead of merging it into an empty accumulator. By the Detector merge
// contract the two are the same state; the out-of-tree poison detector,
// which keeps map state and no Reset, must finalize identically either way.
func TestAdoptMatchesMergeIntoEmptyPoison(t *testing.T) {
	set, err := vpattern.ParseSet(append(vpattern.DefaultNames(), poison.Name))
	if err != nil {
		t.Fatal(err)
	}
	regs := vpattern.FineDetectors(set)
	cfg := vpattern.FineConfig{MaxTrackedValues: 4}
	fill := func(fa *vpattern.FineAccumulator, from, to int) {
		for i := from; i < to; i++ {
			v := float32(i % 7)
			switch i % 5 {
			case 0:
				v = float32(math.NaN())
			case 1:
				v = float32(math.Inf(-1))
			}
			fa.Add(1+i%2, gpu.Access{Addr: uint64(4 * i), Size: 4, Kind: gpu.KindFloat,
				Raw: gpu.RawFromFloat32(v), Store: i%3 == 0})
		}
	}
	adopted := vpattern.NewFineAccumulatorWith(cfg, regs)
	fill(adopted, 0, 40)
	merged := vpattern.NewFineAccumulatorWith(cfg, regs)
	merged.Merge(adopted)
	for _, fa := range []*vpattern.FineAccumulator{adopted, merged} {
		shard := vpattern.NewFineAccumulatorWith(cfg, regs)
		fill(shard, 40, 90)
		fa.Merge(shard)
	}
	want, got := merged.Finalize(), adopted.Finalize()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("adopted shard diverged from merge into empty\nwant %+v\ngot  %+v", want, got)
	}
	found := false
	for _, r := range got {
		found = found || r.HasPattern(poison.Kind)
	}
	if !found {
		t.Fatalf("no poison match in %+v", got)
	}
}
