package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllocFreeLookup(t *testing.T) {
	m := NewMemory(1 << 20)
	a, err := m.Alloc(100, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(200, "b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr < GlobalBase || b.Addr < a.End() {
		t.Fatalf("allocations overlap or misplaced: a=%#x b=%#x", a.Addr, b.Addr)
	}
	if a.Addr%256 != 0 || b.Addr%256 != 0 {
		t.Fatalf("allocations not 256-aligned: %#x %#x", a.Addr, b.Addr)
	}
	if got := m.Lookup(a.Addr + 50); got != a {
		t.Fatalf("Lookup mid-a = %v, want a", got)
	}
	if got := m.Lookup(b.End()); got != nil {
		t.Fatalf("Lookup past b = %v, want nil", got)
	}
	if err := m.Free(a.Addr); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(a.Addr); got != nil {
		t.Fatalf("Lookup freed = %v, want nil", got)
	}
	if got := m.LookupID(a.ID); got == nil || got.Live {
		t.Fatalf("LookupID freed = %+v, want dead metadata", got)
	}
	if err := m.Free(a.Addr); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := NewMemory(1 << 20)
	if _, err := m.Alloc(1<<15, "resident"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		size uint64
	}{
		{"oversize", 1 << 21},
		{"zero size", 0},
		// used+size wraps to a small number, which a naive capacity sum
		// would admit before failing in makeslice.
		{"used+size wraps", 18446744073709535232},
	} {
		if _, err := m.Alloc(tc.size, tc.name); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSharedWindow(t *testing.T) {
	m := NewMemory(1 << 20)
	sh := m.Shared()
	if sh.ID != 0 || !sh.Contains(SharedBase) || sh.Size != SharedSize {
		t.Fatalf("shared window malformed: %+v", sh)
	}
	if got := m.Lookup(SharedBase + 64); got != sh {
		t.Fatal("Lookup in shared window missed")
	}
	if got := m.LookupID(0); got != sh {
		t.Fatal("LookupID(0) should return shared")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(1 << 20)
	a, _ := m.Alloc(64, "rw")
	src := []byte{1, 2, 3, 4, 5}
	if err := m.Write(a.Addr+10, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 5)
	if err := m.Read(a.Addr+10, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if err := m.Write(a.Addr+60, src); err == nil {
		t.Fatal("overrun write succeeded")
	}
	if err := m.Read(GlobalBase-4096, dst); err == nil {
		t.Fatal("unmapped read succeeded")
	}
}

func TestSetFills(t *testing.T) {
	m := NewMemory(1 << 20)
	a, _ := m.Alloc(16, "set")
	if err := m.Set(a.Addr, 0xAB, 16); err != nil {
		t.Fatal(err)
	}
	for i, b := range a.Data {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
}

func TestRawLoadStoreSizes(t *testing.T) {
	m := NewMemory(1 << 20)
	a, _ := m.Alloc(64, "raw")
	cases := []struct {
		size uint8
		v    uint64
	}{
		{1, 0xFE}, {2, 0xBEEF}, {4, 0xDEADBEEF}, {8, 0x0102030405060708},
	}
	for _, c := range cases {
		if err := m.StoreRaw(a.Addr, c.size, c.v); err != nil {
			t.Fatal(err)
		}
		got, err := m.LoadRaw(a.Addr, c.size)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Fatalf("size %d: got %#x want %#x", c.size, got, c.v)
		}
	}
}

// Property: raw float encode/decode round-trips.
func TestFloatRawRoundTrip(t *testing.T) {
	f32 := func(f float32) bool {
		g := Float32FromRaw(RawFromFloat32(f))
		return g == f || (math.IsNaN(float64(f)) && math.IsNaN(float64(g)))
	}
	f64 := func(f float64) bool {
		g := Float64FromRaw(RawFromFloat64(f))
		return g == f || (math.IsNaN(f) && math.IsNaN(g))
	}
	if err := quick.Check(f32, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every address inside a set of allocations resolves to the
// allocation that owns it.
func TestLookupProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemory(1 << 26)
		var allocs []*Allocation
		for i, s := range sizes {
			if len(allocs) > 32 {
				break
			}
			a, err := m.Alloc(uint64(s%4096)+1, "p")
			if err != nil {
				return false
			}
			_ = i
			allocs = append(allocs, a)
		}
		for _, a := range allocs {
			if m.Lookup(a.Addr) != a || m.Lookup(a.End()-1) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAt(t *testing.T) {
	m := NewMemory(1 << 20)
	a, err := m.AllocAt(7, GlobalBase+0x1000, 256, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != 7 || a.Addr != GlobalBase+0x1000 || a.Size != 256 || !a.Live {
		t.Fatalf("pinned allocation malformed: %+v", a)
	}
	if got := m.Lookup(a.Addr + 10); got != a {
		t.Fatalf("Lookup inside pinned = %v, want a", got)
	}
	if got := m.LookupID(7); got != a {
		t.Fatalf("LookupID(7) = %v, want a", got)
	}
	// Ordinary allocation proceeds past the pinned range without overlap,
	// and never reuses the pinned ID.
	b, err := m.Alloc(128, "after")
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr < a.End() || b.ID <= 7 {
		t.Fatalf("follow-up allocation overlaps or reuses the pinned slot: %+v", b)
	}
	// The pinned range frees like any other.
	if err := m.Free(a.Addr); err != nil {
		t.Fatal(err)
	}
	if m.Lookup(a.Addr) != nil {
		t.Fatal("freed pinned allocation still mapped")
	}
}

func TestAllocAtErrors(t *testing.T) {
	m := NewMemory(1 << 20)
	a, err := m.Alloc(512, "existing")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		id   int
		addr uint64
		size uint64
	}{
		{"zero size", 2, GlobalBase + 0x4000, 0},
		{"non-positive id", 0, GlobalBase + 0x4000, 64},
		{"address wrap", 2, ^uint64(0) - 8, 64},
		{"shared overlap", 2, SharedBase + 16, 64},
		{"capacity", 2, GlobalBase + 0x100000, 1 << 21},
		{"id in use", a.ID, GlobalBase + 0x4000, 64},
		{"range overlap", 2, a.Addr + 16, 64},
	}
	for _, tc := range cases {
		if _, err := m.AllocAt(tc.id, tc.addr, tc.size, tc.name); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
