package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/workloads"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		tail, pct  float64
		p50        float64
		wantBeyond int
	}{
		{n: 100, tail: 90, pct: 90, p50: 50.5, wantBeyond: 10},
		{n: 40, tail: 30, pct: 75, p50: 20.5, wantBeyond: 10},
		{n: 11, tail: 1, pct: 100.0 / 11, p50: 6, wantBeyond: 10},
		{n: 5, tail: 5, pct: 100, p50: 3, wantBeyond: 0}, // too few: the maximum
	} {
		s := summarize(seq(tc.n))
		if s.Tail != tc.tail || s.TailP != tc.pct || s.P50 != tc.p50 || s.N != tc.n {
			t.Errorf("n=%d: got %+v, want tail %v at p%v, p50 %v", tc.n, s, tc.tail, tc.pct, tc.p50)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != tc.wantBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tc.wantBeyond)
		}
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * us},
		{Name: "a", Parent: 0, Start: 10 * us, End: 40 * us},
		{Name: "b", Parent: 1, Start: 20 * us, End: 30 * us},
		{Name: "a", Parent: 0, Start: 50 * us, End: 60 * us},
		{Name: "twin", Parent: -1, Start: 100 * us, End: 130 * us},
	}
	if got, want := selfTimes(spans), []time.Duration{60 * us, 20 * us, 10 * us, 10 * us, 30 * us}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	ops, err := breakdowns(spans, "op")
	if err != nil {
		t.Fatal(err)
	}
	want := opBreakdown{
		Wall: 100 * us, Unattributed: 60 * us,
		Self:  map[string]time.Duration{"a": 30 * us, "b": 10 * us},
		Count: map[string]int{"a": 2, "b": 1},
	}
	if len(ops) != 1 || !reflect.DeepEqual(ops[0], want) {
		t.Fatalf("breakdowns = %+v, want %+v", ops, want)
	}

	// A child running past its parent breaks the sum; the check says so.
	spans[1].End = 110 * us
	if _, err := breakdowns(spans, "op"); err == nil {
		t.Fatal("breakdowns accepted a child span outside its parent")
	}
}

func TestSpanLogNests(t *testing.T) {
	l := newSpanLog(time.Now(), "ops")
	op := l.begin("op")
	c := l.begin("child")
	l.end(c)
	l.end(op)
	if l.spans[c].Parent != op || l.spans[op].Parent != -1 || len(l.open) != 0 {
		t.Fatalf("spans = %+v", l.spans)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []*spanLog{l}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name, Ph string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 3 || tr.TraceEvents[1].Ph != "X" || tr.TraceEvents[2].Name != "child" {
		t.Fatalf("trace events = %+v", tr.TraceEvents)
	}
}

// randomReport profiles a seeded random program and returns its JSON
// report with a nonzero analysis time.
func randomReport(t *testing.T, seed int64) []byte {
	t.Helper()
	prog := &workloads.RandomProgram{Seed: seed}
	p, err := core.Profile(cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
		if errs := prog.Run(rt); len(errs) > 0 {
			return errs[0]
		}
		return nil
	}), core.Config{Coarse: true, Fine: true, Program: "random"})
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	rep.Stats.AnalysisTime = 123456789
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffPaths lists the JSON paths at which a and b differ.
func diffPaths(path string, a, b any, out *[]string) {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	if aok && bok {
		keys := map[string]bool{}
		for k := range am {
			keys[k] = true
		}
		for k := range bm {
			keys[k] = true
		}
		for k := range keys {
			diffPaths(path+"."+k, am[k], bm[k], out)
		}
		return
	}
	al, aok := a.([]any)
	bl, bok := b.([]any)
	if aok && bok && len(al) == len(bl) {
		for i := range al {
			diffPaths(path+"["+strconv.Itoa(i)+"]", al[i], bl[i], out)
		}
		return
	}
	if !reflect.DeepEqual(a, b) {
		*out = append(*out, path)
	}
}

func TestMaskZeroesExactlyOneField(t *testing.T) {
	raw := randomReport(t, 3)
	masked, err := maskReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(masked, &b); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	diffPaths("", a, b, &diffs)
	if !reflect.DeepEqual(diffs, []string{".stats.analysis_time_ns"}) {
		t.Fatalf("masking changed %v, want only .stats.analysis_time_ns", diffs)
	}
	if v := b.(map[string]any)["stats"].(map[string]any)["analysis_time_ns"]; v != 0.0 {
		t.Fatalf("masked analysis_time_ns = %v", v)
	}
	if _, err := maskReport(append(raw, raw...)); err == nil {
		t.Fatal("maskReport accepted two reports in one")
	}
}

func TestGateFailsOnDoctoredReport(t *testing.T) {
	raw := randomReport(t, 5)
	g := newGate(nil)
	if err := g.addReference("random", raw, nil, refStats{}); err != nil {
		t.Fatal(err)
	}
	g.digests = g.digestTable()
	if err := g.check("random", raw); err != nil {
		t.Fatalf("gate rejected the reference itself: %v", err)
	}
	// Another analysis time, and a compacted spelling, still pass.
	var compact bytes.Buffer
	json.Compact(&compact, bytes.Replace(raw, []byte("123456789"), []byte("42"), 1))
	if err := g.check("random", compact.Bytes()); err != nil {
		t.Fatalf("gate rejected a re-timed, compacted copy: %v", err)
	}
	re := regexp.MustCompile(`"access_records": ([0-9]+)`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatal("no access_records in report")
	}
	n, _ := strconv.Atoi(string(m[1]))
	doctored := re.ReplaceAll(raw, []byte(`"access_records": `+strconv.Itoa(n+1)))
	if err := g.check("random", doctored); err == nil {
		t.Fatal("gate passed a doctored report")
	}
	if err := g.check("random", randomReport(t, 6)); err == nil {
		t.Fatal("gate passed another program's report")
	}
	// A reference missing its Table 1 patterns is refused outright.
	w, err := workloads.ByName("Darknet")
	if err != nil {
		t.Fatal(err)
	}
	if err := newGate(nil).addReference("Darknet", raw, w.ExpectedPatterns(), refStats{}); err == nil {
		t.Fatal("gate admitted a reference without its Table 1 patterns")
	}
}

func TestSameSeedSameDraw(t *testing.T) {
	draw := func(seed int64) []int {
		d := newDrawer(seed, 30)
		out := make([]int, 95)
		for i := range out {
			var pos int
			out[i], pos = d.next()
			if pos != i {
				t.Fatalf("draw %d reported position %d", i, pos)
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 drew two different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same sequence")
	}
	// Every round of 30 holds each program once.
	for r := 0; r+30 <= len(a); r += 30 {
		round := append([]int(nil), a[r:r+30]...)
		sort.Ints(round)
		for i, v := range round {
			if v != i {
				t.Fatalf("round %d is not a permutation: %v", r/30, round)
			}
		}
	}
}

// The metric names and units the program prints are the ones
// BENCHMARK.json declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", spec.PerLayer, perLayerMetrics)
	}
}

// Every workload sets up against the checked-in digests and passes its
// warm-up op: a change that alters a report must refresh digests.json.
func TestWorkloadsSetUp(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every benchmark program")
	}
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		b, err := setup(w, 1, digests[w])
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if _, err := b.warmUp(); err != nil {
			t.Errorf("%s warm-up: %v", w, err)
		}
		b.close()
	}
}
