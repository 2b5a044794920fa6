// Command vxbench is the repository's benchmark. It runs one named
// workload for a fixed time in one process, checks every report it
// produces, and prints every metric by name with its unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones. BENCHMARK.json at the repository root lists both
// sets; METRICS.md beside this file says what each one means.
//
// Usage (from the repository root):
//
//	bash vxbench/run.sh --workload live-darknet --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"valueexpert/internal/cliconfig"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 7

// bench is one workload, set up and ready to measure.
type bench interface {
	// warmUp runs one unmeasured op and returns how many sessions it
	// finished.
	warmUp() (int, error)
	measure(d time.Duration, traced bool) *phase
	// layers derives the per-layer metrics from a traced phase.
	layers(ph *phase) (map[string]float64, error)
	// service reports whether the workload is a long-lived service with
	// concurrent clients. Its CPU time is taken over the whole phase
	// rather than around each op, and it holds every session it
	// finished; a one-shot workload holds only its last op's profiler.
	service() bool
	gate() *gate
	close()
}

var workloadNames = []string{"live-darknet", "replay-pathfinder", "daemon-fleet"}

func setup(workload string, seed int64, digests map[string]string) (bench, error) {
	switch workload {
	case "live-darknet":
		return newLiveDarknet(digests)
	case "replay-pathfinder":
		return newReplayPathfinder(digests)
	case "daemon-fleet":
		return newFleet(seed, digests)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// engineOptions returns the engine options vxprof and vxprofd default to.
func engineOptions() cliconfig.Options {
	var o cliconfig.Options
	o.Register(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return o
}

func main() {
	var (
		workload     = flag.String("workload", "", "workload: live-darknet, replay-pathfinder or daemon-fleet")
		seed         = flag.Int64("seed", 1, "input seed (draws daemon-fleet's sessions)")
		seconds      = flag.Int("seconds", 30, "measured run length in seconds")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out          = flag.String("out", ".bench_build/vxbench-results", "directory for the result file and the Chrome trace")
		writeDigests = flag.String("write-digests", "", "build every reference report and write their digests to this file, then exit")
	)
	flag.Parse()
	if *writeDigests != "" {
		if err := regenerateDigests(*writeDigests); err != nil {
			fmt.Fprintln(os.Stderr, "vxbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "vxbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxbench:", err)
		os.Exit(1)
	}
	prov := newProvenance(*workload, *seed, *seconds, *traced)
	if err := res.write(*out, prov); err != nil {
		fmt.Fprintln(os.Stderr, "vxbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, prov); err != nil {
		fmt.Fprintln(os.Stderr, "vxbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, measures the last set-up,
// and assembles the metrics.
func run(workload string, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	var b bench
	var setups []float64
	var warmErr error
	sessions := 0
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		if b, err = setup(workload, seed, digests[workload]); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// A failed warm-up op is a defect the measured ops will show too;
		// it fails the result rather than hiding it behind a set-up error.
		n, err := b.warmUp()
		if err != nil {
			warmErr = err
		}
		sessions = n
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	res := &result{Workload: workload, Metrics: map[string]metric{}, Reported: map[string]metric{}, Extra: map[string]float64{}}
	defer func() {
		if warmErr != nil {
			res.Correct = false
			res.Errors = append(res.Errors, "warm-up: "+warmErr.Error())
		}
	}()
	if !traced {
		ph := b.measure(d, false)
		res.add(ph)
		sessions += len(ph.samples)
		endToEnd(res, b, ph, medianOf(setups), sessions)
		for i, v := range setups {
			res.Extra[fmt.Sprintf("setup_%d_s", i)] = v
		}
		return res, nil
	}
	// The traced run: an untraced half for the comparison, then the
	// traced half the layer metrics come from.
	u := b.measure(d/2, false)
	t := b.measure(d-d/2, true)
	res.add(u)
	res.add(t)
	if err := perLayer(res, b, u, t); err != nil {
		res.Correct = false
		res.Errors = append(res.Errors, err.Error())
	}
	if err := writeTrace(out, workload, seed, t.logs); err != nil {
		return nil, err
	}
	return res, nil
}

// sample is one verified op.
type sample struct {
	op, session, twin, cpu time.Duration
	program                string
	draw                   int // position in daemon-fleet's session sequence
}

// phase collects one measured stretch of a run.
type phase struct {
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration // process CPU over the phase
	cpu0    time.Duration
	mem     [2]runtime.MemStats
	logs    []*spanLog
	// timed, when set, are the samples the timing distributions use;
	// nil means all of them.
	timed []sample

	mu                sync.Mutex
	samples           []sample
	attempted, failed int
	errs              []string
	queued, rejected  int
}

func newPhase() *phase {
	ph := &phase{}
	runtime.ReadMemStats(&ph.mem[0])
	ph.cpu0, _ = rusage()
	ph.start = time.Now()
	return ph
}

func (ph *phase) finish() {
	ph.elapsed = time.Since(ph.start)
	cpu, _ := rusage()
	ph.cpu = cpu - ph.cpu0
	runtime.ReadMemStats(&ph.mem[1])
}

func (ph *phase) attempt() { ph.count(&ph.attempted) }

func (ph *phase) count(n *int) {
	ph.mu.Lock()
	*n++
	ph.mu.Unlock()
}

// maxErrors caps the failure messages a result keeps.
const maxErrors = 8

func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed++
	if len(ph.errs) < maxErrors {
		ph.errs = append(ph.errs, err.Error())
	}
}

func (ph *phase) ok(s sample) {
	ph.mu.Lock()
	ph.samples = append(ph.samples, s)
	ph.mu.Unlock()
}

// series extracts one duration of every timed sample, in ms.
func (ph *phase) series(f func(sample) time.Duration) []float64 {
	timed := ph.timed
	if timed == nil {
		timed = ph.samples
	}
	out := make([]float64, len(timed))
	for i, s := range timed {
		out[i] = ms(f(s))
	}
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run reports. The last stdout line carries
// Correct, Attempted, Failed and Metrics, the metrics BENCHMARK.json
// lists for the run's mode; the lines before it and the result file
// also carry Reported (metrics with units that the mode does not gate)
// and Extra (counts and settings behind the numbers).
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Reported  map[string]metric  `json:"reported"`
	Extra     map[string]float64 `json:"extra"`
	Errors    []string           `json:"errors,omitempty"`
}

// add counts a phase's ops into the result.
func (r *result) add(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Errors = append(r.Errors, ph.errs...)
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
}

// latency summarizes the op and session wall times of an untraced
// phase and its throughput: the latencyMetrics, with the tails'
// percentiles in Extra.
func latency(r *result, ph *phase) map[string]float64 {
	op := summarize(ph.series(func(s sample) time.Duration { return s.op }))
	sess := summarize(ph.series(func(s sample) time.Duration { return s.session }))
	r.Extra["op_ms_tail_percentile"] = op.TailP
	r.Extra["session_ms_tail_percentile"] = sess.TailP
	r.Extra["timed_ops"] = float64(op.N)
	return map[string]float64{
		"op_ms_p50": op.P50, "op_ms_tail": op.Tail,
		"session_ms_p50": sess.P50, "session_ms_tail": sess.Tail,
		"sessions_per_s": float64(len(ph.samples)) / ph.elapsed.Seconds(),
	}
}

// endToEnd fills the end-to-end metrics from an untraced phase, and
// reports its latencies beside them.
func endToEnd(r *result, b bench, ph *phase, setupS float64, sessions int) {
	n := len(ph.samples)
	opMS := ph.series(func(s sample) time.Duration { return s.op })
	twinMS := ph.series(func(s sample) time.Duration { return s.twin })
	ratios := make([]float64, len(opMS))
	for i := range opMS {
		ratios[i] = opMS[i] / twinMS[i]
	}
	cpu := mean(ph.series(func(s sample) time.Duration { return s.cpu }))
	held := 1
	if b.service() {
		cpu = ms(ph.cpu) / float64(max(n, 1))
		held = max(sessions, 1)
	}
	// Twice: the first cycle moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	_, rss := rusage()
	set := func(name string, v float64) { r.Metrics[name] = metric{v, unitOf(endToEndMetrics, name)} }
	set("overhead_x", medianOf(ratios))
	set("cpu_ms_per_op", cpu)
	set("retained_kb_per_session", float64(m.HeapAlloc)/1024/float64(held))
	set("peak_rss_mb", float64(rss)/1024)
	set("setup_s", setupS)
	for name, v := range latency(r, ph) {
		r.Reported[name] = metric{v, unitOf(latencyMetrics, name)}
	}
	r.Extra["failed_share"] = float64(ph.failed) / float64(max(ph.attempted, 1))
	r.Extra["ops"] = float64(n)
	r.Extra["held_sessions"] = float64(held)
}

// perLayer fills the per-layer metrics: layer times from the traced
// phase, Go runtime costs from the untraced one.
func perLayer(r *result, b bench, u, t *phase) error {
	m, err := b.layers(t)
	if err != nil {
		return err
	}
	for name, v := range latency(r, u) {
		m[name] = v
	}
	var st refStats
	var flushes, launches float64
	for _, s := range slices.Concat(u.samples, t.samples) {
		rs := b.gate().stats[s.program]
		st.Records += rs.Records
		st.Flushes += rs.Flushes
		st.Launches += rs.Launches
		st.Combines += rs.Combines
		st.JSONBytes += rs.JSONBytes
	}
	if n := float64(len(u.samples) + len(t.samples)); n > 0 {
		m["sanitizer.records"] = float64(st.Records) / n
		m["sanitizer.flushes"] = float64(st.Flushes) / n
		m["core.combines"] = float64(st.Combines) / n
		m["profile.json_bytes"] = float64(st.JSONBytes) / n
		flushes, launches = float64(st.Flushes), float64(st.Launches)
	}
	if launches > 0 {
		m["sanitizer.flushes_per_launch"] = flushes / launches
	}
	if flushes > 0 {
		m["core.combine_ratio"] = float64(st.Combines) / flushes
	}
	m["daemon.queued"] = float64(u.queued + t.queued)
	m["daemon.rejected"] = float64(u.rejected + t.rejected)
	if n := float64(len(u.samples)); n > 0 {
		m["go.allocs_per_op"] = float64(u.mem[1].Mallocs-u.mem[0].Mallocs) / n
		m["go.alloc_mb_per_op"] = float64(u.mem[1].TotalAlloc-u.mem[0].TotalAlloc) / (1 << 20) / n
		m["go.gc_cycles_per_op"] = float64(u.mem[1].NumGC-u.mem[0].NumGC) / n
	}
	if untraced := m["session_ms_p50"]; untraced > 0 {
		traced := summarize(t.series(func(s sample) time.Duration { return s.session }))
		m["trace_overhead_pct"] = (traced.P50/untraced - 1) * 100
	}
	for _, pm := range perLayerMetrics {
		r.Metrics[pm.Name] = metric{m[pm.Name], pm.Unit}
	}
	for name, v := range m {
		if _, ok := r.Metrics[name]; !ok {
			r.Extra[name] = v
		}
	}
	r.Extra["ops_untraced"] = float64(len(u.samples))
	r.Extra["ops_traced"] = float64(len(t.samples))
	return nil
}

func writeTrace(dir, workload string, seed int64, logs []*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", fileSafe(workload), seed)))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, logs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSafe(s string) string { return strings.ReplaceAll(s, "/", "_") }

// write saves the full result with its provenance.
func (r *result) write(dir string, prov provenance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		*result
	}{prov, r}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", fileSafe(r.Workload), prov.Seed, prov.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print writes the human-readable lines, then the result line.
func (r *result) print(w io.Writer, prov provenance) error {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", p)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	reported := make([]string, 0, len(r.Reported))
	for n := range r.Reported {
		reported = append(reported, n)
	}
	sort.Strings(reported)
	for _, n := range reported {
		fmt.Fprintf(w, "  %-34s %14.4f %s (reported, not gated)\n", n, r.Reported[n].Value, r.Reported[n].Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "  %-34s %14.4f\n", n, r.Extra[n])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// regenerateDigests sets every workload up without a digest table and
// writes the digests of all reference reports.
func regenerateDigests(path string) error {
	all := map[string]map[string]string{}
	for _, w := range workloadNames {
		b, err := setup(w, 1, nil)
		if err != nil {
			return err
		}
		all[w] = b.gate().digestTable()
		b.close()
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
