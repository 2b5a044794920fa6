package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the
// same names and units (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEndMetrics are gated: each has a bound in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"overhead_x", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"retained_kb_per_session", "KB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// latencyMetrics are the wall-clock percentiles and throughput. On a
// shared 2-vCPU VM they moved by up to half between runs with the
// host's load, past any bound a gate could hold, so they are per-layer
// metrics of the traced run (from its untraced half) and reported, but
// not gated, in every end-to-end run.
var latencyMetrics = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"session_ms_p50", "ms"},
	{"session_ms_tail", "ms"},
	{"sessions_per_s", "1/s"},
}

var perLayerMetrics = slices.Concat(latencyMetrics, []metricDef{
	{"gpu.unprofiled_ms", "ms"},
	{"gpu.kernel_window_unprofiled_ms", "ms"},
	{"source_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"core.api_begin_ms", "ms"},
	{"core.api_end_ms", "ms"},
	{"core.launch_begin_ms", "ms"},
	{"core.instrument_ms", "ms"},
	{"core.kernel_window_ms", "ms"},
	{"core.in_kernel_ms", "ms"},
	{"core.launch_end_ms", "ms"},
	{"sanitizer.records", "count"},
	{"sanitizer.flushes", "count"},
	{"sanitizer.flushes_per_launch", "ratio"},
	{"core.combines", "count"},
	{"core.combine_ratio", "ratio"},
	{"trace.decode_ms", "ms"},
	{"trace.bytes", "bytes"},
	{"trace.record_ms", "ms"},
	{"profile.report_ms", "ms"},
	{"profile.text_ms", "ms"},
	{"profile.json_ms", "ms"},
	{"profile.json_bytes", "bytes"},
	{"advisor.suggest_ms", "ms"},
	{"daemon.create_ms", "ms"},
	{"daemon.report_wait_ms", "ms"},
	{"daemon.delete_ms", "ms"},
	{"daemon.attach_handshake_ms", "ms"},
	{"daemon.attach_stream_ms", "ms"},
	{"daemon.attach_wait_ms", "ms"},
	{"daemon.queued", "count"},
	{"daemon.rejected", "count"},
	{"bench.check_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"unattributed_ms", "ms"},
	{"op_ms_mean", "ms"},
	{"trace_overhead_pct", "%"},
})

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("vxbench: undeclared metric " + name)
}

// provenance records where and how a result was measured, so results
// from different machines or sources are not compared unawares.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Time       string `json:"time"`
}

func newProvenance(workload string, seed int64, seconds, trace int) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel: cpuModel(), Commit: gitCommit(), Source: sourceDigest(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from .git in the working directory, or
// "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under the working
// directory, skipping hidden directories: it names the measured source
// even where there is no git history.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
