// Command vxtracebench measures the trace container's size and speed and
// writes the result as JSON — the trace trajectory file
// (BENCH_trace.json) maintained by make verify's bench-smoke step. One
// deterministic recording of a bundled workload is encoded and decoded
// in both container formats; the size metrics (bytes per access record,
// compression ratio of the columnar binary encoding over JSONL) are
// exact and reproducible, the throughput metrics are environmental
// context.
//
// With -baseline, the run is also a regression gate through the shared
// statistics-aware comparison (internal/benchgate): bytes-per-access
// growing beyond the tolerance fails the run with a per-setting diff of
// measured vs baseline vs allowed, as does the binary encoding falling
// under the 5x compression floor the format exists to provide (both
// checks are size-based, so the gate is deterministic and the noise
// bound never fires).
//
// Usage:
//
//	vxtracebench [-workload Darknet] [-scale 64] [-iters 3]
//	             [-out BENCH_trace.json]
//	             [-baseline BENCH_trace.json] [-tolerance 0.25] [-k 3]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/benchgate"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// compressionFloor is the minimum binary-over-JSONL ratio the columnar
// format must maintain; falling under it is a gate failure even against
// a generous tolerance.
const compressionFloor = 5.0

// result is the file schema: one recording measured in both encodings.
type result struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Iters    int    `json:"iters"`

	Events   int    `json:"events"`
	Accesses uint64 `json:"accesses"`

	// Exact, deterministic size metrics — what the gate compares.
	// BytesPerAccess is a benchgate.Stat for schema parity with the other
	// baseline files; the measurement is exact, so it is a single sample
	// with zero spread.
	BinaryBytes      int            `json:"binary_bytes"`
	JSONLBytes       int            `json:"jsonl_bytes"`
	BytesPerAccess   benchgate.Stat `json:"bytes_per_access"`
	CompressionRatio float64        `json:"compression_ratio"`

	// Environmental throughput context (bytes of the respective encoding
	// produced or consumed per second), not gated.
	EncodeMBPerS map[string]float64 `json:"encode_mb_per_s"`
	DecodeMBPerS map[string]float64 `json:"decode_mb_per_s"`
}

func main() {
	var (
		workload  = flag.String("workload", "Darknet", "workload to record")
		scale     = flag.Int("scale", 64, "problem-size divisor")
		iters     = flag.Int("iters", 3, "encode/decode timing repetitions")
		out       = flag.String("out", "BENCH_trace.json", "output file")
		baseline  = flag.String("baseline", "", "baseline result to gate against (skipped when absent)")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional bytes-per-access regression vs the baseline")
		k         = flag.Float64("k", 3, "noise bound: regressions inside k·std of the measured runs pass")
	)
	flag.Parse()

	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxtracebench:", err)
		os.Exit(2)
	}
	res, err := measure(*workload, *scale, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxtracebench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %d events, %d access records; binary %d bytes (%.2f B/access), jsonl %d bytes, compression %.1fx\n",
		res.Workload, res.Events, res.Accesses, res.BinaryBytes, res.BytesPerAccess.Mean,
		res.JSONLBytes, res.CompressionRatio)
	fmt.Fprintf(os.Stderr, "encode MB/s: binary %.0f, jsonl %.0f; decode MB/s: binary %.0f, jsonl %.0f\n",
		res.EncodeMBPerS["binary"], res.EncodeMBPerS["jsonl"],
		res.DecodeMBPerS["binary"], res.DecodeMBPerS["jsonl"])

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxtracebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "vxtracebench:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if failures := gate(base, res, *tolerance, *k); len(failures) > 0 {
		for _, r := range failures {
			fmt.Fprintln(os.Stderr, "vxtracebench: REGRESSION:", r)
		}
		os.Exit(1)
	}
	if base != nil {
		fmt.Fprintf(os.Stderr, "baseline gate passed (tolerance %.0f%%, %g·std noise bound)\n", 100**tolerance, *k)
	}
}

// loadBaseline reads a prior result. A missing file is not an error —
// the first run of a fresh checkout has nothing to gate against.
func loadBaseline(path string) (*result, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "vxtracebench: no baseline %s, gate skipped\n", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, nil
}

// gate applies the deterministic size checks through the shared gate:
// the compression floor always, the bytes-per-access comparison when a
// baseline exists — each failure a per-setting diff of measured vs
// baseline vs allowed.
func gate(base *result, cur result, tolerance, k float64) []benchgate.Failure {
	g := &benchgate.Gate{Tolerance: tolerance, K: k}
	g.Floor(cur.Workload, "compression_ratio", compressionFloor, benchgate.Single(cur.CompressionRatio))
	if base != nil {
		g.Compare(cur.Workload, "bytes_per_access", base.BytesPerAccess, cur.BytesPerAccess)
	}
	return g.Failures()
}

// measure records the workload once (one execution, the JSONL encoding
// mirrored off the same event stream so both containers hold the
// identical recording), then times re-encoding and decoding.
func measure(workload string, scale, iters int) (result, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return result{}, err
	}
	workloads.Scale = scale
	res := result{Workload: workload, Scale: scale, Iters: iters,
		EncodeMBPerS: map[string]float64{}, DecodeMBPerS: map[string]float64{}}

	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var binBuf, jsonlBuf bytes.Buffer
	rec := trace.Record(rt, &binBuf, trace.FormatBinary)
	rec.Mirror(trace.NewWriter(&jsonlBuf, trace.FormatJSONL))
	if err := w.Run(rt, workloads.Original); err != nil {
		rec.Close()
		return result{}, err
	}
	if err := rec.Close(); err != nil {
		return result{}, err
	}
	res.Events = rec.Events()
	res.Accesses = rec.Accesses()
	res.BinaryBytes = binBuf.Len()
	res.JSONLBytes = jsonlBuf.Len()
	if res.Accesses > 0 {
		res.BytesPerAccess = benchgate.Single(float64(res.BinaryBytes) / float64(res.Accesses))
	}
	if res.BinaryBytes > 0 {
		res.CompressionRatio = float64(res.JSONLBytes) / float64(res.BinaryBytes)
	}

	// Decode the recording into an event list once, so the encode timing
	// below measures serialization alone, not replay.
	var events []*trace.Event
	if err := trace.Scan(bytes.NewReader(binBuf.Bytes()), func(e *trace.Event) error {
		events = append(events, cloneEvent(e))
		return nil
	}); err != nil {
		return result{}, err
	}

	for _, fmt_ := range []trace.Format{trace.FormatBinary, trace.FormatJSONL} {
		mbs, err := timeEncode(events, fmt_, iters)
		if err != nil {
			return result{}, err
		}
		res.EncodeMBPerS[fmt_.String()] = mbs
	}
	for fmt_, data := range map[string][]byte{
		trace.FormatBinary.String(): binBuf.Bytes(),
		trace.FormatJSONL.String():  jsonlBuf.Bytes(),
	} {
		mbs, err := timeDecode(data, iters)
		if err != nil {
			return result{}, err
		}
		res.DecodeMBPerS[fmt_] = mbs
	}
	return res, nil
}

// timeEncode serializes the event list iters times and reports encoded
// megabytes produced per second.
func timeEncode(events []*trace.Event, f trace.Format, iters int) (float64, error) {
	var bytesOut int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		w := trace.NewWriter(io.Discard, f)
		for _, e := range events {
			if err := w.WriteEvent(e); err != nil {
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		bytesOut += w.BytesWritten()
	}
	return mbPerS(bytesOut, time.Since(start)), nil
}

// timeDecode scans the serialized container iters times and reports
// consumed megabytes per second.
func timeDecode(data []byte, iters int) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := trace.Scan(bytes.NewReader(data), func(e *trace.Event) error {
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return mbPerS(int64(len(data))*int64(iters), time.Since(start)), nil
}

func mbPerS(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// cloneEvent deep-copies a scanned event (Scan reuses its buffers).
func cloneEvent(e *trace.Event) *trace.Event {
	cp := *e
	cp.Frames = append([]callpath.Frame(nil), e.Frames...)
	cp.Accesses = append([]trace.AccessRec(nil), e.Accesses...)
	cp.HostSrc = append([]byte(nil), e.HostSrc...)
	if e.Capsule != nil {
		ci := *e.Capsule
		ci.ObjectIDs = append([]int(nil), e.Capsule.ObjectIDs...)
		cp.Capsule = &ci
	}
	return &cp
}
