package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"valueexpert/internal/telemetry"
)

// span is one timed call into a layer, on one goroutine. Times are
// offsets from the log's origin.
type span struct {
	Name       string
	Parent     int // index in spanLog.spans; -1 for a root
	Start, End time.Duration
}

// spanLog keeps the spans of one goroutine in memory. Spans nest: begin
// opens a child of the innermost open span and end closes the innermost.
type spanLog struct {
	t0    time.Time
	name  string // the thread's name in the trace file
	spans []span
	open  []int
}

func newSpanLog(t0 time.Time, name string) *spanLog { return &spanLog{t0: t0, name: name} }

// begin opens a span named name and returns its index.
func (l *spanLog) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.t0)})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (l *spanLog) end(id int) {
	n := len(l.open)
	if n == 0 || l.open[n-1] != id {
		panic(fmt.Sprintf("vxbench: span %q closed out of order", l.spans[id].Name))
	}
	l.spans[id].End = time.Since(l.t0)
	l.open = l.open[:n-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// opBreakdown is one root span's wall time split into the self times of
// every span under it, by span name. The root's own self time is the
// part no layer span covers: the unattributed residual.
type opBreakdown struct {
	Wall         time.Duration
	Self         map[string]time.Duration
	Count        map[string]int
	Unattributed time.Duration
}

// breakdowns splits every root span named root. It fails unless the
// self times of each op plus its residual add up to its wall time and
// the residual is not negative.
func breakdowns(spans []span, root string) ([]opBreakdown, error) {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	var out []opBreakdown
	index := map[int]int{} // root span → position in out
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			if s.Name == root {
				index[i] = len(out)
				out = append(out, opBreakdown{
					Wall: s.End - s.Start, Unattributed: self[i],
					Self: map[string]time.Duration{}, Count: map[string]int{},
				})
			}
			continue
		}
		rootOf[i] = rootOf[s.Parent] // parents precede children
		if k, ok := index[rootOf[i]]; ok {
			out[k].Self[s.Name] += self[i]
			out[k].Count[s.Name]++
		}
	}
	for k, b := range out {
		sum := b.Unattributed
		for _, d := range b.Self {
			sum += d
		}
		if sum != b.Wall || b.Unattributed < 0 {
			return nil, fmt.Errorf("op %d: self times %v + unattributed %v != wall %v", k, sum-b.Unattributed, b.Unattributed, b.Wall)
		}
	}
	return out, nil
}

// writeChromeTrace writes the logs as Chrome trace-event JSON, the format
// the profiler's own self-trace uses, loadable in Perfetto. Each log is
// one thread; args.op ties every span to the root span it belongs to.
func writeChromeTrace(w io.Writer, logs []*spanLog) error {
	buf := telemetry.NewBuffer()
	for i, l := range logs {
		tid := i + 1
		buf.Emit(telemetry.Event{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": l.name},
		})
		root := make([]int, len(l.spans))
		for i, s := range l.spans {
			root[i] = i
			if s.Parent >= 0 {
				root[i] = root[s.Parent]
			}
			buf.Emit(telemetry.Event{
				Name: s.Name, Cat: "vxbench", Ph: "X", PID: 1, TID: tid,
				TS:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
				Args: map[string]any{"op": root[i]},
			})
		}
	}
	return buf.WriteJSON(w)
}
