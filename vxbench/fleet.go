package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/daemon"
	"valueexpert/internal/vpattern"
	"valueexpert/internal/workloads"
)

const (
	// fleetClients is the number of closed-loop clients: one per CPU of
	// the 2-CPU machine the benchmark was sized on.
	fleetClients = 2
	// fleetPool is the number of seeded random programs attach sessions
	// draw from; it equals the number of POST apps, so the two kinds
	// come in equal shares.
	fleetPool  = 15
	fleetScale = 64
	// fleetOps is the length of a pool program: four times the default,
	// so attach sessions are API-heavy and cost about what POST sessions
	// do, and the session-time distribution has no gap between the two
	// kinds for its median to straddle.
	fleetOps = 4 * workloads.DefaultRandomOps
	// fleetThink is each client's pause between sessions. The daemon
	// keeps about 4 MB per finished session, even after DELETE; without
	// the pause the clients finish about 150 sessions a second and a run
	// would hold gigabytes. With it a 30 s run finishes about 110.
	fleetThink = 525 * time.Millisecond
)

// fleetExcluded are the bundled apps whose profiled scale-64 run takes
// 60 ms or more; the other 15 make daemon-fleet's POST sessions.
var fleetExcluded = map[string]bool{
	"Darknet": true, "PyTorch-Bert": true, "PyTorch-Resnet50": true, "Rodinia/sradv1": true,
}

// fleetProgram is one program a daemon-fleet session profiles.
type fleetProgram struct {
	name   string
	attach bool // streamed by remote attach; otherwise POSTed by name
	run    func(rt *cuda.Runtime) error
	cfg    core.Config // the engine configuration the daemon applies
}

// drawer hands out the seeded session sequence: rounds of every program
// once, each round in a seeded order. Both clients draw from the one
// sequence, so the seed fixes the sessions whatever the interleaving,
// and POST and attach sessions come in equal shares.
type drawer struct {
	mu    sync.Mutex
	r     *rand.Rand
	n     int
	round []int
	drawn int
}

func newDrawer(seed int64, programs int) *drawer {
	return &drawer{r: rand.New(rand.NewSource(seed)), n: programs}
}

// next returns the index of the next session's program and the
// session's position in the sequence.
func (d *drawer) next() (prog, pos int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.round) == 0 {
		d.round = d.r.Perm(d.n)
	}
	prog, pos = d.round[0], d.drawn
	d.round = d.round[1:]
	d.drawn++
	return prog, pos
}

// wholeRounds keeps the samples of the rounds the phase finished. Every
// whole round profiles each program once, so the timing distributions
// of two runs hold the same programs whatever the seed; the partial
// last round is counted but not timed.
func wholeRounds(samples []sample, first, drawn, n int) []sample {
	end := first + (drawn-first)/n*n
	if end == first {
		return samples // not one whole round: time everything
	}
	var out []sample
	for _, s := range samples {
		if s.draw < end {
			out = append(out, s)
		}
	}
	return out
}

// fleet is daemon-fleet: an in-process vxprofd — the service with its
// default (unlimited) admission, the /v1 HTTP API on loopback and the
// remote-attach listener — driven by closed-loop clients.
type fleet struct {
	prof   gpu.Profile
	progs  []fleetProgram
	check  *gate
	draws  *drawer
	svc    *daemon.Service
	srv    *http.Server
	served chan struct{}
	attach *daemon.AttachServer
	base   string
	client *http.Client
}

// fleetPrograms lists the POST apps, then the attach pool.
func fleetPrograms() []fleetProgram {
	var progs []fleetProgram
	for _, w := range workloads.All() {
		if fleetExcluded[w.Name()] {
			continue
		}
		w := w
		progs = append(progs, fleetProgram{name: w.Name(), run: func(rt *cuda.Runtime) error {
			return w.Run(rt, workloads.Original)
		}})
	}
	for i := 1; i <= fleetPool; i++ {
		p := &workloads.RandomProgram{Seed: int64(i), Ops: fleetOps}
		progs = append(progs, fleetProgram{
			name: fmt.Sprintf("random-%02d", i), attach: true,
			run: func(rt *cuda.Runtime) error {
				if errs := p.Run(rt); len(errs) > 0 {
					return errs[0]
				}
				return nil
			},
		})
	}
	return progs
}

func newFleet(seed int64, digests map[string]string) (*fleet, error) {
	workloads.Scale = fleetScale
	opts := engineOptions()
	opts.Scale = fleetScale
	f := &fleet{prof: gpu.RTX2080Ti, progs: fleetPrograms(), check: newGate(digests)}
	f.draws = newDrawer(seed, len(f.progs))
	for i, p := range f.progs {
		cfg, err := opts.EngineConfig(p.name)
		if err != nil {
			return nil, err
		}
		f.progs[i].cfg = cfg
		raw, st, err := referenceReport(f.prof, cfg, p.run)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", p.name, err)
		}
		if err := f.check.addReference(p.name, raw, expectedPatterns(p.name), st); err != nil {
			return nil, err
		}
	}

	hc := daemon.HandlerConfig{Defaults: opts, Device: f.prof.Name}
	f.svc = daemon.NewService()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	attachLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	f.srv = &http.Server{Handler: f.svc.Handler(hc)}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		f.srv.Serve(httpLn)
	}()
	f.attach = f.svc.ServeAttach(attachLn, hc)
	f.base = "http://" + httpLn.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients}}
	return f, nil
}

// expectedPatterns is a bundled app's Table 1 row; pool programs have
// none.
func expectedPatterns(name string) []vpattern.Kind {
	if w, err := workloads.ByName(name); err == nil {
		return w.ExpectedPatterns()
	}
	return nil
}

// close stops the daemon the way vxprofd drains: the attach listener
// first, then the sessions, then HTTP.
func (f *fleet) close() {
	f.client.CloseIdleConnections()
	f.attach.Close()
	f.svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
	<-f.served
}

// warmUp runs one session of each kind.
func (f *fleet) warmUp() (int, error) {
	ph := newPhase()
	for _, i := range []int{0, len(f.progs) - 1} {
		f.session(f.progs[i], -1, nil, ph)
	}
	if len(ph.errs) > 0 {
		return len(ph.samples), errors.New(ph.errs[0])
	}
	return len(ph.samples), nil
}

func (f *fleet) gate() *gate   { return f.check }
func (f *fleet) service() bool { return true }

// measure runs the closed-loop clients until d has passed; each client
// finishes the session it is in. A client starts its next session
// fleetThink after the last one ended.
func (f *fleet) measure(d time.Duration, traced bool) *phase {
	ph := newPhase()
	deadline := ph.start.Add(d)
	first := f.draws.drawn
	if first%len(f.progs) != 0 {
		panic("vxbench: phase starts mid-round")
	}
	var wg sync.WaitGroup
	for c := 1; c <= fleetClients; c++ {
		var log *spanLog
		if traced {
			log = newSpanLog(ph.start, fmt.Sprintf("client %d", c))
			ph.logs = append(ph.logs, log)
		}
		wg.Add(1)
		go func(log *spanLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				prog, pos := f.draws.next()
				f.session(f.progs[prog], pos, log, ph)
				time.Sleep(min(fleetThink, time.Until(deadline)))
			}
		}(log)
	}
	wg.Wait()
	ph.finish()
	ph.timed = wholeRounds(ph.samples, first, f.draws.drawn, len(f.progs))
	// The next phase starts on a fresh round.
	for f.draws.drawn%len(f.progs) != 0 {
		f.draws.next()
	}
	return ph
}

// session runs one closed-loop iteration: the unprofiled twin, then the
// session through the daemon — POST + GET ?wait=1, or DialAttach + Run +
// Wait — the check of its report, and its DELETE.
func (f *fleet) session(p fleetProgram, pos int, log *spanLog, ph *phase) {
	ph.attempt()
	twin, err := runTwin(f.prof, p.run, log)
	if err != nil {
		ph.fail(fmt.Errorf("%s unprofiled twin: %w", p.name, err))
		return
	}
	step := func(name string, fn func() error) error {
		if log == nil {
			return fn()
		}
		id := log.begin(name)
		defer log.end(id)
		return fn()
	}
	opID := -1
	if log != nil {
		opID = log.begin("op")
	}
	start := time.Now()
	var id string
	var raw []byte
	if p.attach {
		id, raw, err = f.attachSession(p, step, ph)
	} else {
		id, raw, err = f.postSession(p, step, ph)
	}
	if err == nil {
		err = step("bench.check", func() error { return f.check.check(p.name, raw) })
	}
	session := time.Since(start)
	if id != "" {
		if derr := step("daemon.delete", func() error { return f.delete(id) }); err == nil {
			err = derr
		}
	}
	op := time.Since(start)
	if log != nil {
		log.end(opID)
	}
	if err != nil {
		ph.fail(fmt.Errorf("%s: %w", p.name, err))
		return
	}
	ph.ok(sample{op: op, session: session, twin: twin, program: p.name, draw: pos})
}

type stepFunc func(name string, fn func() error) error

// postSession creates a session by name and waits for its report. The
// ID is set once the daemon admitted the session.
func (f *fleet) postSession(p fleetProgram, step stepFunc, ph *phase) (id string, raw []byte, err error) {
	err = step("daemon.create", func() error {
		body, status, err := f.do(http.MethodPost, "/v1/sessions", fmt.Sprintf(`{"workload":%q}`, p.name))
		if err != nil {
			return err
		}
		switch status {
		case http.StatusCreated:
		case http.StatusAccepted:
			ph.count(&ph.queued)
		case http.StatusTooManyRequests:
			ph.count(&ph.rejected)
			return fmt.Errorf("POST /v1/sessions: 429 %s", bytes.TrimSpace(body))
		default:
			return fmt.Errorf("POST /v1/sessions: %d %s", status, bytes.TrimSpace(body))
		}
		var info daemon.Info
		if err := json.Unmarshal(body, &info); err != nil {
			return fmt.Errorf("POST /v1/sessions: %w", err)
		}
		id = info.ID
		return nil
	})
	if err != nil {
		return id, nil, err
	}
	err = step("daemon.report_wait", func() error {
		body, status, err := f.do(http.MethodGet, "/v1/sessions/"+id+"/report?wait=1", "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET report: %d %s", status, bytes.TrimSpace(body))
		}
		raw = body
		return nil
	})
	return id, raw, err
}

// attachSession streams the program to the daemon by remote attach and
// waits for the completion's report.
func (f *fleet) attachSession(p fleetProgram, step stepFunc, ph *phase) (id string, raw []byte, err error) {
	var rs *daemon.RemoteSession
	err = step("daemon.attach_handshake", func() error {
		var err error
		rs, err = daemon.DialAttach("tcp", f.attach.Addr().String(), daemon.AttachRequest{Program: p.name})
		var ae *daemon.APIError
		if errors.As(err, &ae) && ae.Code == daemon.CodeQuotaExceeded {
			ph.count(&ph.rejected)
		}
		return err
	})
	if err != nil {
		return "", nil, fmt.Errorf("attach: %w", err)
	}
	defer rs.Close()
	id = rs.Info().ID
	if rs.Info().State == daemon.StateQueued {
		ph.count(&ph.queued)
	}
	if err := step("daemon.attach_stream", func() error { return rs.Run(f.prof, p.run) }); err != nil {
		return id, nil, fmt.Errorf("attach stream: %w", err)
	}
	err = step("daemon.attach_wait", func() error {
		info, body, err := rs.Wait()
		if err != nil {
			return fmt.Errorf("attach wait: %w", err)
		}
		if info.State != daemon.StateDone {
			return fmt.Errorf("attach session %s finished %s: %s", info.ID, info.State, info.Error)
		}
		raw = body
		return nil
	})
	return id, raw, err
}

func (f *fleet) delete(id string) error {
	body, status, err := f.do(http.MethodDelete, "/v1/sessions/"+id, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("DELETE %s: %d %s", id, status, bytes.TrimSpace(body))
	}
	return nil
}

// do sends one request to the daemon and reads the whole response.
func (f *fleet) do(method, path, body string) ([]byte, int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, f.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return data, resp.StatusCode, nil
}

// layers derives daemon-fleet's per-layer metrics from a traced phase:
// the p50 of each daemon call over the sessions that made it, and the
// mean self time of the client's own steps. The service's engine runs
// out of reach of the benchmark's spans, so the engine layers come from
// replicas: after the phase, one traced in-process op per session it
// verified, with the same program and engine configuration. Their log
// joins the phase's, so the trace file shows them.
func (f *fleet) layers(ph *phase) (map[string]float64, error) {
	replicas := newSpanLog(ph.start, "replicas")
	for _, s := range ph.samples {
		p := f.program(s.program)
		o := &oneShot{program: p.name, cfg: p.cfg, prof: f.prof, run: p.run}
		id := replicas.begin("replica")
		raw, err := o.profileOp(replicas)
		replicas.end(id)
		if err == nil {
			err = f.check.check(p.name, raw)
		}
		if err != nil {
			return nil, fmt.Errorf("%s replica: %w", p.name, err)
		}
	}
	reps, err := breakdowns(replicas.spans, "replica")
	if err != nil {
		return nil, err
	}
	ph.logs = append(ph.logs, replicas)
	var ops []opBreakdown
	var twinWall, twinWindow []float64
	durs := map[string][]float64{}
	for _, l := range ph.logs {
		b, err := breakdowns(l.spans, "op")
		if err != nil {
			return nil, err
		}
		ops = append(ops, b...)
		twins, err := breakdowns(l.spans, "gpu.twin")
		if err != nil {
			return nil, err
		}
		for _, t := range twins {
			twinWall = append(twinWall, ms(t.Wall))
			twinWindow = append(twinWindow, ms(t.Self["gpu.kernel_window"]))
		}
		for _, s := range l.spans {
			if strings.HasPrefix(s.Name, "daemon.") {
				durs[s.Name] = append(durs[s.Name], ms(s.End-s.Start))
			}
		}
	}
	m := selfMetrics(ops, []string{"bench.check"})
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m[n+"_ms"] = medianOf(durs[n])
	}
	m["gpu.unprofiled_ms"] = mean(twinWall)
	m["gpu.kernel_window_unprofiled_ms"] = mean(twinWindow)
	// The daemon renders each session's report and serializes it, but
	// neither prints its text nor runs the advisor.
	daemonLayers := slices.Concat(engineLayers, []string{"profile.report", "profile.json"})
	rm := selfMetrics(reps, daemonLayers)
	for _, n := range daemonLayers {
		m[n+"_ms"] = rm[n+"_ms"]
	}
	m["core.in_kernel_ms"] = m["core.kernel_window_ms"] - m["gpu.kernel_window_unprofiled_ms"]
	return m, nil
}

// program looks a session's program up by name.
func (f *fleet) program(name string) fleetProgram {
	for _, p := range f.progs {
		if p.name == name {
			return p
		}
	}
	panic("vxbench: no program " + name)
}
