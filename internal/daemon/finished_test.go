package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/profile"
	"valueexpert/internal/workloads"
)

// retentionWorkload is a bundled app whose engine state (device memory,
// sanitizer buffers, stage state) is megabytes while its artifacts are
// tens of KB, so a finished session that keeps its engine shows up
// plainly in the live heap.
const retentionWorkload = "Rodinia/pathfinder"

// retentionOpts is the option set the retention sessions run under.
func retentionOpts() cliconfig.Options {
	return cliconfig.Options{Coarse: true, Fine: true, Sample: 1, Scale: 64}
}

// liveHeap returns the live heap after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedSessionRetention bounds what a finished session holds: the
// live heap grows by less than 1 MB per finished session whether the
// session ran in memory, spilled to a store, streamed over remote
// attach, or was canceled. A session that kept its runtime and profiler
// would hold the engine's megabytes instead.
func TestFinishedSessionRetention(t *testing.T) {
	const n, bound = 10, 1 << 20
	defer func(s int) { workloads.Scale = s }(workloads.Scale)
	workloads.Scale = 64
	wl, err := workloads.ByName(retentionWorkload)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rt *cuda.Runtime) error { return wl.Run(rt, workloads.Original) }
	opts := retentionOpts()
	cfg, err := opts.EngineConfig(wl.Name())
	if err != nil {
		t.Fatal(err)
	}
	local := func(t *testing.T, svc *Service) func() {
		return func() {
			sess, err := svc.Attach(SessionConfig{Program: wl.Name(), Device: gpu.RTX2080Ti, Engine: cfg, Run: run})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each kind returns a function that runs one session to completion.
	kinds := []struct {
		name    string
		store   bool
		session func(t *testing.T, svc *Service) func()
	}{
		{"in-memory", false, local},
		{"store", true, local},
		{"remote", false, func(t *testing.T, svc *Service) func() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			as := svc.ServeAttach(ln, HandlerConfig{Defaults: opts, Device: gpu.RTX2080Ti.Name})
			t.Cleanup(func() { as.Close() })
			return func() {
				rs, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{Program: wl.Name()})
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				if err := rs.Run(gpu.RTX2080Ti, run); err != nil {
					t.Fatal(err)
				}
				if info, _, err := rs.Wait(); err != nil || info.State != StateDone {
					t.Fatalf("remote session: %+v, %v", info, err)
				}
			}
		}},
		{"canceled", false, func(t *testing.T, svc *Service) func() {
			return func() {
				// The run completes one full pass, then waits for the cancel;
				// its second pass fails at the first API call.
				ready, gate := make(chan struct{}), make(chan struct{})
				sess, err := svc.Attach(SessionConfig{
					Program: wl.Name(), Device: gpu.RTX2080Ti, Engine: cfg,
					Run: func(rt *cuda.Runtime) error {
						if err := run(rt); err != nil {
							return err
						}
						close(ready)
						<-gate
						return run(rt)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				<-ready
				sess.Cancel()
				close(gate)
				sess.Drain()
				if st := sess.State(); st != StateCanceled {
					t.Fatalf("canceled session state = %s", st)
				}
			}
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var svcOpts []Option
			if k.store {
				st, err := OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				svcOpts = append(svcOpts, WithStore(st))
			}
			svc := NewService(svcOpts...)
			defer svc.Shutdown()
			once := k.session(t, svc)
			once() // warm up lazily built process-wide state
			before := liveHeap()
			for i := 0; i < n; i++ {
				once()
			}
			grew := int64(liveHeap()) - int64(before)
			runtime.KeepAlive(svc)
			t.Logf("%s: %d KB retained per finished session", k.name, grew/n>>10)
			if grew/n >= bound {
				t.Errorf("%s: live heap grew %d KB per finished session, want < %d KB",
					k.name, grew/n>>10, bound>>10)
			}
		})
	}
}

// TestFinishedSessionRendering: text and html render from the kept
// bytes. ?format=text equals the one-shot report's Text, and ?format=html
// carries the value flow graph both in memory and after a spill (the
// graph stays with the session, not the store).
func TestFinishedSessionRendering(t *testing.T) {
	want := oneShot(t, 31)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []*Service{NewService(), NewService(WithStore(st))} {
		defer svc.Shutdown()
		sess, err := svc.Attach(SessionConfig{
			Program: "rnd-31", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(31),
		})
		if err != nil {
			t.Fatal(err)
		}
		<-sess.Done()
		srv := httptest.NewServer(svc.Handler(HandlerConfig{}))
		defer srv.Close()
		get := func(format string) string {
			t.Helper()
			status, body := httpGet(t, srv.URL+"/v1/sessions/"+sess.ID()+"/report?format="+format)
			if status != http.StatusOK {
				t.Fatalf("format %s: status %d: %s", format, status, body)
			}
			return body
		}
		if get("text") != want.Text() {
			t.Errorf("store=%v: ?format=text differs from the one-shot report's Text", svc.store != nil)
		}
		if html := get("html"); !strings.Contains(html, "Value flow graph") {
			t.Errorf("store=%v: html report has no value flow graph section", svc.store != nil)
		}
	}
}

// httpGet fetches url and returns the status and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestUnreadableReportIsInternal: a finished session whose stored
// report blob is gone answers the typed internal envelope, not "still
// running", for every format and with ?wait=1.
func TestUnreadableReportIsInternal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithStore(st))
	defer svc.Shutdown()
	sess, err := svc.Attach(SessionConfig{
		Program: "rnd-32", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	sess.mu.Lock()
	addr := sess.manifest.Report
	sess.mu.Unlock()
	if addr == "" {
		t.Fatal("session did not spill its report")
	}
	if err := os.Remove(filepath.Join(dir, "objects", addr)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler(HandlerConfig{}))
	defer srv.Close()
	for _, q := range []string{"", "?wait=1", "?format=text", "?format=html&wait=1"} {
		status, body := httpGet(t, srv.URL+"/v1/sessions/"+sess.ID()+"/report"+q)
		var env errorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil {
			t.Fatalf("%q: body %q is not an error envelope", q, body)
		}
		if status != http.StatusInternalServerError || env.Error.Code != CodeInternal {
			t.Errorf("%q: status %d code %q, want 500 %q", q, status, env.Error.Code, CodeInternal)
		}
	}
}

// TestRemoteAttachArmsFaults: a remote attach naming a fault plan arms
// it exactly as POST does, so the stream finishes Degraded with the
// dropped flush recorded.
func TestRemoteAttachArmsFaults(t *testing.T) {
	svc := NewService()
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, HandlerConfig{Defaults: remoteOpts(), Device: gpu.RTX2080Ti.Name})
	defer as.Close()
	rs, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{
		Program: "rnd-33", Options: json.RawMessage(`{"faults":"flush-drop@1"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Run(gpu.RTX2080Ti, randomRun(33)); err != nil {
		t.Fatal(err)
	}
	info, raw, err := rs.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded || rep.Degraded == nil || rep.Degraded.DroppedFlushes == 0 {
		t.Fatalf("remote attach with flush-drop@1: info %+v, degraded %+v", info, rep.Degraded)
	}
}

// TestCancelRacesFinalization: Cancel, Info and Graph racing a session's
// finalization (which clears its runtime) are safe, and cancelling a
// finished session is a no-op. Run under -race.
func TestCancelRacesFinalization(t *testing.T) {
	svc := NewService()
	defer svc.Shutdown()
	for seed := int64(40); seed < 48; seed++ {
		sess, err := svc.Attach(SessionConfig{
			Program: "rnd", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		for !isDone(sess) {
			sess.Cancel()
			sess.Info()
			sess.Graph()
			runtime.Gosched()
		}
		st := sess.State()
		sess.Cancel()
		if sess.State() != st {
			t.Fatalf("Cancel changed a finished session's state: %s -> %s", st, sess.State())
		}
		if _, ok := sess.Report(); !ok {
			t.Fatalf("session %s (%s) has no report", sess.ID(), st)
		}
	}
}

func isDone(sess *Session) bool {
	select {
	case <-sess.Done():
		return true
	default:
		return false
	}
}

// TestCreateBodyBound: a POST /v1/sessions body over maxCreateBody is
// refused 413 with the invalid_request envelope before the daemon reads
// it all, and the daemon goes on serving: the next normal POST creates
// its session.
func TestCreateBodyBound(t *testing.T) {
	defer func(s int) { workloads.Scale = s }(workloads.Scale)
	workloads.Scale = 64
	svc := NewService()
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler(HandlerConfig{Defaults: retentionOpts(), Device: "RTX 2080 Ti"}))
	defer srv.Close()
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	// Valid JSON naming no bundled workload: read whole, it would be
	// refused 400 unknown_workload instead.
	status, raw := post(`{"workload": "` + strings.Repeat("x", maxCreateBody) + `"}`)
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("over-limit POST: body %.200q is not an error envelope", raw)
	}
	if status != http.StatusRequestEntityTooLarge || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("over-limit POST = %d %q, want 413 %q", status, env.Error.Code, CodeInvalidRequest)
	}

	status, raw = post(`{"workload": "` + retentionWorkload + `"}`)
	var info Info
	if err := json.Unmarshal(raw, &info); err != nil || status != http.StatusCreated {
		t.Fatalf("POST after the over-limit one = %d: %s", status, raw)
	}
	if status, body := httpGet(t, srv.URL+"/v1/sessions/"+info.ID+"/report?wait=1"); status != http.StatusOK {
		t.Fatalf("report of %s = %d: %.200s", info.ID, status, body)
	}
}
