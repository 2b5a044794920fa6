// The service's versioned HTTP surface: JSON/text/GUI report endpoints
// over the session registry, all under the /v1 prefix. Go 1.22
// method+wildcard mux patterns route it all:
//
//	GET    /v1/healthz              liveness + session/queue occupancy
//	GET    /v1/sessions             session listing (queued + restored included)
//	POST   /v1/sessions             attach a bundled workload as a session
//	GET    /v1/sessions/{id}        one session's info (incl. queue position)
//	GET    /v1/sessions/{id}/report report: ?format=json|text|html, ?wait=1,
//	                                ?partial=1 for a mid-run snapshot
//	GET    /v1/sessions/{id}/trace  recorded trace container, ?wait=1
//	DELETE /v1/sessions/{id}        cancel + finalize a session
//	GET    /v1/aggregate            process-level aggregate over sessions
//	GET    /v1/metrics              service + per-session telemetry metrics
//	GET    /v1/selftrace            shared Perfetto self-trace (all sessions)
//
// /healthz also answers unversioned, for load-balancer probes.
//
// Errors share one typed envelope — {"error": {code, message, field}} —
// with the stable codes defined in errors.go; admission rejections are
// 429 with code "quota_exceeded", and a queued admission answers 202
// with the queue position in the session info.
//
// The JSON report endpoint serves the byte-for-byte cached
// Report.WriteJSON output, so `curl …/report > daemon.json` diffs clean
// against the equivalent one-shot `vxprof -json` artifact — across
// daemon restarts too, once a persistent store is attached.
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/gui"
	"valueexpert/internal/profile"
	"valueexpert/internal/workloads"
)

// HandlerConfig shapes the HTTP surface.
type HandlerConfig struct {
	// Defaults seeds each POSTed session's engine options; a request's
	// "options" object overrides individual fields (JSON-merge
	// semantics, canonical option names = flag names). Scale is
	// process-global (workloads.Scale) and fixed at daemon startup —
	// requests naming a different scale are rejected.
	Defaults cliconfig.Options
	// Device is the device profile name sessions run on when the request
	// names none.
	Device string
}

// Handler builds the service's HTTP handler: the /v1 API plus the
// unversioned liveness probe.
func (s *Service) Handler(hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		running, queued := s.running, len(s.queue)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "sessions": len(s.Sessions()),
			"running": running, "queued": queued,
		})
	}
	mux.HandleFunc("GET /v1/healthz", healthz)
	// Unversioned liveness stays for load-balancer probes.
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		infos := []Info{}
		for _, sess := range s.Sessions() {
			infos = append(infos, sess.Info())
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.createSession(w, r, hc)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			writeJSON(w, http.StatusOK, sess.Info())
		}
	})
	mux.HandleFunc("GET /v1/sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			s.serveReport(w, r, sess)
		}
	})
	mux.HandleFunc("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			s.serveTrace(w, r, sess)
		}
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess := s.session(w, r)
		if sess == nil {
			return
		}
		sess.Close()
		writeJSON(w, http.StatusOK, sess.Info())
	})
	mux.HandleFunc("GET /v1/aggregate", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Aggregate())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /v1/selftrace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.trace.WriteJSON(w)
	})
	return mux
}

// createRequest is the POST /v1/sessions body. Options is the canonical
// option schema (cliconfig.Options JSON names = flag names), so a
// request's validation errors speak the same names vxprof prints and
// the error envelope's "field" points straight back at the input.
type createRequest struct {
	Workload  string `json:"workload"`
	Device    string `json:"device"`
	Optimized bool   `json:"optimized"`
	// Trace additionally records the session's event stream; the
	// container is served by GET /v1/sessions/{id}/trace after the
	// session finalizes. The encoding follows the options' trace-format
	// field.
	Trace   bool            `json:"trace"`
	Options json.RawMessage `json:"options"`
}

// maxCreateBody bounds a POST /v1/sessions body. A real request is a
// few hundred bytes; the bound keeps one request from making the daemon
// buffer an arbitrary amount of memory.
const maxCreateBody = 1 << 20

func (s *Service) createSession(w http.ResponseWriter, r *http.Request, hc HandlerConfig) {
	var req createRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody)).Decode(&req); err != nil {
		ae := &APIError{Code: CodeInvalidRequest, Message: fmt.Sprintf("invalid request body: %v", err)}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorEnvelope{Error: ae})
			return
		}
		writeAPIError(w, ae)
		return
	}
	if req.Workload == "" {
		writeAPIError(w, &APIError{
			Code: CodeInvalidRequest, Message: "workload is required", Field: "workload",
		})
		return
	}
	wl, err := workloads.ByName(req.Workload)
	if err != nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownWorkload, Message: err.Error(), Field: "workload",
		})
		return
	}
	device := req.Device
	if device == "" {
		device = hc.Device
	}
	prof, err := gpu.ProfileByName(device)
	if err != nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownDevice, Message: err.Error(), Field: "device",
		})
		return
	}

	// JSON-merge: absent option fields inherit the daemon's defaults.
	opts := hc.Defaults
	if len(req.Options) > 0 {
		if err := json.Unmarshal(req.Options, &opts); err != nil {
			writeAPIError(w, &APIError{
				Code: CodeInvalidRequest, Message: fmt.Sprintf("invalid options: %v", err),
				Field: "options",
			})
			return
		}
	}
	if opts.Scale != hc.Defaults.Scale {
		writeAPIError(w, &APIError{
			Code: CodeInvalidOption, Field: "scale",
			Message: fmt.Sprintf("-scale is fixed at daemon startup (%d); per-session scale is not supported", hc.Defaults.Scale),
		})
		return
	}
	sc, ae := optionsConfig(&opts, wl.Name())
	if ae != nil {
		writeAPIError(w, ae)
		return
	}
	variant := workloads.Original
	if req.Optimized {
		variant = workloads.Optimized
	}
	sc.Device, sc.Trace = prof, req.Trace
	sc.Run = func(rt *cuda.Runtime) error { return wl.Run(rt, variant) }
	sess, err := s.Attach(sc)
	if err != nil {
		writeAPIError(w, apiError(err, CodeInvalidRequest))
		return
	}
	info := sess.Info()
	// A queued admission is accepted-but-pending: 202, with the queue
	// position in the body so the client can gauge the wait.
	status := http.StatusCreated
	if info.State == StateQueued {
		status = http.StatusAccepted
	}
	writeJSON(w, status, info)
}

// optionsConfig resolves validated options into the engine config, fault
// plan and trace format of a session for program — the tail POST
// /v1/sessions and remote attach share. Every error is an
// invalid_option envelope.
func optionsConfig(opts *cliconfig.Options, program string) (SessionConfig, *APIError) {
	sc := SessionConfig{Program: program}
	err := opts.Validate()
	if err == nil {
		sc.Engine, err = opts.EngineConfig(program)
	}
	if err == nil {
		sc.Faults, err = opts.FaultPlan()
	}
	if err == nil {
		sc.TraceFormat, err = opts.Format()
	}
	if err != nil {
		return sc, apiError(err, CodeInvalidOption)
	}
	return sc, nil
}

// serveReport emits one session's report. JSON (the default) serves the
// cached serialized bytes untouched; text and html render from those
// bytes parsed back. A running session 409s unless ?wait=1 blocks until
// it finalizes or ?partial=1 snapshots the aggregate mid-run (JSON only;
// the response carries ValueExpert-Partial: true while the session is
// still running). A finished session whose bytes cannot be read answers
// the internal envelope.
func (s *Service) serveReport(w http.ResponseWriter, r *http.Request, sess *Session) {
	format := r.URL.Query().Get("format")
	if r.URL.Query().Get("partial") == "1" {
		if format != "" && format != "json" {
			writeAPIError(w, &APIError{
				Code:    CodeInvalidRequest,
				Message: "?partial=1 serves JSON only (the partial snapshot is the serialized aggregate)",
			})
			return
		}
		raw, partial := sess.PartialReport(r.Context().Done())
		if raw == nil {
			writeAPIError(w, &APIError{
				Code: CodeInternal, Message: "partial report canceled",
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if partial {
			w.Header().Set("ValueExpert-Partial", "true")
		}
		w.Write(raw)
		return
	}
	if !finished(w, r, sess, "retry with ?wait=1, or ?partial=1 for a snapshot") {
		return
	}
	raw, ok := sess.ReportJSON()
	if !ok {
		writeAPIError(w, &APIError{
			Code: CodeInternal, Message: fmt.Sprintf("session %s: report could not be loaded", sess.ID()),
		})
		return
	}
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		return
	case "text", "html":
	default:
		writeAPIError(w, &APIError{
			Code:    CodeInvalidRequest,
			Message: fmt.Sprintf("unknown format %q (want json, text, or html)", format),
			Field:   "format",
		})
		return
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		writeAPIError(w, &APIError{
			Code: CodeInternal, Message: fmt.Sprintf("session %s: report: %v", sess.ID(), err),
		})
		return
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Text())
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, gui.RenderHTML(rep, sess.Graph(), gui.Options{}))
}

// finished applies ?wait=1 (block until sess finalizes) and reports
// whether sess has finished, answering 409 with the retry hint when it
// is still queued or running.
func finished(w http.ResponseWriter, r *http.Request, sess *Session, retry string) bool {
	if r.URL.Query().Get("wait") == "1" {
		<-sess.Done()
	}
	switch sess.State() {
	case StateRunning, StateQueued:
		writeAPIError(w, &APIError{
			Code:    CodeSessionRunning,
			Message: fmt.Sprintf("session %s is still running (%s)", sess.ID(), retry),
		})
		return false
	}
	return true
}

// serveTrace emits the session's recorded trace container as raw bytes.
// A running session 409s unless ?wait=1 blocks; a session attached
// without tracing 404s.
func (s *Service) serveTrace(w http.ResponseWriter, r *http.Request, sess *Session) {
	if !finished(w, r, sess, "retry with ?wait=1") {
		return
	}
	data, ok := sess.TraceData()
	if !ok {
		writeAPIError(w, &APIError{
			Code:    CodeNoTrace,
			Message: fmt.Sprintf("session %s was not attached with tracing enabled", sess.ID()),
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// session resolves the {id} path value, writing a 404 when unknown.
func (s *Service) session(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess := s.Session(id)
	if sess == nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownSession, Message: fmt.Sprintf("no session %q", id),
		})
	}
	return sess
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAPIError emits the typed error envelope, with the HTTP status
// derived from the stable code.
func writeAPIError(w http.ResponseWriter, ae *APIError) {
	writeJSON(w, httpStatus(ae.Code), errorEnvelope{Error: ae})
}
