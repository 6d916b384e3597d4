package lab

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"nbhd/internal/wire"
)

// HTTP control plane, following internal/serve's conventions through
// the shared wire shell: strict bounded JSON bodies, wire.ErrorResponse
// bodies ({"error": {"message", "type", "request_id"}}), /healthz
// flipping 503 on drain so load balancers stop routing before shutdown.
//
//	GET  /queuez        scheduler snapshot (running, queue, jobs)
//	GET  /runz/{id}     one run's record
//	POST /v1/enqueue    {"job": name} or {"spec": {...}} -> {"run": id}
//	POST /v1/promote    {"run": id}  -> {"job": name, "baseline": id}
//	POST /v1/cancel     {"run": id}  -> {"run": id, "status": "canceling"}
//	GET  /healthz       200 ok / 503 draining
//	GET  /metricsz      MetricsSnapshot

// maxBodyBytes bounds control-plane request bodies; an inline spec is
// the largest legal payload.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP control plane.
func (l *Lab) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /queuez", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, l.Queue())
	})
	mux.HandleFunc("GET /runz/{id}", l.handleRun)
	mux.HandleFunc("POST /v1/enqueue", l.handleEnqueue)
	mux.HandleFunc("POST /v1/promote", l.handlePromote)
	mux.HandleFunc("POST /v1/cancel", l.handleCancel)
	mux.HandleFunc("GET /healthz", l.handleHealth)
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, l.Metrics())
	})
	return mux
}

func (l *Lab) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := l.ids.Next()
	rec, ok := l.Run(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown_run",
			fmt.Sprintf("unknown run %q", r.PathValue("id")), reqID)
		return
	}
	wire.WriteJSON(w, http.StatusOK, rec)
}

// EnqueueRequest is the POST /v1/enqueue body: exactly one of Job or
// Spec.
type EnqueueRequest struct {
	// Job names a configured job to run now.
	Job string `json:"job,omitempty"`
	// Spec is an inline experiment spec for a one-shot ad-hoc run.
	Spec json.RawMessage `json:"spec,omitempty"`
}

func (l *Lab) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	reqID := l.ids.Next()
	var req EnqueueRequest
	if herr := wire.DecodeBody(w, r, maxBodyBytes, &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	var runID string
	var err error
	switch {
	case req.Job != "" && len(req.Spec) > 0:
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error",
			"set either job or spec, not both", reqID)
		return
	case req.Job != "":
		runID, err = l.Enqueue(req.Job)
	case len(req.Spec) > 0:
		runID, err = l.EnqueueSpec(req.Spec)
	default:
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error",
			"body needs a job name or an inline spec", reqID)
		return
	}
	if err != nil {
		status, typ := http.StatusBadRequest, "invalid_request_error"
		switch {
		case err == errDraining:
			wire.Shed(w, http.StatusServiceUnavailable, "overloaded", err.Error(), reqID, 1)
			return
		case strings.Contains(err.Error(), "unknown job"):
			status, typ = http.StatusNotFound, "unknown_job"
		}
		wire.WriteError(w, status, typ, err.Error(), reqID)
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, map[string]string{"run": runID, "request_id": reqID})
}

// runRef is the {"run": id} body promote and cancel share.
type runRef struct {
	Run string `json:"run"`
}

func (l *Lab) handlePromote(w http.ResponseWriter, r *http.Request) {
	reqID := l.ids.Next()
	var req runRef
	if herr := wire.DecodeBody(w, r, maxBodyBytes, &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	job, err := l.Promote(req.Run)
	if err != nil {
		status, typ := http.StatusConflict, "invalid_state"
		if strings.Contains(err.Error(), "unknown run") {
			status, typ = http.StatusNotFound, "unknown_run"
		}
		wire.WriteError(w, status, typ, err.Error(), reqID)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"job": job, "baseline": req.Run, "request_id": reqID})
}

func (l *Lab) handleCancel(w http.ResponseWriter, r *http.Request) {
	reqID := l.ids.Next()
	var req runRef
	if herr := wire.DecodeBody(w, r, maxBodyBytes, &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	if err := l.Cancel(req.Run); err != nil {
		status, typ := http.StatusConflict, "invalid_state"
		if strings.Contains(err.Error(), "unknown run") {
			status, typ = http.StatusNotFound, "unknown_run"
		}
		wire.WriteError(w, status, typ, err.Error(), reqID)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"run": req.Run, "status": "canceling", "request_id": reqID})
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Running  string `json:"running,omitempty"`
}

func (l *Lab) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := l.Metrics()
	h := HealthResponse{Status: "ok", Draining: m.Draining, Running: m.Running}
	status := http.StatusOK
	if h.Draining {
		// Like serve: draining flips unhealthy so load balancers stop
		// routing while in-flight work checkpoints.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, status, h)
}
