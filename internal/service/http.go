package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cafa/internal/obs"
	"cafa/internal/service/api"
)

// httpError pairs a status code with a client-facing message.
type httpError struct {
	status int
	msg    string
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr emits the JSON error envelope.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

// routes mounts the API. Go 1.22 pattern routing keys method and
// path wildcards.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleArtifact("report"))
	mux.HandleFunc("GET /v1/jobs/{id}/evidence", s.handleArtifact("evidence"))
	mux.HandleFunc("GET /v1/jobs/{id}/triage", s.handleArtifact("triage"))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/confirm", s.handleConfirm)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.statsSnapshot())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
}

// ServeHTTP makes the Server mountable under any http.Server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleSubmit accepts a trace upload: the raw trace bytes (binary or
// text codec) as the request body, with optional ?name= (report
// label; defaults to upload-<sha8>.trace) and ?app= (app model for
// later confirm). 200 = served from cache, 202 = queued, 400 =
// malformed (a decode, validation, lockset or hb fault found while
// the trace is ingested, before it is queued), 413 = too large, 429 =
// queue full, 503 = draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body rejected (limit %d bytes): %v", s.cfg.MaxBodyBytes, err)
		return
	}
	if len(raw) == 0 {
		writeErr(w, http.StatusBadRequest, "empty request body; POST the trace bytes")
		return
	}
	sum := sha256.Sum256(raw)
	sha := hex.EncodeToString(sum[:])
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload-" + sha[:8] + ".trace"
	}
	j, cached, herr := s.submit(raw, name, r.URL.Query().Get("app"), sha)
	if herr != nil {
		writeErr(w, herr.status, "%s", herr.msg)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, j.snapshot())
}

// handleList returns every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]api.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// maxWait bounds ?wait= long-polls.
const maxWait = 5 * time.Minute

// handleJob returns one job record. With ?wait=<duration> it
// long-polls: the response is deferred until the job (and any running
// confirm) reaches a terminal state or the wait expires.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad wait duration %q: %v", waitStr, err)
			return
		}
		if d > maxWait {
			d = maxWait
		}
		deadline := time.NewTimer(d)
		defer deadline.Stop()
	poll:
		for {
			ch := j.waitCh()
			if settled(j.snapshot()) {
				break
			}
			select {
			case <-ch:
			case <-deadline.C:
				break poll
			case <-r.Context().Done():
				break poll
			}
		}
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// settled reports whether there is nothing left to wait for: the job
// is terminal and no confirm replay is still running.
func settled(j api.Job) bool {
	if !j.Terminal() {
		return false
	}
	return j.Confirm == nil || j.Confirm.State != api.ConfirmRunning
}

// handleArtifact serves one rendered artifact of a finished job.
// Unfinished jobs answer 409 (poll the job record first); failed jobs
// answer 410 with the failure message.
func (s *Server) handleArtifact(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		snap := j.snapshot()
		if snap.State == api.StateFailed {
			writeErr(w, http.StatusGone, "job failed: %s", snap.Error)
			return
		}
		var body []byte
		var ctype string
		switch kind {
		case "report":
			if art, ok := j.artifact(); ok {
				body, ctype = art.Report, "application/json"
			}
		case "evidence":
			if ev, ok := j.evidenceBytes(); ok {
				body, ctype = ev, "application/json"
			}
		case "triage":
			if art, ok := j.artifact(); ok {
				body, ctype = art.Triage, "text/html; charset=utf-8"
			}
		}
		if body == nil {
			writeErr(w, http.StatusConflict, "job %s not finished (state %s); poll /v1/jobs/%s",
				snap.ID, snap.State, snap.ID)
			return
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(body)
	}
}

// handleEvents streams job lifecycle transitions as server-sent
// events: one `state` event with the full job record per change,
// closing after the job (and any confirm run) settles. Progress
// stages mirrored from the obs span stream arrive as they happen.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		ch := j.waitCh()
		snap := j.snapshot()
		raw, err := json.Marshal(snap)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", raw)
		flusher.Flush()
		if settled(snap) {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
