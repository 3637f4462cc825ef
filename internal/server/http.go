package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST /query        — evaluate a Request; sync by default, async with
//	                     ?async=1 (returns {"job_id": ...} immediately)
//	POST /ingest       — append an N-Triples batch (raw body) as a delta
//	                     block; returns an IngestResult
//	POST /compact      — fold the delta chain into a new base generation
//	GET  /jobs/<id>    — poll an async job
//	GET  /metrics      — service metrics snapshot (JSON)
//	GET  /healthz      — liveness + dataset identity
//
// Errors are JSON {"error": ...} with ErrOverloaded → 429, ErrBadQuery →
// 400, ingest.ErrBadBatch → 422, deadline exceeded → 504, everything else
// → 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	res, err := s.Ingest(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBodyBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	res, err := s.Compact(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)).Decode(&req); err != nil {
		if tl := tooLarge(err); tl != nil {
			err = tl
		} else {
			err = fmt.Errorf("%w: invalid request body: %v", ErrBadQuery, err)
		}
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("async") == "1" {
		id, err := s.Submit(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": id})
		return
	}
	resp, err := s.evaluateTable(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.JobStatus(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Health is the GET /healthz body. Status is the health ladder: "ok", or
// "degraded" when the service answers but its worker fleet is impaired (no
// workers registered, or some dead).
type Health struct {
	Status         string `json:"status"`
	Mode           string `json:"mode"`
	Triples        int64  `json:"triples"`
	DatasetVersion string `json:"dataset_version"`
	UptimeMS       int64  `json:"uptime_ms"`
	// Worker liveness (distributed mode only).
	WorkersAlive      int `json:"workers_alive,omitempty"`
	WorkersRegistered int `json:"workers_registered,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	cm := s.clusterMetrics()
	ds := s.wh.View()
	h := Health{
		Status:            cm.Health,
		Mode:              cm.Mode,
		Triples:           ds.Triples,
		DatasetVersion:    ds.Version,
		UptimeMS:          time.Since(s.started).Milliseconds(),
		WorkersAlive:      cm.WorkersAlive,
		WorkersRegistered: cm.WorkersRegistered,
	}
	writeJSON(w, http.StatusOK, h)
}

// writeJSON writes v as compact JSON with HTML escaping off, so the angle
// brackets around every IRI in a result row go out as themselves rather than
// as six-byte unicode escapes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := statusForError(err)
	// Retry-After travels on the statuses that mean "try again soon" (429
	// shed) — headers must precede the body.
	if ra := retryAfterSeconds(code); ra > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ra))
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
