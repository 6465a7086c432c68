package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/obs"
)

// maxBodyBytes bounds a job submission (netlists are text; 16 MiB
// covers circuits far beyond the paper's benchmarks).
const maxBodyBytes = 16 << 20

// JobList is the GET /v1/jobs response envelope: one page of statuses
// plus the pagination frame and the live queue depth, so a poller such
// as statleakctl learns backlog pressure without a second request and
// never needs the full job list.
type JobList struct {
	Jobs       []Status `json:"jobs"`
	Total      int      `json:"total"`
	Offset     int      `json:"offset"`
	Limit      int      `json:"limit,omitempty"`
	QueueDepth int      `json:"queue_depth"`
}

// parseListFilter reads the state=/limit=/offset= query parameters
// of a job-listing request.
func parseListFilter(r *http.Request) (ListFilter, error) {
	var f ListFilter
	q := r.URL.Query()
	if s := q.Get("state"); s != "" {
		switch st := State(s); st {
		case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
			f.State = st
		default:
			return f, fmt.Errorf("unknown state %q", s)
		}
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"limit", &f.Limit}, {"offset", &f.Offset}} {
		s := q.Get(p.name)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad %s %q: want a non-negative integer", p.name, s)
		}
		*p.dst = n
	}
	return f, nil
}

// Handler returns the daemon's HTTP API over the manager:
//
//	POST   /v1/jobs             submit a job            → 202 Status
//	                            (idempotency_key resubmissions return
//	                            the existing job's status)
//	GET    /v1/jobs             list live jobs          → 200 JobList
//	                            (?state= ?limit= ?offset= paginate)
//	GET    /v1/jobs/{id}        status + live progress  → 200 Status
//	DELETE /v1/jobs/{id}        cancel                  → 202 Status
//	GET    /v1/jobs/{id}/result fetch a done job        → 200 Outcome
//	GET    /metrics             Prometheus text format
//	GET    /healthz             liveness + queue stats
//	GET    /debug/pprof/        runtime profiles
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		_, st, err := m.submit(req)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
			writeErr(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f, err := parseListFilter(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		// List snapshots every status before returning, so the JSON
		// encoder below never runs while the manager mutex is held.
		page, total, queued := m.List(f)
		writeJSON(w, http.StatusOK, JobList{
			Jobs:       page,
			Total:      total,
			Offset:     f.Offset,
			Limit:      f.Limit,
			QueueDepth: queued,
		})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, job.status())
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		// The response is built from Cancel's own snapshot: re-fetching
		// the job here would race the janitor, which may evict it
		// between the two calls (see TestChaosCancelEvictionRace).
		st, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		if fp := m.cfg.FailPoints; fp != nil && fp.AfterCancel != nil {
			fp.AfterCancel(st.ID)
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		job.mu.Lock()
		state, outcome, errMsg := job.state, job.outcome, job.errMsg
		job.mu.Unlock()
		if state != StateDone {
			writeJSON(w, http.StatusConflict, map[string]string{
				"state": string(state),
				"error": errMsg,
			})
			return
		}
		writeJSON(w, http.StatusOK, outcome)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		metQueueDepth.Set(float64(len(m.queue)))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default.WritePrometheus(w); err != nil {
			m.log.Warn("metrics write failed", "err", err.Error())
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		closed, live := m.closed, len(m.jobs)
		m.mu.Unlock()
		if closed {
			writeErr(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"jobs":    live,
			"queued":  len(m.queue),
			"workers": m.cfg.Workers,
		})
	})

	// pprof is mounted explicitly: the daemon uses its own mux, so the
	// default-mux side effects of importing net/http/pprof don't apply.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client disconnected mid-response;
	// the status line is already out, so there is no recovery.
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
