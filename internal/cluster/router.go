package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the coordinator's HTTP API — deliberately the same
// job surface a single statleakd replica speaks, so statleakctl and
// every existing client work unchanged against a cluster:
//
//	POST   /v1/jobs             route to the owning replica → 202 Status
//	GET    /v1/jobs             coordinator-side listing    → 200 JobList
//	                            (?state= ?limit= ?offset= paginate)
//	GET    /v1/jobs/{id}        proxied status + forwarding fields
//	DELETE /v1/jobs/{id}        proxied cancel
//	GET    /v1/jobs/{id}/result proxied (and cached) outcome
//	GET    /v1/cluster          ring, replica health, routing stats
//	GET    /metrics             Prometheus text format
//	GET    /healthz             coordinator liveness + live replicas
//
// Statuses returned here carry the coordinator's job IDs
// ("cjob-…"); the replica and remote_id fields say where the work
// actually lives.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f, err := server.ParseListFilter(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, c.list(f))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		t, ok := c.get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, c.refreshStatus(r.Context(), t))
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		t, ok := c.get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		t.mu.Lock()
		replica, remoteID := t.replica, t.remoteID
		t.mu.Unlock()
		pctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProxyTimeout)
		defer cancel()
		st, err := c.client.cancel(pctx, replica, remoteID)
		if err != nil {
			// The owner may be mid-failover; report the local view with
			// the error attached rather than a hard 502.
			var se *statusError
			if errors.As(err, &se) {
				writeErr(w, se.code, se.msg)
				return
			}
			writeErr(w, http.StatusBadGateway, "replica unreachable: "+err.Error())
			return
		}
		c.fold(t, replica, remoteID, st)
		writeJSON(w, http.StatusAccepted, t.view())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		t, ok := c.get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		c.handleResult(w, r, t)
	})

	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Info())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default.WritePrometheus(w); err != nil {
			c.log.Warn("metrics write failed", "err", err.Error())
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		live := c.reg.LiveCount()
		code := http.StatusOK
		status := "ok"
		if live == 0 {
			code, status = http.StatusServiceUnavailable, "no live replicas"
		}
		c.mu.Lock()
		jobs := len(c.jobs)
		c.mu.Unlock()
		writeJSON(w, code, map[string]any{
			"status":   status,
			"role":     "coordinator",
			"replicas": len(c.cfg.Replicas),
			"live":     live,
			"jobs":     jobs,
		})
	})

	return mux
}

// handleSubmit decodes, validates, dedupes, routes, and forwards one
// submission.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Validate here so a malformed request costs no replica round trip
	// and no tracked-table entry.
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	routeKey := req.CanonicalKey()
	if req.IdempotencyKey == "" {
		// Derive the dedup key from the canonical hash: identical
		// anonymous submissions collapse onto one run cluster-wide.
		req.IdempotencyKey = routeKey
	}

	t, created := c.register(req.IdempotencyKey, routeKey, req)
	if !created {
		// Resubmission: answer with the existing job's freshest view.
		writeJSON(w, http.StatusAccepted, c.refreshStatus(r.Context(), t))
		return
	}

	target, stolen := c.route(routeKey)
	if target == "" {
		c.unregister(t)
		writeErr(w, http.StatusServiceUnavailable, "no live replica")
		return
	}
	// Walk the succession starting from the routing decision: a
	// replica that refuses (full queue) or fails mid-submit falls
	// through to the next live owner.
	tried := map[string]bool{}
	for _, url := range append([]string{target}, c.ring.Succession(routeKey)...) {
		if tried[url] || !c.reg.Alive(url) {
			continue
		}
		tried[url] = true
		pctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProxyTimeout)
		st, err := c.client.submit(pctx, url, req)
		cancel()
		var se *statusError
		switch {
		case err == nil:
			c.place(t, url, st)
			c.reg.NoteRouted(url)
			metJobsRouted.With(url).Inc()
			if stolen && url == target {
				t.mu.Lock()
				t.stolen = true
				t.mu.Unlock()
				metSteals.Inc()
				c.log.Info("job stolen from hot shard", "id", t.id, "to", url)
			}
			c.log.Info("job routed", "id", t.id, "replica", url, "remote_id", st.ID, "key", t.key)
			writeJSON(w, http.StatusAccepted, t.view())
			return
		case errors.As(err, &se) && se.code == http.StatusServiceUnavailable:
			continue // full queue or draining: try the next owner
		case errors.As(err, &se):
			// Permanent replica verdict (4xx): relay it, drop the entry.
			c.unregister(t)
			writeErr(w, se.code, se.msg)
			return
		default:
			continue // transport failure: the prober will judge it; try next
		}
	}
	c.unregister(t)
	writeErr(w, http.StatusServiceUnavailable, "no replica accepted the job")
}

// handleResult serves a job's outcome, from the coordinator cache
// when the job already resolved, proxied (then cached) otherwise.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request, t *tracked) {
	t.mu.Lock()
	cached := t.outcome
	replica, remoteID := t.replica, t.remoteID
	state, errMsg := t.last.State, t.last.Error
	t.mu.Unlock()
	if cached != nil {
		writeRaw(w, http.StatusOK, cached)
		return
	}
	if state.Terminal() && state != server.StateDone {
		writeJSON(w, http.StatusConflict, map[string]string{"state": string(state), "error": errMsg})
		return
	}
	pctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProxyTimeout)
	defer cancel()
	raw, err := c.client.result(pctx, replica, remoteID)
	if err != nil {
		var se *statusError
		if errors.As(err, &se) {
			writeErr(w, se.code, se.msg)
			return
		}
		writeErr(w, http.StatusBadGateway, "replica unreachable: "+err.Error())
		return
	}
	t.mu.Lock()
	if t.outcome == nil {
		t.outcome = raw
	}
	t.mu.Unlock()
	writeRaw(w, http.StatusOK, raw)
}

// refreshStatus returns the job's current status, proxying to its
// replica when that replica is believed live; otherwise (or on a
// transport error) the last observed view stands in — the prober is
// already converging the truth in the background.
func (c *Coordinator) refreshStatus(ctx context.Context, t *tracked) server.Status {
	t.mu.Lock()
	replica, remoteID := t.replica, t.remoteID
	terminal := t.last.State.Terminal()
	t.mu.Unlock()
	if terminal || replica == "" || remoteID == "" || !c.reg.Alive(replica) {
		return t.view()
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	st, err := c.client.status(pctx, replica, remoteID)
	if err != nil {
		return t.view()
	}
	c.fold(t, replica, remoteID, st)
	return t.view()
}

// fold merges a proxied status into the tracked job unless the job
// was re-placed while the proxy call was in flight.
func (c *Coordinator) fold(t *tracked, replica, remoteID string, st server.Status) {
	t.mu.Lock()
	if t.replica == replica && t.remoteID == remoteID {
		t.last = st
	}
	t.mu.Unlock()
}

// list builds the coordinator-side job listing from the tracked
// table's last observed statuses (the prober keeps them fresh), with
// the same filter/pagination semantics as a replica's listing. The
// queue-depth field aggregates the live replicas' backlogs.
func (c *Coordinator) list(f server.ListFilter) server.JobList {
	all := make([]server.Status, 0)
	for _, t := range c.snapshotJobs() {
		st := t.view()
		if f.State != "" && st.State != f.State {
			continue
		}
		all = append(all, st)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].ID < all[k].ID })
	total := len(all)
	lo := f.Offset
	if lo < 0 {
		lo = 0
	}
	if lo > total {
		lo = total
	}
	hi := total
	if f.Limit > 0 && lo+f.Limit < hi {
		hi = lo + f.Limit
	}
	depth := 0
	for _, rep := range c.reg.Snapshot() {
		if rep.Alive {
			depth += rep.QueueDepth
		}
	}
	return server.JobList{Jobs: all[lo:hi], Total: total, Offset: f.Offset, Limit: f.Limit, QueueDepth: depth}
}

// Info is the /v1/cluster payload: ring membership, per-replica
// health, and the coordinator's routing counters.
type Info struct {
	Members  []string       `json:"members"`
	VNodes   int            `json:"vnodes"`
	Replicas []ReplicaInfo  `json:"replicas"`
	Jobs     int            `json:"jobs"`
	ByState  map[string]int `json:"jobs_by_state"`
}

// Info snapshots the cluster view.
func (c *Coordinator) Info() Info {
	info := Info{
		Members:  c.ring.Members(),
		VNodes:   c.cfg.VNodes,
		Replicas: c.reg.Snapshot(),
		ByState:  make(map[string]int),
	}
	for _, t := range c.snapshotJobs() {
		st := t.view()
		info.Jobs++
		info.ByState[string(st.State)]++
	}
	return info
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error means the client went away mid-response; the
	// status line is already out, so there is no recovery.
	_ = enc.Encode(v)
}

func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
