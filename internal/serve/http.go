package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs/live"
	"physdes/internal/obs/recorder"
	"physdes/internal/workload"
)

// routes builds the daemon's mux: the /v1 API plus the live
// introspection server as the fallback handler (/healthz, /metrics,
// /metrics.json, /debug/pprof). A job's report and event stream are
// served under /runs/{id} through the same tenancy check as /v1/jobs/{id};
// the live server's own /runs listing holds no jobs (list them with
// GET /v1/jobs).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workloads", s.handleWorkloadCreate)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloadList)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/tenant", s.handleTenant)
	mux.HandleFunc("GET /runs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /runs/{id}/events", s.handleJobEvents)
	mux.Handle("/", s.live.Handler())
	return mux
}

// writeJSON writes v with a trailing newline and stable indentation, so
// the golden API fixtures are byte-stable.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //physdes:errok a failed response write means the client left; the handler has no one to tell
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// reject answers an admission-control refusal: 429 with a Retry-After
// hint, counting the reject.
func (s *Server) reject(w http.ResponseWriter, format string, args ...any) {
	s.rejects.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
	writeError(w, http.StatusTooManyRequests, format, args...)
}

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleWorkloadCreate(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req WorkloadRequest
	if !decode(w, r, &req) {
		return
	}
	cat, err := s.catalogFor(req.DB)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var wl *workload.Workload
	switch {
	case len(req.SQL) > 0:
		if len(req.SQL) > s.cfg.MaxUploadStatements {
			writeError(w, http.StatusBadRequest, "workload too large: %d statements (max %d)",
				len(req.SQL), s.cfg.MaxUploadStatements)
			return
		}
		wl, err = workload.Parse(cat, req.SQL)
	default:
		n := req.N
		if n <= 0 {
			n = 1000
		}
		if n > s.cfg.MaxUploadStatements {
			writeError(w, http.StatusBadRequest, "workload too large: n=%d (max %d)",
				n, s.cfg.MaxUploadStatements)
			return
		}
		switch req.DB {
		case "tpcd":
			wl, err = workload.GenTPCD(cat, n, req.Seed)
		case "crm":
			wl, err = workload.GenCRM(cat, n, req.Seed)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "workload: %v", err)
		return
	}

	entry := s.addWorkload(t, req.DB, cat, wl)
	if entry == nil {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.workloadsCnt.Inc()
	writeJSON(w, http.StatusCreated, WorkloadResponse{
		ID: entry.id, DB: entry.db, Statements: entry.size, Templates: entry.templates,
	})
}

// addWorkload registers wl under the tenant's next workload id, or
// returns nil when the daemon no longer accepts work.
func (s *Server) addWorkload(t *tenant, db string, cat *catalog.Catalog, wl *workload.Workload) *workloadEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return nil
	}
	t.wSeq++
	entry := &workloadEntry{
		id:        fmt.Sprintf("w%d", t.wSeq),
		db:        db,
		size:      wl.Size(),
		templates: wl.NumTemplates(),
		cat:       cat,
		w:         wl,
	}
	t.workloads[entry.id] = entry
	t.wOrder = append(t.wOrder, entry.id)
	return entry
}

func (s *Server) handleWorkloadList(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	resp := make([]WorkloadResponse, 0, len(t.wOrder))
	for _, id := range t.wOrder {
		e := t.workloads[id]
		resp = append(resp, WorkloadResponse{ID: e.id, DB: e.db, Statements: e.size, Templates: e.templates})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req JobRequest
	if !decode(w, r, &req) {
		return
	}
	opts, err := req.options(t.limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j, admit := s.enqueueJob(t, req, opts)
	if j == nil {
		switch admit.status {
		case http.StatusTooManyRequests:
			s.reject(w, "%s", admit.reason)
		default:
			writeError(w, admit.status, "%s", admit.reason)
		}
		return
	}
	s.jobsTotal.Inc()
	s.queuedGauge.Add(1)

	writeJSON(w, http.StatusAccepted, j.response())
}

// admission is the refusal shape of enqueueJob.
type admission struct {
	status int
	reason string
}

// enqueueJob admits a job onto the bounded queue, or explains why not.
// Id reservation and the queue send happen under one lock so ids are
// dense and submission order equals queue order.
func (s *Server) enqueueJob(t *tenant, req JobRequest, opts core.Options) (*job, admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return nil, admission{http.StatusServiceUnavailable, "server shutting down"}
	}
	wl := t.workloads[req.Workload]
	if wl == nil {
		return nil, admission{http.StatusNotFound, fmt.Sprintf("unknown workload %q", req.Workload)}
	}
	if t.budget.Exhausted() {
		return nil, admission{http.StatusTooManyRequests,
			fmt.Sprintf("tenant call budget exhausted: %d/%d optimizer calls used",
				t.budget.Used(), t.budget.Cap())}
	}
	s.jobSeq++
	j := &job{
		id:     fmt.Sprintf("j%d", s.jobSeq),
		tenant: t,
		wl:     wl,
		req:    req,
		opts:   opts,
		status: StatusQueued,
	}
	j.rec = recorder.New(j.id)
	select {
	case s.queue <- j:
	default:
		s.jobSeq--
		return nil, admission{http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth)}
	}
	s.jobs[j.id] = j
	t.jobOrder = append(t.jobOrder, j.id)
	return j, admission{}
}

// jobFor resolves {id} for the requesting tenant; jobs of other tenants
// are indistinguishable from missing ones (404).
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil || j.tenant != t {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil
	}
	return j
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	ids := append([]string(nil), t.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	resp := make([]JobResponse, 0, len(jobs))
	for _, j := range jobs {
		resp = append(resp, j.response())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if st, ok := s.cancelJob(j); !ok {
		writeError(w, http.StatusConflict, "job %s already %s", j.id, st)
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

// cancelJob cancels j in whatever state it is: queued jobs finish
// immediately as cancelled, running jobs get their context cut and land
// in cancelled when the samplers observe it. Terminal jobs return their
// state and ok=false. The recorder and context operations are safe under
// j.mu — neither takes job locks.
func (s *Server) cancelJob(j *job) (state string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued:
		j.cancelled = true
		j.status = StatusCancelled
		j.err = context.Canceled
		j.rec.Finish(context.Canceled)
		s.queuedGauge.Add(-1)
		s.jobsCancelled.Inc()
		return j.status, true
	case StatusRunning:
		j.status = StatusCancelling
		j.cancel()
		return j.status, true
	case StatusCancelling:
		return j.status, true
	default: // done, failed, cancelled
		return j.status, false
	}
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	live.StreamRounds(w, r, j.rec)
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.rec.Report())
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	resp := TenantResponse{
		Name:            t.name,
		Jobs:            len(t.jobOrder),
		Workloads:       len(t.wOrder),
		CallBudget:      t.budget.Cap(),
		CallsUsed:       t.budget.Used(),
		BudgetExhausted: t.budget.Exhausted(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
