package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/serve"
)

// ServeLoadResult is the BENCH_serve.json artifact: one load run of the
// advisor daemon under hundreds of concurrent sessions.
type ServeLoadResult struct {
	Sessions         int     `json:"sessions"`
	Tenants          int     `json:"tenants"`
	JobsPerSession   int     `json:"jobs_per_session"`
	JobsSubmitted    int     `json:"jobs_submitted"`
	JobsDone         int     `json:"jobs_done"`
	JobsFailed       int     `json:"jobs_failed"`
	JobsLost         int     `json:"jobs_lost"`
	JobsDuplicated   int     `json:"jobs_duplicated"`
	AdmissionRejects int64   `json:"admission_rejects"`
	Retries429       int64   `json:"retries_429"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	ThroughputPerSec float64 `json:"throughput_jobs_per_sec"`
	P50JobMS         float64 `json:"p50_job_ms"`
	P99JobMS         float64 `json:"p99_job_ms"`
	// CacheHitRate is the atom store's reuse across all jobs:
	// optimizer_atom_hits_total / (that + optimizer_atoms_total), in atoms.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// serveClient drives the daemon's HTTP handler in process: every request
// goes through the real mux, routing, and JSON codecs, but no TCP port
// is involved, so hundreds of concurrent sessions don't exhaust the
// loopback.
type serveClient struct {
	handler http.Handler
	tenant  string
}

func (c *serveClient) do(method, path string, body any, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("X-Tenant", c.tenant)
	rr := httptest.NewRecorder()
	c.handler.ServeHTTP(rr, req)
	if out != nil && rr.Code < 300 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			return rr.Code, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return rr.Code, nil
}

// ServeLoad runs `sessions` concurrent client sessions against an
// in-process daemon, each submitting `jobsPerSession` small selection
// jobs and polling them to completion, retrying admission-control 429s.
// Sessions are spread over `tenants` tenant namespaces sharing one
// uploaded workload per tenant. The run fails if any accepted job is
// lost, duplicated, or finishes in a non-terminal state.
func ServeLoad(sessions, jobsPerSession, tenants int, p Params) (*ServeLoadResult, error) {
	p = p.withDefaults()
	if sessions < 1 {
		sessions = 1
	}
	if jobsPerSession < 1 {
		jobsPerSession = 1
	}
	if tenants < 1 {
		tenants = 1
	}

	reg := obs.NewRegistry()
	// The queue is deliberately smaller than the session count so the
	// load run exercises admission control: bursts overflow it, sessions
	// see 429s and retry, and the zero-lost/zero-duplicated invariant is
	// checked under rejection pressure.
	queueDepth := sessions / 2
	if queueDepth < 8 {
		queueDepth = 8
	}
	s := serve.New(serve.Config{
		QueueDepth: queueDepth,
		Registry:   reg,
	})
	defer s.Close()
	handler := s.Handler()

	// One small workload per tenant, shared by all of its sessions.
	for ti := 0; ti < tenants; ti++ {
		c := &serveClient{handler: handler, tenant: fmt.Sprintf("t%03d", ti)}
		var wresp struct {
			ID string `json:"id"`
		}
		code, err := c.do("POST", "/v1/workloads",
			map[string]any{"db": "tpcd", "n": 30, "seed": p.Seed + uint64(ti)}, &wresp)
		if err != nil {
			return nil, fmt.Errorf("experiments: serve: upload: %w", err)
		}
		if code != http.StatusCreated || wresp.ID != "w1" {
			return nil, fmt.Errorf("experiments: serve: upload for tenant %d: status %d id %q", ti, code, wresp.ID)
		}
	}

	type sessionResult struct {
		ids     []string // accepted job ids, in submission order
		retries int64
		err     error
	}
	results := make([]sessionResult, sessions)
	sw := obs.NewStopwatch()
	var wg sync.WaitGroup
	wg.Add(sessions)
	for si := 0; si < sessions; si++ {
		go func(si int) {
			defer wg.Done()
			res := &results[si]
			c := &serveClient{handler: handler, tenant: fmt.Sprintf("t%03d", si%tenants)}
			for ji := 0; ji < jobsPerSession; ji++ {
				body := map[string]any{
					"workload": "w1",
					"k":        4,
					"seed":     p.Seed + uint64(1000+si*jobsPerSession+ji),
				}
				var jresp struct {
					ID string `json:"id"`
				}
				for {
					code, err := c.do("POST", "/v1/jobs", body, &jresp)
					if err != nil {
						res.err = err
						return
					}
					if code == http.StatusTooManyRequests {
						res.retries++
						time.Sleep(time.Millisecond)
						continue
					}
					if code != http.StatusAccepted {
						res.err = fmt.Errorf("session %d: submit status %d", si, code)
						return
					}
					break
				}
				res.ids = append(res.ids, jresp.ID)
			}
			// Poll every accepted job to a terminal state.
			for _, id := range res.ids {
				for {
					var st struct {
						Status string `json:"status"`
						Error  string `json:"error"`
					}
					code, err := c.do("GET", "/v1/jobs/"+id, nil, &st)
					if err != nil || code != http.StatusOK {
						res.err = fmt.Errorf("session %d: poll %s: status %d err %v", si, id, code, err)
						return
					}
					switch st.Status {
					case "done":
					case "failed", "cancelled":
						res.err = fmt.Errorf("session %d: job %s ended %s: %s", si, id, st.Status, st.Error)
						return
					default:
						time.Sleep(2 * time.Millisecond)
						continue
					}
					break
				}
			}
		}(si)
	}
	wg.Wait()
	elapsed := sw.Elapsed()

	out := &ServeLoadResult{
		Sessions:       sessions,
		Tenants:        tenants,
		JobsPerSession: jobsPerSession,
	}
	seen := map[string]bool{}
	for si := range results {
		if err := results[si].err; err != nil {
			return nil, fmt.Errorf("experiments: serve: %w", err)
		}
		out.JobsSubmitted += len(results[si].ids)
		out.Retries429 += results[si].retries
		for _, id := range results[si].ids {
			if seen[id] {
				out.JobsDuplicated++
			}
			seen[id] = true
		}
	}

	out.readSnapshot(reg.Snapshot())
	out.ElapsedMS = elapsed.Seconds() * 1000
	if elapsed > 0 {
		out.ThroughputPerSec = float64(out.JobsDone) / elapsed.Seconds()
	}

	if out.JobsLost != 0 || out.JobsDuplicated != 0 {
		return out, fmt.Errorf("experiments: serve: %d jobs lost, %d duplicated", out.JobsLost, out.JobsDuplicated)
	}
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("experiments: serve: close: %w", err)
	}
	return out, nil
}

// readSnapshot fills the daemon-side totals from its metrics registry:
// job outcomes, admission rejects, latency quantiles and the atom store's
// reuse. JobsSubmitted must already hold the sessions' accepted count.
func (out *ServeLoadResult) readSnapshot(snap obs.Snapshot) {
	out.JobsDone = int(snap.Counters["serve_jobs_done_total"])
	out.JobsFailed = int(snap.Counters["serve_jobs_failed_total"])
	out.AdmissionRejects = snap.Counters["serve_admission_rejects_total"]
	if total := snap.Counters["serve_jobs_total"]; int(total) > out.JobsSubmitted {
		// More jobs recorded than sessions accepted would mean phantom
		// submissions.
		out.JobsDuplicated += int(total) - out.JobsSubmitted
	}
	out.JobsLost = out.JobsSubmitted - out.JobsDone - out.JobsFailed
	if h, ok := snap.Histograms["serve_job_seconds"]; ok && h.Count > 0 {
		out.P50JobMS = h.P50 * 1000
		out.P99JobMS = h.P99 * 1000
	}
	if reuse := recorder.AtomReuse(snap); reuse != nil {
		out.CacheHitRate = reuse.HitRate
	}
}

// PrintServeLoad renders the load run the way benchrunner prints every
// experiment.
func PrintServeLoad(w io.Writer, r *ServeLoadResult) error {
	_, err := fmt.Fprintf(w,
		"Advisor service load: %d sessions x %d jobs over %d tenants\n"+
			"  submitted=%d done=%d failed=%d lost=%d duplicated=%d\n"+
			"  throughput=%.1f jobs/s  p50=%.1fms p99=%.1fms\n"+
			"  admission rejects=%d (client retries=%d)  atom reuse=%.1f%%\n",
		r.Sessions, r.JobsPerSession, r.Tenants,
		r.JobsSubmitted, r.JobsDone, r.JobsFailed, r.JobsLost, r.JobsDuplicated,
		r.ThroughputPerSec, r.P50JobMS, r.P99JobMS,
		r.AdmissionRejects, r.Retries429, 100*r.CacheHitRate)
	return err
}

// WriteServeJSON writes the load result as the BENCH_serve.json artifact
// tracked across revisions.
func WriteServeJSON(path string, r *ServeLoadResult) error {
	doc := struct {
		Benchmark string           `json:"benchmark"`
		Result    *ServeLoadResult `json:"result"`
	}{Benchmark: "serve-load", Result: r}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
