package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// harness wraps a daemon behind httptest for the API tests. No real
// ports: everything goes through the test server's in-process listener.
type harness struct {
	t   *testing.T
	s   *Server
	srv *httptest.Server
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	h := &harness{t: t, s: s, srv: srv}
	t.Cleanup(func() {
		srv.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h
}

// newRequest builds one API request with the tenant header set.
func (h *harness) newRequest(method, path, tenant string, body any) *http.Request {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			h.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, h.srv.URL+path, rd)
	if err != nil {
		h.t.Fatalf("request: %v", err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	return req
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return raw
}

// request performs one API call, returning status and body.
func (h *harness) request(method, path, tenant string, body any) (int, []byte) {
	h.t.Helper()
	resp, err := h.srv.Client().Do(h.newRequest(method, path, tenant, body))
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(h.t, resp.Body)
}

func (h *harness) requestJSON(method, path, tenant string, body any, out any) int {
	h.t.Helper()
	code, raw := h.request(method, path, tenant, body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			h.t.Fatalf("%s %s: unmarshal %q: %v", method, path, raw, err)
		}
	}
	return code
}

// uploadWorkload uploads a small generated workload and returns its id.
func (h *harness) uploadWorkload(tenant string, n int, seed uint64) string {
	h.t.Helper()
	var resp WorkloadResponse
	code := h.requestJSON("POST", "/v1/workloads", tenant,
		WorkloadRequest{DB: "tpcd", N: n, Seed: seed}, &resp)
	if code != http.StatusCreated {
		h.t.Fatalf("upload workload: status %d", code)
	}
	return resp.ID
}

// submit submits a job and returns its id.
func (h *harness) submit(tenant string, req JobRequest) string {
	h.t.Helper()
	var resp JobResponse
	code := h.requestJSON("POST", "/v1/jobs", tenant, req, &resp)
	if code != http.StatusAccepted {
		h.t.Fatalf("submit: status %d", code)
	}
	return resp.ID
}

// await polls a job until it reaches a terminal status.
func (h *harness) await(tenant, id string) JobResponse {
	h.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var resp JobResponse
		code := h.requestJSON("GET", "/v1/jobs/"+id, tenant, nil, &resp)
		if code != http.StatusOK {
			h.t.Fatalf("get job %s: status %d", id, code)
		}
		switch resp.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			return resp
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s stuck in %s", id, resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// directSelection reproduces a daemon job through core.Select directly —
// same generators, same seed derivation, same option mapping.
func directSelection(t *testing.T, req JobRequest, lim TenantLimits, wn int, wseed uint64) *core.Selection {
	t.Helper()
	cat := catalog.TPCD(1)
	w, err := workload.GenTPCD(cat, wn, wseed)
	if err != nil {
		t.Fatalf("GenTPCD: %v", err)
	}
	analyses := w.Analyses()
	cands := physical.EnumerateCandidates(cat, analyses,
		physical.CandidateOptions{Covering: true, Views: true})
	configs := physical.GenerateSpace(cat, cands, req.k(), stats.NewRNG(req.Seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
	opts, err := JobOptions(req, lim)
	if err != nil {
		t.Fatalf("JobOptions: %v", err)
	}
	sel, err := core.Select(optimizer.New(cat), w, configs, opts)
	if err != nil {
		t.Fatalf("direct Select: %v", err)
	}
	return sel
}

// TestDaemonDeterminism pins the service contract: a job submitted over
// HTTP yields a Selection DeepEqual to running core.Select directly with
// the same seed and options — also for two jobs running at once on the
// daemon's two runners.
func TestDaemonDeterminism(t *testing.T) {
	h := newHarness(t, Config{Runners: 2})
	wid := h.uploadWorkload("", 60, 7)
	reqs := []JobRequest{{Workload: wid, K: 6, Seed: 11}, {Workload: wid, K: 6, Seed: 12}}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = h.submit("", req)
	}
	for i, req := range reqs {
		resp := h.await("", ids[i])
		if resp.Status != StatusDone {
			t.Fatalf("seed %d: job ended %s (%s)", req.Seed, resp.Status, resp.Error)
		}
		got := h.s.Selection(ids[i])
		if got == nil {
			t.Fatalf("seed %d: no stored selection", req.Seed)
		}
		want := directSelection(t, req, TenantLimits{}, 60, 7)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: daemon selection differs from direct core.Select\n got: %+v\nwant: %+v",
				req.Seed, got, want)
		}
	}
}

// TestServeTenantNamespaces pins that workload ids are per-tenant and
// jobs are invisible across tenants (404, indistinguishable from
// missing).
func TestServeTenantNamespaces(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	wa := h.uploadWorkload("alice", 30, 1)
	wb := h.uploadWorkload("bob", 30, 2)
	if wa != "w1" || wb != "w1" {
		t.Fatalf("workload ids not per-tenant: alice=%s bob=%s", wa, wb)
	}
	id := h.submit("alice", JobRequest{Workload: wa, K: 4, Seed: 3})
	if code, _ := h.request("GET", "/v1/jobs/"+id, "bob", nil); code != http.StatusNotFound {
		t.Errorf("cross-tenant job read: status %d, want 404", code)
	}
	if code, _ := h.request("DELETE", "/v1/jobs/"+id, "bob", nil); code != http.StatusNotFound {
		t.Errorf("cross-tenant cancel: status %d, want 404", code)
	}
	if code, _ := h.request("GET", "/v1/jobs/"+id+"/events", "bob", nil); code != http.StatusNotFound {
		t.Errorf("cross-tenant events: status %d, want 404", code)
	}
	// Workload ids resolve per-namespace: Alice's second upload ("w2") is
	// invisible to Bob even though Alice can reference it.
	wa2 := h.uploadWorkload("alice", 30, 4)
	if wa2 != "w2" {
		t.Fatalf("alice's second workload id = %s, want w2", wa2)
	}
	var er ErrorResponse
	code := h.requestJSON("POST", "/v1/jobs", "bob", JobRequest{Workload: wa2, K: 4, Seed: 3}, &er)
	if code != http.StatusNotFound {
		t.Errorf("cross-tenant workload use: status %d, want 404", code)
	}
	h.await("alice", id)
}

// gatedOracle blocks every what-if probe until the gate channel closes,
// letting admission and cancellation tests hold jobs in flight
// deterministically.
type gatedOracle struct {
	sampling.Oracle
	gate <-chan struct{}
}

func (g *gatedOracle) Cost(i, j int) float64 {
	<-g.gate
	return g.Oracle.Cost(i, j)
}

// gatedConfig returns a Config whose jobs block on the returned release
// function. Tests must call release before the harness closes the
// daemon, or Close would wait on the blocked runners forever; the
// t.Cleanup registered here runs before newHarness's Close cleanup
// (LIFO), so forgetting is safe.
func gatedConfig(t *testing.T, cfg Config) (Config, func()) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	cfg.WrapOracle = func(_, _ string, o sampling.Oracle) sampling.Oracle {
		return &gatedOracle{Oracle: o, gate: gate}
	}
	return cfg, release
}

// TestServeAdmissionControl saturates a 1-runner, depth-2 daemon and
// asserts the 429 + Retry-After contract, then drains and verifies every
// accepted job finished exactly once.
func TestServeAdmissionControl(t *testing.T) {
	cfg, release := gatedConfig(t, Config{Runners: 1, QueueDepth: 2, RetryAfterSeconds: 3})
	h := newHarness(t, cfg)
	t.Cleanup(release)
	wid := h.uploadWorkload("", 40, 5)

	accepted := []string{}
	sawReject := false
	for i := 0; i < 12; i++ {
		var resp JobResponse
		code, raw := h.request("POST", "/v1/jobs", "",
			JobRequest{Workload: wid, K: 4, Seed: uint64(100 + i)})
		switch code {
		case http.StatusAccepted:
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			accepted = append(accepted, resp.ID)
		case http.StatusTooManyRequests:
			sawReject = true
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Fatalf("429 body %q not the canonical error shape", raw)
			}
		default:
			t.Fatalf("submit %d: unexpected status %d: %s", i, code, raw)
		}
	}
	if !sawReject {
		t.Fatal("queue of depth 2 absorbed 12 instant submissions without a 429")
	}
	release()
	for _, id := range accepted {
		r := h.await("", id)
		if r.Status != StatusDone {
			t.Errorf("accepted job %s ended %s (%s)", id, r.Status, r.Error)
		}
	}
	// Zero lost or duplicated jobs: every accepted id is distinct and the
	// tenant listing matches exactly.
	seen := map[string]bool{}
	for _, id := range accepted {
		if seen[id] {
			t.Errorf("duplicate job id %s", id)
		}
		seen[id] = true
	}
	var listing []JobResponse
	h.requestJSON("GET", "/v1/jobs", "", nil, &listing)
	if len(listing) != len(accepted) {
		t.Errorf("tenant lists %d jobs, accepted %d", len(listing), len(accepted))
	}

	t.Run("retrying clients", testAdmissionRetryingClients)
}

// testAdmissionRetryingClients drives more concurrent clients, over
// several tenants, than a gated daemon's runners and queue can hold. Every
// client retries each 429 until accepted and polls its job to a terminal
// state: every job must end done under a distinct id, and the daemon's
// counters must balance against what the clients saw.
func testAdmissionRetryingClients(t *testing.T) {
	cfg, release := gatedConfig(t, Config{Runners: 2, QueueDepth: 3})
	h := newHarness(t, cfg)
	t.Cleanup(release)
	const tenants, clients = 3, 12
	wids := make([]string, tenants)
	for ti := range wids {
		wids[ti] = h.uploadWorkload(fmt.Sprintf("t%d", ti), 30, uint64(ti+1))
	}
	do := func(method, path, tenant string, body any, out any) (int, error) {
		resp, err := h.srv.Client().Do(h.newRequest(method, path, tenant, body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return resp.StatusCode, nil
		}
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}

	type result struct {
		id, status string
		rejects    int64
		err        error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for ci := range results {
		wg.Add(1)
		go func(res *result, tenant string, req JobRequest) {
			defer wg.Done()
			var resp JobResponse
			for {
				code, err := do("POST", "/v1/jobs", tenant, req, &resp)
				if err != nil || (code != http.StatusAccepted && code != http.StatusTooManyRequests) {
					res.err = fmt.Errorf("submit: status %d: %v", code, err)
					return
				}
				if code == http.StatusAccepted {
					break
				}
				res.rejects++
				time.Sleep(time.Millisecond)
			}
			res.id = resp.ID
			for resp.Status == StatusQueued || resp.Status == StatusRunning {
				time.Sleep(2 * time.Millisecond)
				if code, err := do("GET", "/v1/jobs/"+res.id, tenant, nil, &resp); err != nil || code != http.StatusOK {
					res.err = fmt.Errorf("poll %s: status %d: %v", res.id, code, err)
					return
				}
			}
			res.status = resp.Status
		}(&results[ci], fmt.Sprintf("t%d", ci%tenants), JobRequest{Workload: wids[ci%tenants], K: 4, Seed: uint64(200 + ci)})
	}

	// The gated runners and the queue hold five jobs, so the remaining
	// clients are turned away; open the gate once the first 429 is counted.
	reg := h.s.Registry()
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counters["serve_admission_rejects_total"] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	// Close waits for the runners, so every job's counter has landed.
	if err := h.s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seen := map[string]bool{}
	var rejects int64
	for ci, res := range results {
		if res.err != nil {
			t.Fatalf("client %d: %v", ci, res.err)
		}
		if res.status != StatusDone {
			t.Errorf("client %d: job %s ended %s", ci, res.id, res.status)
		}
		if seen[res.id] {
			t.Errorf("duplicate job id %s", res.id)
		}
		seen[res.id] = true
		rejects += res.rejects
	}
	if rejects == 0 {
		t.Error("no client saw a 429: the queue never filled")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"serve_jobs_total":              clients,
		"serve_jobs_done_total":         clients,
		"serve_admission_rejects_total": rejects,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestServeRetryAfterHeader pins the Retry-After value on a saturated
// queue.
func TestServeRetryAfterHeader(t *testing.T) {
	cfg, release := gatedConfig(t, Config{Runners: 1, QueueDepth: 1, RetryAfterSeconds: 7})
	h := newHarness(t, cfg)
	t.Cleanup(release)
	wid := h.uploadWorkload("", 40, 5)
	var gotHeader string
	for i := 0; i < 10; i++ {
		raw, _ := json.Marshal(JobRequest{Workload: wid, K: 4, Seed: uint64(i + 1)})
		req, err := http.NewRequest("POST", h.srv.URL+"/v1/jobs", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := h.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //physdes:errok test drains body; status is the assertion
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			gotHeader = resp.Header.Get("Retry-After")
			break
		}
	}
	if gotHeader != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", gotHeader)
	}
}

// TestServeCallBudget exhausts a tenant's cumulative optimizer-call
// budget and asserts later submissions are refused with 429 while other
// tenants keep working.
func TestServeCallBudget(t *testing.T) {
	h := newHarness(t, Config{
		Runners:      1,
		TenantLimits: map[string]TenantLimits{"meter": {CallBudget: 1}},
	})
	wm := h.uploadWorkload("meter", 30, 3)
	wo := h.uploadWorkload("other", 30, 3)

	id := h.submit("meter", JobRequest{Workload: wm, K: 4, Seed: 9})
	if r := h.await("meter", id); r.Status != StatusDone {
		t.Fatalf("first metered job ended %s", r.Status)
	}
	var tr TenantResponse
	h.requestJSON("GET", "/v1/tenant", "meter", nil, &tr)
	if !tr.BudgetExhausted || tr.CallsUsed < 1 {
		t.Fatalf("budget not spent: %+v", tr)
	}
	code, _ := h.request("POST", "/v1/jobs", "meter", JobRequest{Workload: wm, K: 4, Seed: 10})
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant submit: status %d, want 429", code)
	}
	// The other tenant is unaffected.
	oid := h.submit("other", JobRequest{Workload: wo, K: 4, Seed: 9})
	if r := h.await("other", oid); r.Status != StatusDone {
		t.Fatalf("other tenant's job ended %s", r.Status)
	}
}

// TestServeCancellation covers DELETE in every state: queued jobs cancel
// without running, running jobs stop early, and finished jobs answer
// 409.
func TestServeCancellation(t *testing.T) {
	cfg, release := gatedConfig(t, Config{Runners: 1, QueueDepth: 8})
	h := newHarness(t, cfg)
	t.Cleanup(release)
	wid := h.uploadWorkload("", 40, 5)

	// Occupy the single runner with a gated job, then cancel a queued job
	// behind it.
	busy := h.submit("", JobRequest{Workload: wid, K: 6, Seed: 21})
	queued := h.submit("", JobRequest{Workload: wid, K: 6, Seed: 22})
	var cresp JobResponse
	code := h.requestJSON("DELETE", "/v1/jobs/"+queued, "", nil, &cresp)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	if r := h.await("", queued); r.Status != StatusCancelled {
		t.Fatalf("queued job ended %s, want cancelled", r.Status)
	}
	release()
	if r := h.await("", busy); r.Status != StatusDone {
		t.Fatalf("busy job ended %s (%s)", r.Status, r.Error)
	}
	if h.s.Selection(queued) != nil {
		t.Error("cancelled-while-queued job has a selection")
	}

	// 409 on re-cancel of a finished job.
	if code, _ := h.request("DELETE", "/v1/jobs/"+busy, "", nil); code != http.StatusConflict {
		t.Errorf("cancel finished job: status %d, want 409", code)
	}
	if code, _ := h.request("DELETE", "/v1/jobs/"+queued, "", nil); code != http.StatusConflict {
		t.Errorf("re-cancel cancelled job: status %d, want 409", code)
	}
}

// TestServeCancelRunning cancels a job mid-flight: DELETE answers with
// cancelling, and once the oracle unblocks the samplers observe the
// context and the job lands in cancelled.
func TestServeCancelRunning(t *testing.T) {
	cfg, release := gatedConfig(t, Config{Runners: 1})
	h := newHarness(t, cfg)
	t.Cleanup(release)
	wid := h.uploadWorkload("", 40, 5)
	id := h.submit("", JobRequest{Workload: wid, K: 6, Seed: 23})

	// Wait until the runner picked the job up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resp JobResponse
		h.requestJSON("GET", "/v1/jobs/"+id, "", nil, &resp)
		if resp.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", resp.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var cresp JobResponse
	if code := h.requestJSON("DELETE", "/v1/jobs/"+id, "", nil, &cresp); code != http.StatusOK {
		t.Fatalf("cancel running: status %d", code)
	}
	if cresp.Status != StatusCancelling {
		t.Fatalf("cancel running answered %s, want cancelling", cresp.Status)
	}
	release()
	if r := h.await("", id); r.Status != StatusCancelled {
		t.Fatalf("cancelled job ended %s", r.Status)
	}
	if h.s.Selection(id) != nil {
		t.Error("cancelled job stored a selection")
	}
}

// sseEvent is one parsed SSE message.
type sseEvent struct {
	event string
	id    string
	data  string
}

// readSSE consumes a full SSE stream into events.
func readSSE(r io.Reader) ([]sseEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evs []sseEvent
	cur := sseEvent{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				evs = append(evs, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return evs, sc.Err()
}

// checkSSE asserts the exactly-once, in-order event contract: round ids
// 0..n-1 with strictly increasing round numbers, then one done event.
func checkSSE(t *testing.T, evs []sseEvent, jobID string) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatalf("job %s: empty SSE stream", jobID)
	}
	last := evs[len(evs)-1]
	if last.event != "done" {
		t.Fatalf("job %s: stream ends with %q, want done", jobID, last.event)
	}
	prevRound := -1
	for i, ev := range evs[:len(evs)-1] {
		if ev.event != "round" {
			t.Fatalf("job %s: event %d is %q, want round", jobID, i, ev.event)
		}
		if ev.id != fmt.Sprint(i) {
			t.Fatalf("job %s: event %d has id %q (duplicate or gap)", jobID, i, ev.id)
		}
		var rd struct {
			Round int `json:"round"`
		}
		if err := json.Unmarshal([]byte(ev.data), &rd); err != nil {
			t.Fatalf("job %s: round data %q: %v", jobID, ev.data, err)
		}
		if rd.Round <= prevRound {
			t.Fatalf("job %s: round %d after %d (out of order)", jobID, rd.Round, prevRound)
		}
		prevRound = rd.Round
	}
}

// TestServeSSEEvents follows a job's event stream end to end and checks
// the exactly-once, in-order contract.
func TestServeSSEEvents(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	wid := h.uploadWorkload("", 40, 5)
	id := h.submit("", JobRequest{Workload: wid, K: 6, Seed: 31})

	resp, err := h.srv.Client().Get(h.srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs, err := readSSE(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkSSE(t, evs, id)

	var done struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(evs[len(evs)-1].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" {
		t.Fatalf("done event status %q", done.Status)
	}
}

// TestServeStorm is the N-tenant concurrency battery: concurrent
// submits, SSE followers, cancellations and a server shutdown, under
// -race, with no leaked goroutines and no lost or duplicated jobs.
func TestServeStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{Runners: 4, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	h := &harness{t: t, s: s, srv: srv}

	const tenants = 4
	const jobsPer = 3
	wids := make([]string, tenants)
	for i := range wids {
		wids[i] = h.uploadWorkload(fmt.Sprintf("t%d", i), 30, uint64(i+1))
	}

	type jobKey struct{ tenant, id string }
	var mu sync.Mutex
	submitted := map[jobKey]bool{}
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		wid := wids[ti]
		for ji := 0; ji < jobsPer; ji++ {
			wg.Add(1)
			go func(seed uint64, cancelIt bool) {
				defer wg.Done()
				var resp JobResponse
				code := h.requestJSON("POST", "/v1/jobs", tenant,
					JobRequest{Workload: wid, K: 4, Seed: seed}, &resp)
				if code != http.StatusAccepted {
					t.Errorf("storm submit: status %d", code)
					return
				}
				mu.Lock()
				k := jobKey{tenant, resp.ID}
				if submitted[k] {
					t.Errorf("duplicate job id %v", k)
				}
				submitted[k] = true
				mu.Unlock()

				// Every job gets an SSE follower; some get cancelled mid-flight.
				wg.Add(1)
				go func() {
					defer wg.Done()
					sresp, err := h.srv.Client().Get(h.srv.URL + "/v1/jobs/" + resp.ID + "/events")
					if err != nil {
						return // server shut down under the follower; fine
					}
					defer sresp.Body.Close()
					evs, err := readSSE(sresp.Body)
					if err != nil || len(evs) == 0 {
						return
					}
					if last := evs[len(evs)-1]; last.event == "done" {
						checkSSE(t, evs, resp.ID)
					}
				}()
				if cancelIt {
					h.request("DELETE", "/v1/jobs/"+resp.ID, tenant, nil)
				} else {
					h.await(tenant, resp.ID)
				}
			}(uint64(100+ti*10+ji), ji == jobsPer-1)
		}
	}
	wg.Wait()

	// Shutdown: close the HTTP server and the daemon; runners and SSE
	// streams must all exit.
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}

	// Every submitted job reached a terminal state exactly once.
	if want := tenants * jobsPer; len(submitted) != want {
		t.Errorf("submitted %d distinct jobs, want %d", len(submitted), want)
	}
	for k := range submitted {
		s.mu.Lock()
		j := s.jobs[k.id]
		s.mu.Unlock()
		if j == nil {
			t.Errorf("job %v lost", k)
			continue
		}
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		switch st {
		case StatusDone, StatusFailed, StatusCancelled:
		default:
			t.Errorf("job %v left in state %s after shutdown", k, st)
		}
	}

	// Goroutine count returns to baseline (allow slack for the runtime's
	// own background goroutines and the test server's idle pool).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeShutdownCancelsQueued pins Close semantics: jobs still queued
// at shutdown end cancelled, not lost, and Close returns only after all
// runners exited.
func TestServeShutdownCancelsQueued(t *testing.T) {
	s := New(Config{Runners: 1, QueueDepth: 16})
	srv := httptest.NewServer(s.Handler())
	h := &harness{t: t, s: s, srv: srv}

	wid := h.uploadWorkload("", 40, 5)
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		ids = append(ids, h.submit("", JobRequest{Workload: wid, K: 6, Seed: uint64(50 + i)}))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	defer srv.Close()

	terminal := 0
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		switch st {
		case StatusDone, StatusCancelled, StatusFailed:
			terminal++
		default:
			t.Errorf("job %s left %s after Close", id, st)
		}
	}
	if terminal != len(ids) {
		t.Errorf("%d/%d jobs terminal after Close", terminal, len(ids))
	}

	// Submissions after Close are refused.
	if code, _ := h.request("POST", "/v1/jobs", "", JobRequest{Workload: wid, K: 4, Seed: 99}); code != http.StatusServiceUnavailable {
		t.Errorf("post-Close submit: status %d, want 503", code)
	}
}
