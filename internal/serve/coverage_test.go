package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"physdes/internal/obs/recorder"
)

// TestServeStartDefaults exercises the real-listener path and the
// zero-value Config defaults (runner count from par.Default, default
// queue depth): Start on an ephemeral port must serve /healthz and
// /metrics over TCP, and Close must stop the listener.
func TestServeStartDefaults(t *testing.T) {
	s := New(Config{})
	if s.Registry() == nil {
		t.Fatal("Registry() returned nil")
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz over TCP: %v", err)
	}
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: status %d body %q", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still serving after Close")
	}
}

// TestServeStartBadAddr pins the listen-failure error shape.
func TestServeStartBadAddr(t *testing.T) {
	s := New(Config{Runners: 1})
	defer s.Close()
	if _, err := s.Start("256.256.256.256:1"); err == nil {
		t.Fatal("Start on an invalid address succeeded")
	}
}

// TestFinishCancelled pins the shutdown-drain bookkeeping: the first
// finish marks the job cancelled and counts it once; a second finish
// (job already cancelled via DELETE before the drain saw it) must not
// double-count.
func TestFinishCancelled(t *testing.T) {
	s := New(Config{Runners: 1})
	defer s.Close()
	j := &job{id: "jx", status: StatusQueued, rec: recorder.New("jx")}
	s.finishCancelled(j, context.Canceled)
	if j.status != StatusCancelled || !j.cancelled || j.err == nil {
		t.Fatalf("after finishCancelled: status=%q cancelled=%v err=%v", j.status, j.cancelled, j.err)
	}
	before := s.reg.Snapshot().Counters["serve_jobs_cancelled_total"]
	s.finishCancelled(j, context.Canceled)
	after := s.reg.Snapshot().Counters["serve_jobs_cancelled_total"]
	if after != before {
		t.Fatalf("second finishCancelled double-counted: %d -> %d", before, after)
	}
}

// TestServeWorkloadUploadVariants covers the upload paths beyond the
// generated-tpcd default: raw SQL parsing, the crm generator, size caps
// on both, and parse failures.
func TestServeWorkloadUploadVariants(t *testing.T) {
	h := newHarness(t, Config{Runners: 1, MaxUploadStatements: 3})

	var resp WorkloadResponse
	code := h.requestJSON("POST", "/v1/workloads", "", WorkloadRequest{
		DB:  "tpcd",
		SQL: []string{"SELECT p_name FROM part WHERE p_brand = 'B1'"},
	}, &resp)
	if code != http.StatusCreated || resp.Statements != 1 {
		t.Fatalf("sql upload: status %d resp %+v", code, resp)
	}

	code = h.requestJSON("POST", "/v1/workloads", "", WorkloadRequest{DB: "crm", N: 2}, &resp)
	if code != http.StatusCreated || resp.DB != "crm" {
		t.Fatalf("crm upload: status %d resp %+v", code, resp)
	}

	var e ErrorResponse
	code = h.requestJSON("POST", "/v1/workloads", "", WorkloadRequest{
		DB:  "tpcd",
		SQL: []string{"q1", "q2", "q3", "q4"},
	}, &e)
	if code != http.StatusBadRequest || !strings.Contains(e.Error, "workload too large") {
		t.Fatalf("oversized sql upload: status %d error %q", code, e.Error)
	}

	code = h.requestJSON("POST", "/v1/workloads", "", WorkloadRequest{DB: "tpcd", N: 4}, &e)
	if code != http.StatusBadRequest || !strings.Contains(e.Error, "workload too large") {
		t.Fatalf("oversized generated upload: status %d error %q", code, e.Error)
	}

	code = h.requestJSON("POST", "/v1/workloads", "", WorkloadRequest{
		DB:  "tpcd",
		SQL: []string{"DROP TABLE part"},
	}, &e)
	if code != http.StatusBadRequest || !strings.Contains(e.Error, "workload:") {
		t.Fatalf("unparseable sql: status %d error %q", code, e.Error)
	}
}

// TestServeTenantHeaderValidation covers the invalid-tenant branch on
// every handler that resolves the header.
func TestServeTenantHeaderValidation(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	bad := "spaces are invalid"
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/workloads"},
		{"GET", "/v1/workloads"},
		{"POST", "/v1/jobs"},
		{"GET", "/v1/jobs"},
		{"GET", "/v1/jobs/j1"},
		{"DELETE", "/v1/jobs/j1"},
		{"GET", "/v1/tenant"},
	} {
		var e ErrorResponse
		code := h.requestJSON(probe.method, probe.path, bad, map[string]any{}, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, "invalid tenant") {
			t.Errorf("%s %s with bad tenant: status %d error %q", probe.method, probe.path, code, e.Error)
		}
	}
}

// TestJobRequestOptionVariants covers every accepted scheme, strat, and
// degrade spelling plus the numeric overrides.
func TestJobRequestOptionVariants(t *testing.T) {
	cases := []JobRequest{
		{Seed: 1, Scheme: "delta", Strat: "progressive"},
		{Seed: 2, Scheme: "independent", Strat: "none"},
		{Seed: 3, Strat: "fine", Alpha: 0.9, Delta: 0.1},
		{Seed: 4, MaxCalls: 100, Conservative: true},
	}
	for i, jr := range cases {
		if _, err := JobOptions(jr, TenantLimits{}); err != nil {
			t.Errorf("case %d (%+v): %v", i, jr, err)
		}
	}
	for _, lim := range []TenantLimits{
		{Degrade: "skip", ErrorBudget: 2},
		{Degrade: "conservative", MaxRetries: 1},
		{Degrade: "fail"},
	} {
		o, err := JobOptions(JobRequest{Seed: 6}, lim)
		if err != nil {
			t.Errorf("limits %+v: %v", lim, err)
			continue
		}
		if lim.Degrade == "conservative" && !o.Conservative {
			t.Error("conservative degrade must force conservative mode")
		}
	}
	for i, jr := range []JobRequest{
		{Scheme: "bogus"},
		{Strat: "bogus"},
	} {
		if _, err := JobOptions(jr, TenantLimits{}); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
	if _, err := JobOptions(JobRequest{}, TenantLimits{Degrade: "bogus"}); err == nil {
		t.Error("bad degrade policy accepted")
	}
}

// TestJobParallelism pins the per-job worker count: a job's probes run
// on its runner's goroutine and Config.Runners bounds concurrency across
// jobs, so every request, conservative or not, resolves to one worker.
func TestJobParallelism(t *testing.T) {
	for _, jr := range []JobRequest{
		{Seed: 5},
		{Seed: 5, Conservative: true},
		{Seed: 5, Scheme: "independent", Strat: "fine"},
	} {
		for _, lim := range []TenantLimits{{}, {Degrade: "conservative"}} {
			o, err := JobOptions(jr, lim)
			if err != nil {
				t.Errorf("%+v under %+v: %v", jr, lim, err)
			} else if o.Parallelism != 1 {
				t.Errorf("%+v under %+v resolved to parallelism %d, want 1", jr, lim, o.Parallelism)
			}
		}
	}
}

// TestJobParallelismCapHTTP pins the parallelism cap at the handler: the
// field is gone, so a body still carrying it, even at 1, is an unknown
// field like any other, a 400 in the usual error shape, and no job is
// queued.
func TestJobParallelismCapHTTP(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	wl := h.uploadWorkload("", 50, 1)
	for _, p := range []int{1, 1_000_000} {
		var e ErrorResponse
		body := map[string]any{"workload": wl, "k": 4, "seed": 1, "parallelism": p}
		code := h.requestJSON("POST", "/v1/jobs", "", body, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "parallelism"`) {
			t.Fatalf("parallelism %d in a job body: status %d error %q", p, code, e.Error)
		}
	}
	var jobs []JobResponse
	if code := h.requestJSON("GET", "/v1/jobs", "", nil, &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after the rejection: status %d, %d jobs", code, len(jobs))
	}
}

// TestJobRequestRejectsAtomSharing pins that the removed atom_sharing
// field is an unknown field like any other: every job probes through the
// atom store, so a body still carrying it is a 400 and queues nothing.
func TestJobRequestRejectsAtomSharing(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	wl := h.uploadWorkload("", 50, 1)
	var e ErrorResponse
	body := map[string]any{"workload": wl, "k": 4, "seed": 1, "atom_sharing": false}
	code := h.requestJSON("POST", "/v1/jobs", "", body, &e)
	if code != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "atom_sharing"`) {
		t.Fatalf("atom_sharing in a job body: status %d error %q", code, e.Error)
	}
	var jobs []JobResponse
	if code := h.requestJSON("GET", "/v1/jobs", "", nil, &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after the rejection: status %d, %d jobs", code, len(jobs))
	}
}

// TestValidTenantName pins the namespace character set.
func TestValidTenantName(t *testing.T) {
	for _, ok := range []string{"a", "A-b_c.9", strings.Repeat("x", 64)} {
		if !validTenantName(ok) {
			t.Errorf("validTenantName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "sla/sh", strings.Repeat("x", 65), "bÃ¤d"} {
		if validTenantName(bad) {
			t.Errorf("validTenantName(%q) = true", bad)
		}
	}
}

// TestServeUnknownCatalog covers the shared-catalog error branch and the
// cache hit on repeat use.
func TestServeUnknownCatalog(t *testing.T) {
	s := New(Config{Runners: 1})
	defer s.Close()
	if _, err := s.catalogFor("nope"); err == nil {
		t.Fatal("unknown catalog accepted")
	}
	c1, err := s.catalogFor("crm")
	if err != nil {
		t.Fatalf("crm catalog: %v", err)
	}
	c2, err := s.catalogFor("crm")
	if err != nil || c1 != c2 {
		t.Fatalf("catalog not cached: %p vs %p (%v)", c1, c2, err)
	}
}
