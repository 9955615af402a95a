package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"physdes/internal/obs/recorder"
	"physdes/internal/sampling"
)

// outageOracle fails a deterministic subset of probes permanently —
// the synthetic stand-in for a tenant whose what-if service is sick.
type outageOracle struct {
	sampling.Oracle
	// every mod'th (i*31+j) probe fails
	mod int
}

var errSyntheticOutage = errors.New("synthetic probe outage")

func (o *outageOracle) CostErr(i, j int) (float64, error) {
	if (i*31+j)%o.mod == 0 {
		return 0, errSyntheticOutage
	}
	return o.Oracle.Cost(i, j), nil
}

// TestServeErrorBudgetIsolation runs a degrading tenant, a
// budget-exhausting tenant, and a healthy tenant concurrently and pins:
//
//   - the "flaky" tenant (conservative degradation, unlimited error
//     budget) completes with degraded probes,
//   - the "broke" tenant (error budget 1) fails alone with
//     ErrBudgetExhausted,
//   - the healthy tenant's Selection is DeepEqual to a solo run without
//     any sick neighbors.
func TestServeErrorBudgetIsolation(t *testing.T) {
	cfg := Config{
		Runners: 3,
		TenantLimits: map[string]TenantLimits{
			"flaky": {MaxRetries: 1, Degrade: "conservative"},
			"broke": {ErrorBudget: 1, Degrade: "skip"},
		},
		WrapOracle: func(tenant, _ string, o sampling.Oracle) sampling.Oracle {
			switch tenant {
			case "flaky", "broke":
				return &outageOracle{Oracle: o, mod: 17}
			}
			return o
		},
	}
	h := newHarness(t, cfg)

	wf := h.uploadWorkload("flaky", 60, 7)
	wb := h.uploadWorkload("broke", 60, 7)
	wh := h.uploadWorkload("healthy", 60, 7)

	req := JobRequest{K: 6, Seed: 11}
	fReq, bReq, hReq := req, req, req
	fReq.Workload, bReq.Workload, hReq.Workload = wf, wb, wh
	fid := h.submit("flaky", fReq)
	bid := h.submit("broke", bReq)
	hid := h.submit("healthy", hReq)

	fr := h.await("flaky", fid)
	br := h.await("broke", bid)
	hr := h.await("healthy", hid)

	if fr.Status != StatusDone {
		t.Fatalf("flaky tenant job ended %s (%s), want done via conservative degradation", fr.Status, fr.Error)
	}
	if fr.Result.OracleFaults == 0 {
		t.Error("flaky tenant saw no oracle faults; the outage oracle was not applied")
	}

	if br.Status != StatusFailed {
		t.Fatalf("broke tenant job ended %s, want failed", br.Status)
	}
	if !strings.Contains(br.Error, "budget exhausted") {
		t.Errorf("broke tenant error %q does not name the exhausted budget", br.Error)
	}

	if hr.Status != StatusDone {
		t.Fatalf("healthy tenant job ended %s (%s)", hr.Status, hr.Error)
	}
	got := h.s.Selection(hid)
	want := directSelection(t, hReq, TenantLimits{}, 60, 7)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("healthy tenant's selection differs from its solo run:\n got: %+v\nwant: %+v", got, want)
	}

	// The sick tenants never consumed the healthy tenant's namespace or
	// budget.
	var tr TenantResponse
	h.requestJSON("GET", "/v1/tenant", "healthy", nil, &tr)
	if tr.Jobs != 1 || tr.Workloads != 1 {
		t.Errorf("healthy tenant sees %d jobs / %d workloads, want 1/1", tr.Jobs, tr.Workloads)
	}
}

// TestServeDegradePolicyValidation pins the error shape for a bad tenant
// policy: the submit is rejected up front, not at run time.
func TestServeDegradePolicyValidation(t *testing.T) {
	h := newHarness(t, Config{
		Runners:      1,
		TenantLimits: map[string]TenantLimits{"typo": {Degrade: "conservativ"}},
	})
	wid := h.uploadWorkload("typo", 30, 1)
	var er ErrorResponse
	code := h.requestJSON("POST", "/v1/jobs", "typo", JobRequest{Workload: wid, K: 4, Seed: 1}, &er)
	if code != http.StatusBadRequest {
		t.Fatalf("bad degrade policy: status %d, want 400", code)
	}
	if !strings.Contains(er.Error, "degrade") {
		t.Errorf("error %q does not name the degrade policy", er.Error)
	}
}

// TestServeRunsTenantScoped pins the tenancy of the /runs routes: a job's
// flight-recorder report and event stream answer its own tenant and are
// a 404 for any other, exactly like /v1/jobs/{id}, and the /runs listing
// exposes no job to anyone.
func TestServeRunsTenantScoped(t *testing.T) {
	h := newHarness(t, Config{Runners: 1})
	wid := h.uploadWorkload("owner", 40, 5)
	id := h.submit("owner", JobRequest{Workload: wid, K: 4, Seed: 3})
	if resp := h.await("owner", id); resp.Status != StatusDone {
		t.Fatalf("job %s ended %s: %s", id, resp.Status, resp.Error)
	}

	for _, path := range []string{"/runs/" + id + "/report", "/runs/" + id + "/events"} {
		if code, body := h.request("GET", path, "other", nil); code != http.StatusNotFound {
			t.Errorf("GET %s as another tenant: status %d, %d-byte body; want 404", path, code, len(body))
		}
	}
	var rep recorder.RunReport
	if code := h.requestJSON("GET", "/runs/"+id+"/report", "owner", nil, &rep); code != http.StatusOK {
		t.Fatalf("GET report as owner: status %d", code)
	}
	if rep.ID != id || rep.Status != "done" || len(rep.Rounds) == 0 {
		t.Errorf("owner's report: id %q status %q with %d rounds", rep.ID, rep.Status, len(rep.Rounds))
	}
	code, body := h.request("GET", "/runs/"+id+"/events", "owner", nil)
	if code != http.StatusOK {
		t.Fatalf("GET events as owner: status %d", code)
	}
	evs, err := readSSE(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	checkSSE(t, evs, id)

	for _, tenant := range []string{"owner", "other"} {
		code, body := h.request("GET", "/runs", tenant, nil)
		var runs []json.RawMessage
		if err := json.Unmarshal(body, &runs); code != http.StatusOK || err != nil || len(runs) != 0 {
			t.Errorf("GET /runs as %s: status %d, body %s; want 200 and no runs", tenant, code, body)
		}
	}
}
