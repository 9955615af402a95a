package live

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("optimizer_calls_total").Add(7)
	reg.Gauge("physdes_up").Set(1)
	srv := New(reg)

	rec := recorder.New("run-1")
	tr := obs.NewTracerSinks(rec)
	tr.Emit("round", obs.KV{Key: "round", Value: 1}, obs.KV{Key: "prcs", Value: 0.8},
		obs.KV{Key: "best", Value: 0})
	rec.Finish(nil)
	srv.Register(rec)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, ts, "/metrics"); code != 200 ||
		!strings.Contains(body, "optimizer_calls_total 7") || !strings.Contains(body, "physdes_up 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get(t, ts, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.Counters["optimizer_calls_total"] != 7 {
		t.Errorf("snapshot counters = %+v", snap.Counters)
	}

	code, body = get(t, ts, "/runs")
	if code != 200 || !strings.Contains(body, `"id": "run-1"`) || !strings.Contains(body, `"status": "done"`) {
		t.Errorf("/runs = %d %q", code, body)
	}
	code, body = get(t, ts, "/runs/run-1/report")
	if code != 200 {
		t.Fatalf("/runs/run-1/report = %d", code)
	}
	var rep recorder.RunReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.ID != "run-1" || len(rep.Rounds) != 1 || rep.PrCS != 0.8 {
		t.Errorf("report = %+v", rep)
	}
	if code, _ := get(t, ts, "/runs/ghost/report"); code != 404 {
		t.Errorf("unknown run report = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/runs/ghost/events"); code != 404 {
		t.Errorf("unknown run events = %d, want 404", code)
	}
	if code, body := get(t, ts, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestStartAndClose(t *testing.T) {
	srv := New(nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over Start = %d", resp.StatusCode)
	}
	// A nil registry still serves an (empty) exposition.
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics over Start = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// sseRound is one `event: round` message as decoded from the stream.
type sseRound struct {
	id    int
	round recorder.Round
}

// readSSE consumes one SSE stream until its `event: done` message,
// returning the round messages in arrival order and the done payload.
func readSSE(t *testing.T, resp *http.Response) ([]sseRound, map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var (
		rounds []sseRound
		event  string
		id     = -1
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			id = n
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "round":
				var r recorder.Round
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					t.Fatalf("bad round payload %q: %v", data, err)
				}
				rounds = append(rounds, sseRound{id: id, round: r})
			case "done":
				var done map[string]any
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				return rounds, done
			default:
				t.Fatalf("unexpected event %q", event)
			}
		case line == "":
			// message boundary
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("stream ended without done event (after %d rounds): %v", len(rounds), sc.Err())
	return nil, nil
}

// checkExactlyOnce asserts the stream delivered rounds 1..want exactly
// once, in order, with ids counting up from 0.
func checkExactlyOnce(t *testing.T, rounds []sseRound, want int) {
	t.Helper()
	if len(rounds) != want {
		t.Fatalf("stream delivered %d rounds, want %d", len(rounds), want)
	}
	for i, r := range rounds {
		if r.id != i {
			t.Fatalf("message %d has id %d", i, r.id)
		}
		if r.round.Round != i+1 {
			t.Fatalf("message %d carries round %d, want %d", i, r.round.Round, i+1)
		}
	}
}

func TestSSEDeliversSyntheticRun(t *testing.T) {
	const rounds = 100
	rec := recorder.New("r")
	srv := New(nil)
	srv.Register(rec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr := obs.NewTracerSinks(rec)
	// A late subscriber joining after some rounds must still see them all:
	// the stream replays the backlog before following live appends.
	for i := 1; i <= rounds/2; i++ {
		tr.Emit("round", obs.KV{Key: "round", Value: i}, obs.KV{Key: "prcs", Value: 0.5})
	}
	resp, err := ts.Client().Get(ts.URL + "/runs/r/events")
	if err != nil {
		t.Fatal(err)
	}
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		for i := rounds/2 + 1; i <= rounds; i++ {
			tr.Emit("round", obs.KV{Key: "round", Value: i}, obs.KV{Key: "prcs", Value: 0.5})
		}
		rec.Finish(nil)
	}()
	got, done := readSSE(t, resp)
	<-donec
	checkExactlyOnce(t, got, rounds)
	if done["status"] != "done" {
		t.Fatalf("done payload = %+v", done)
	}
}

// TestSSELiveSelectStorm is the -race storm test of the acceptance
// criteria: a real core.Select runs with the flight recorder attached
// while several concurrent SSE clients consume /runs/{id}/events. Every
// client must observe every round exactly once, in order.
func TestSSELiveSelectStorm(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	analyses := w.Analyses()
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, 4, stats.NewRNG(6), physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < 2 {
		t.Fatalf("only %d configurations generated", len(space))
	}

	reg := obs.NewRegistry()
	rec := recorder.New("live").WithMetrics(reg)
	srv := New(reg)
	srv.Register(rec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 4
	type result struct {
		rounds []sseRound
		done   map[string]any
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/runs/live/events")
			if err != nil {
				t.Error(err)
				return
			}
			results[c].rounds, results[c].done = readSSE(t, resp)
		}(c)
	}

	o := core.DefaultOptions(7)
	o.Tracer = obs.NewTracerSinks(rec)
	o.Metrics = reg
	sel, err := core.Select(opt, w, space, o)
	rec.Finish(err)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	want := len(rec.Report().Rounds)
	if want == 0 {
		t.Fatal("selection emitted no rounds")
	}
	for c := 0; c < clients; c++ {
		checkExactlyOnce(t, results[c].rounds, want)
		if results[c].done["status"] != "done" {
			t.Fatalf("client %d done payload = %+v", c, results[c].done)
		}
		if int(results[c].done["best"].(float64)) != sel.BestIndex {
			t.Fatalf("client %d done best = %v, selection best = %d", c, results[c].done["best"], sel.BestIndex)
		}
	}

	// The report over HTTP agrees with the selection.
	resp, err := ts.Client().Get(ts.URL + "/runs/live/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep recorder.RunReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Best != sel.BestIndex || rep.Oracle.Calls != sel.OptimizerCalls || rep.Status != recorder.StatusDone {
		t.Fatalf("HTTP report best=%d calls=%d status=%q; selection best=%d calls=%d",
			rep.Best, rep.Oracle.Calls, rep.Status, sel.BestIndex, sel.OptimizerCalls)
	}
}

// TestSSEClientDisconnect ensures an abandoned stream unblocks the
// handler instead of leaking it.
func TestSSEClientDisconnect(t *testing.T) {
	rec := recorder.New("r")
	srv := New(nil)
	srv.Register(rec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/runs/r/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // hang up while the handler waits for rounds
	// The handler notices via the request context; closing the test server
	// (which waits for handlers) would hang if it leaked.
}
