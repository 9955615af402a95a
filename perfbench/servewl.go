package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/serve"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// finishPoll is how long a client waits before re-reading a job whose
// event stream has ended but whose status is not yet terminal.
const finishPoll = 50 * time.Microsecond

// serveWorkload drives the daemon's handler in process with closed-loop
// clients, one tenant each. Every round a client uploads one of its
// pre-generated SQL texts and then runs one job per job seed on the new
// workload. The daemon retains every upload and job, so a run restarts it
// after a fixed number of rounds to keep its heap bounded.
type serveWorkload struct {
	name string
	// dbs names each client's database; the client count is len(dbs).
	dbs     []string
	uploadN int // statements per upload
	// texts is how many distinct texts a client cycles through. Jobs on
	// different texts bill different call counts: over ten seeds
	// calls_per_select spread 0.11 with 3 texts per client and 0.09 with
	// 6. More texts cost set-up time.
	texts int
	// jobSeeds is the number of jobs per upload, seeds 1..jobSeeds. It sets
	// the upload share of a client's time (serve.upload_share).
	jobSeeds int
	k        int
	// rounds is how many rounds each client runs per daemon lifetime.
	rounds int
	// perSecond is how many daemon lifetimes one second of budget buys.
	perSecond float64
}

// serveMixed uploads once per two jobs: a 2K-statement upload takes about
// as long as 1.1 k=20 jobs, so uploads are about a third of a client's
// time and a 2x slower upload path costs about a quarter of selects_per_s.
// 25 rounds per lifetime retain 50 uploads: ~100 MB of live heap and a
// peak_heap_mb of ~310 MB.
var serveMixed = serveWorkload{
	name: "serve-mixed", dbs: []string{"tpcd", "tpcd"},
	uploadN: 2_000, texts: 6, jobSeeds: 2, k: 20, rounds: 25, perSecond: 0.3,
}

// uploadText is one pre-generated upload with the Selections its jobs
// must reproduce.
type uploadText struct {
	cat    *catalog.Catalog
	w      *workload.Workload
	body   []byte                      // the encoded POST /v1/workloads request
	spaces [][]*physical.Configuration // per job seed, as the daemon draws them
	want   []*core.Selection           // per job seed, from core.Select directly
}

// prepare generates every client's upload texts and job spaces, each from
// a collected heap, and returns them with the median set-up time of one
// text.
func (s serveWorkload) prepare(seed uint64) ([][]*uploadText, setupTimes, error) {
	var times stageTimes
	texts := make([][]*uploadText, len(s.dbs))
	for c, db := range s.dbs {
		for u := 0; u < s.texts; u++ {
			runtime.GC()
			start := obs.NewStopwatch()
			cat := newCatalog(db)
			t := obs.NewStopwatch()
			w, err := generate(cat, db, s.uploadN, seed*1000+uint64(10*c+u))
			if err != nil {
				return nil, setupTimes{}, fmt.Errorf("%s: generate upload: %w", s.name, err)
			}
			body, err := json.Marshal(serve.WorkloadRequest{DB: db, SQL: queriesOf(w)})
			if err != nil {
				return nil, setupTimes{}, fmt.Errorf("%s: encode upload: %w", s.name, err)
			}
			gen := t.Elapsed().Seconds()
			t = obs.NewStopwatch()
			cands := candidates(cat, db, w)
			enum := t.Elapsed().Seconds()
			t = obs.NewStopwatch()
			ut := &uploadText{cat: cat, w: w, body: body}
			for js := 1; js <= s.jobSeeds; js++ {
				// The daemon draws a job's space from Seed+1.
				ut.spaces = append(ut.spaces, physical.GenerateSpace(cat, cands, s.k, stats.NewRNG(uint64(js)+1), spaceOptions))
			}
			times.add(start.Elapsed().Seconds(), gen, enum, t.Elapsed().Seconds())
			texts[c] = append(texts[c], ut)
		}
	}
	return texts, times.medians(), nil
}

// expect computes every job's Selection through core.Select directly, with
// the options the daemon derives from the same request.
func (s serveWorkload) expect(texts [][]*uploadText) error {
	for _, client := range texts {
		for _, ut := range client {
			for js := 1; js <= s.jobSeeds; js++ {
				o, err := serve.JobOptions(serve.JobRequest{K: s.k, Seed: uint64(js)}, serve.TenantLimits{})
				if err != nil {
					return fmt.Errorf("%s: job options: %w", s.name, err)
				}
				sel, err := core.Select(optimizer.New(ut.cat), ut.w, ut.spaces[js-1], o)
				if err != nil {
					return fmt.Errorf("%s: expected selection: %w", s.name, err)
				}
				ut.want = append(ut.want, sel)
			}
		}
	}
	return nil
}

// httpClient calls the daemon's handler in process: every request goes
// through the real mux, routing and JSON codecs, without a TCP port.
type httpClient struct {
	h      http.Handler
	tenant string
}

func (c httpClient) do(method, path string, body []byte, out any) (int, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Tenant", c.tenant)
	rr := httptest.NewRecorder()
	c.h.ServeHTTP(rr, req)
	if out != nil && rr.Code < 300 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			return rr.Code, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return rr.Code, nil
}

// clientRun is what one client observed.
type clientRun struct {
	uploadMS, jobMS []float64
	// roundS and roundJobs are each round's wall time and jobs done.
	roundS, roundJobs []float64
	calls             []float64 // per job
	attempted, failed int
	fp                fingerprint
	// Traced runs only: per-job phases from the flight recorder.
	execMS, queueMS []float64
	reports         layers
}

func (r *clientRun) failf(format string, args ...any) {
	r.failed++
	fmt.Printf("serve-mixed: "+format+"\n", args...)
}

// client runs s.rounds rounds of one upload plus one job per job seed and
// adds what it observed to out.
func (s serveWorkload) client(c httpClient, texts []*uploadText, traced bool, out *clientRun) {
	for r := 0; r < s.rounds; r++ {
		ut := texts[r%len(texts)]
		round := obs.NewStopwatch()
		jobsBefore := len(out.jobMS)
		out.attempted++
		var wresp serve.WorkloadResponse
		t := obs.NewStopwatch()
		code, err := c.do("POST", "/v1/workloads", ut.body, &wresp)
		out.uploadMS = append(out.uploadMS, millis(t.Elapsed()))
		if err != nil || code != http.StatusCreated || wresp.Statements != s.uploadN {
			out.failf("%s: upload: status %d, %d statements, err %v", c.tenant, code, wresp.Statements, err)
			continue
		}
		for js := 1; js <= s.jobSeeds; js++ {
			out.attempted++
			s.job(c, wresp.ID, ut, js, traced, out)
		}
		out.roundS = append(out.roundS, round.Elapsed().Seconds())
		out.roundJobs = append(out.roundJobs, float64(len(out.jobMS)-jobsBefore))
	}
}

// job submits one job, follows its event stream until the job ends, reads
// the result and checks it. The stream blocks until the job's flight
// recorder finishes, so the client never busy-polls the runners' CPUs.
func (s serveWorkload) job(c httpClient, wid string, ut *uploadText, js int, traced bool, out *clientRun) {
	body, err := json.Marshal(serve.JobRequest{Workload: wid, K: s.k, Seed: uint64(js)})
	if err != nil {
		out.failf("%s: encode job: %v", c.tenant, err)
		return
	}
	t := obs.NewStopwatch()
	var jr serve.JobResponse
	if code, err := c.do("POST", "/v1/jobs", body, &jr); err != nil || code != http.StatusAccepted {
		out.failf("%s: submit: status %d, err %v", c.tenant, code, err)
		return
	}
	if code, err := c.do("GET", "/v1/jobs/"+jr.ID+"/events", nil, nil); err != nil || code != http.StatusOK {
		out.failf("%s: events %s: status %d, err %v", c.tenant, jr.ID, code, err)
		return
	}
	// The stream ends with the selection's span, a moment before the runner
	// records the job's status, so read the job until it is terminal.
	for {
		if code, err := c.do("GET", "/v1/jobs/"+jr.ID, nil, &jr); err != nil || code != http.StatusOK {
			out.failf("%s: get %s: status %d, err %v", c.tenant, jr.ID, code, err)
			return
		}
		if jr.Status == serve.StatusDone || jr.Status == serve.StatusFailed || jr.Status == serve.StatusCancelled {
			break
		}
		time.Sleep(finishPoll)
	}
	lat := millis(t.Elapsed())
	if jr.Status != serve.StatusDone || jr.Result == nil {
		out.failf("%s: job %s ended %s: %s", c.tenant, jr.ID, jr.Status, jr.Error)
		return
	}
	got, want := jr.Result, ut.want[js-1]
	if got.BestIndex != want.BestIndex || got.OptimizerCalls != want.OptimizerCalls ||
		got.SampledQueries != want.SampledQueries || got.Strata != want.Strata ||
		got.PrCS != want.PrCS || got.Eliminated != eliminated(want) {
		out.failf("%s: job %s (seed %d) gave best=%d calls=%d sampled=%d strata=%d prcs=%v eliminated=%d, core.Select gives best=%d calls=%d sampled=%d strata=%d prcs=%v eliminated=%d",
			c.tenant, jr.ID, js, got.BestIndex, got.OptimizerCalls, got.SampledQueries, got.Strata, got.PrCS, got.Eliminated,
			want.BestIndex, want.OptimizerCalls, want.SampledQueries, want.Strata, want.PrCS, eliminated(want))
		return
	}
	out.jobMS = append(out.jobMS, lat)
	out.calls = append(out.calls, float64(got.OptimizerCalls))
	// Only the daemon's answer enters the fingerprint; it carries no split
	// count, so the fingerprint has none.
	out.fp.add(got.BestIndex, got.OptimizerCalls, got.SampledQueries, got.Strata, got.Eliminated)
	if !traced {
		return
	}
	var rep recorder.RunReport
	if code, err := c.do("GET", "/runs/"+jr.ID+"/report", nil, &rep); err != nil || code != http.StatusOK {
		out.failf("%s: report %s: status %d, err %v", c.tenant, jr.ID, code, err)
		return
	}
	exec := phaseS(&rep, "select") * 1000
	out.execMS = append(out.execMS, exec)
	out.queueMS = append(out.queueMS, lat-exec)
	out.reports.selectWallS += exec / 1000
	out.reports.addReport(&rep)
}

// daemonRun is what the clients observed over one or more daemon
// lifetimes.
type daemonRun struct {
	clients []*clientRun
	wallS   float64
}

// rate is the jobs' throughput: per client, the median over rateChunks
// consecutive pieces of its rounds of jobs per second of round time
// (uploads included), summed over the clients.
func (d daemonRun) rate() float64 {
	var r float64
	for _, c := range d.clients {
		r += chunkRate(c.roundJobs, c.roundS)
	}
	return r
}

func (d daemonRun) collect(f func(*clientRun) []float64) []float64 {
	var out []float64
	for _, c := range d.clients {
		out = append(out, f(c)...)
	}
	return out
}

// drive runs lifetimes daemon lifetimes one after another: each starts a
// daemon, runs every client for s.rounds rounds concurrently and closes
// the daemon. With l non-nil a timing oracle wraps every job's oracle and
// the registry, flight recorders and live heap are read into l.
func (s serveWorkload) drive(texts [][]*uploadText, lifetimes int, l *layers) (daemonRun, error) {
	run := daemonRun{clients: make([]*clientRun, len(s.dbs))}
	for ci := range run.clients {
		run.clients[ci] = &clientRun{fp: fingerprint{splits: -1}}
	}
	reg := obs.NewRegistry()
	var growthMB []float64
	for life := 0; life < lifetimes; life++ {
		cfg := serve.Config{Runners: runners(), Registry: reg}
		var heapBefore float64
		if l != nil {
			cfg.WrapOracle = func(_, _ string, in sampling.Oracle) sampling.Oracle { return wrapTiming(in, &l.oracle) }
			heapBefore = liveHeapMB()
		}
		srv := serve.New(cfg)
		start := obs.NewStopwatch()
		var wg sync.WaitGroup
		for ci := range s.dbs {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := httpClient{h: srv.Handler(), tenant: fmt.Sprintf("c%d-%s", ci, s.dbs[ci])}
				s.client(c, texts[ci], l != nil, run.clients[ci])
			}(ci)
		}
		wg.Wait()
		run.wallS += start.Elapsed().Seconds()
		if l != nil {
			// Every uploaded workload and finished job is still retained here.
			growthMB = append(growthMB, liveHeapMB()-heapBefore)
		}
		if err := srv.Close(); err != nil {
			return run, fmt.Errorf("%s: close daemon: %w", s.name, err)
		}
	}

	if l != nil {
		l.serveHeapGrowthMB = median(growthMB)
		l.snap = reg.Snapshot()
		l.serveRejects = l.snap.Counters["serve_admission_rejects_total"]
		for _, c := range run.clients {
			l.calls += int64(sum(c.calls))
			l.selectWallS += c.reports.selectWallS
			l.pilotS += c.reports.pilotS
			l.roundMS = append(l.roundMS, c.reports.roundMS...)
		}
		l.serveExecMS = run.collect(func(c *clientRun) []float64 { return c.execMS })
		l.serveQueueMS = run.collect(func(c *clientRun) []float64 { return c.queueMS })
	}
	return run, nil
}

func (s serveWorkload) run(p params) (*result, error) {
	texts, st, err := s.prepare(p.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: seed %d, %d clients, %d statements per upload, setup %.3fs\n",
		s.name, p.seed, len(s.dbs), s.uploadN, st.total)
	// Expected results, outside every timed region and outside setup_s.
	if err := s.expect(texts); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	lifetimes := p.work(s.perSecond)
	if p.trace {
		lifetimes = (lifetimes + 1) / 2
	}

	l := &layers{}
	var base daemonRun
	if !p.trace {
		before := readAllocs()
		peak := startHeapPeak()
		base, err = s.drive(texts, lifetimes, nil)
		peakMB := peak.Stop()
		a := readAllocs().since(before)
		if err != nil {
			return nil, err
		}
		jobs := float64(len(base.collect(func(c *clientRun) []float64 { return c.jobMS })))
		res.set("setup_s", st.total, "s")
		res.set("selects_per_s", base.rate(), "1/s")
		res.set("select_ms_p50", median(base.collect(func(c *clientRun) []float64 { return c.jobMS })), "ms")
		res.set("calls_per_select", median(base.collect(func(c *clientRun) []float64 { return c.calls })), "count")
		res.set("allocs_per_select", ratio(float64(a.objects), jobs), "count")
		res.set("alloc_mb_per_select", ratio(float64(a.bytes)/mb, jobs), "MB")
		res.set("peak_heap_mb", peakMB, "MB")
	} else {
		if base, err = s.drive(texts, lifetimes, nil); err != nil {
			return nil, err
		}
		traced, err := s.drive(texts, lifetimes, l)
		if err != nil {
			return nil, err
		}
		for ci, c := range traced.clients {
			if c.fp != base.clients[ci].fp {
				res.fail("%s: client %d fingerprint differs between the untraced and the traced run", s.name, ci)
			}
		}
		l.overheadPct = (traced.wallS/base.wallS - 1) * 100
		l.genS, l.enumerateS, l.spaceS = st.gen, st.enumerate, st.space
		var scs []*scenario
		for _, client := range texts {
			for _, ut := range client {
				scs = append(scs, &scenario{cat: ut.cat, w: ut.w})
			}
		}
		if l.parseUSPerStmt, err = parseUSPerStmt(scs); err != nil {
			return nil, err
		}
		l.serveJobMSP90 = quantile(base.collect(func(c *clientRun) []float64 { return c.jobMS }), 0.9)
		l.serveUploadMSP50 = median(base.collect(func(c *clientRun) []float64 { return c.uploadMS }))
		l.serveUploadShare = ratio(sum(base.collect(func(c *clientRun) []float64 { return c.uploadMS }))/1000,
			sum(base.collect(func(c *clientRun) []float64 { return c.roundS })))
	}

	var attempted, failed int
	for ci, c := range base.clients {
		attempted += c.attempted
		failed += c.failed
		fmt.Printf("fingerprint %s seed=%d trace=%t client=%d %s\n", s.name, p.seed, p.trace, ci, c.fp)
	}
	jobs := len(base.collect(func(c *clientRun) []float64 { return c.jobMS }))
	fmt.Printf("%s: %d uploads and %d jobs done in %.3fs, %d of %d operations failed\n",
		s.name, len(base.collect(func(c *clientRun) []float64 { return c.uploadMS })), jobs, base.wallS, failed, attempted)
	l.errorRate = ratio(float64(failed), float64(attempted))
	if failed > 0 {
		res.fail("%s: %d of %d operations failed", s.name, failed, attempted)
	}
	if p.trace {
		l.emit(res)
	}
	res.Attempted, res.Failed = attempted, failed
	return res, nil
}

func queriesOf(w *workload.Workload) []string {
	sqls := make([]string, w.Size())
	for i, q := range w.Queries {
		sqls[i] = q.SQL
	}
	return sqls
}
