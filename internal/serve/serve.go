// Package serve is the advisor-as-a-service layer: a long-running,
// multi-tenant HTTP/JSON daemon (cmd/physdesd) that turns the one-shot
// comparison primitive into a service. Tenants upload workloads
// (POST /v1/workloads) and submit comparison/tuning jobs (POST /v1/jobs)
// that run concurrently on the shared runner pool; every job evaluates
// what-if probes on its runner through the atom store, streams its per-round Pr(CS) trajectory over SSE by attaching
// the flight recorder as a per-job tracer sink, and lands on the
// same /metrics + /healthz endpoints the live introspection server
// (internal/obs/live) already provides — the daemon mounts that server's
// mux as its fallback handler. A job's /runs/{id}/report and
// /runs/{id}/events are the daemon's own routes and answer only the
// job's tenant; the live /runs listing holds no jobs.
//
// Tenancy is first-class:
//
//   - Seed namespaces: all randomness of a job derives from the seed in
//     the request, interpreted exactly as `physdes select -seed` does
//     (space from Seed+1, selection from Seed+2) — a job's Selection is
//     bit-identical to the equivalent CLI run, and no tenant's jobs can
//     perturb another's results (TestDaemonDeterminism,
//     TestServeTenantIsolation).
//   - Budgets: each tenant has a cumulative what-if call budget
//     (resilience.Budget) spent by its finished jobs, and per-job PR-5
//     error budgets with a degradation policy — a tenant whose oracle
//     degrades or whose budget runs dry fails alone.
//   - Admission control: the job queue is bounded; a saturated queue or
//     an exhausted call budget answers 429 with a Retry-After hint
//     instead of queueing unboundedly.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/obs/live"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// DefaultTenant is the tenant name assumed when a request carries no
// X-Tenant header.
const DefaultTenant = "default"

// TenantLimits bounds one tenant's resource usage.
type TenantLimits struct {
	// CallBudget is the tenant's cumulative what-if optimizer-call
	// allowance across all of its jobs; once spent, new jobs are rejected
	// with 429. 0 means unlimited.
	CallBudget int64
	// ErrorBudget caps the degraded probes of each job (PR-5 semantics:
	// exceeding it aborts that job with ErrBudgetExhausted). 0 = unlimited.
	ErrorBudget int
	// MaxRetries re-attempts failed what-if probes per job.
	MaxRetries int
	// Degrade names the per-job degradation policy for probes that stay
	// failed after retries: "fail" (default), "skip", or "conservative".
	Degrade string
}

// Config configures the daemon.
type Config struct {
	// Runners is the number of concurrent job runners (default
	// par.Default()); it bounds the daemon's what-if concurrency, since
	// each job probes on its runner's goroutine.
	Runners int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// submissions with 429 + Retry-After.
	QueueDepth int
	// RetryAfterSeconds is the Retry-After hint on 429 responses
	// (default 1).
	RetryAfterSeconds int
	// Limits are the default tenant limits; TenantLimits overrides them
	// per tenant name.
	Limits       TenantLimits
	TenantLimits map[string]TenantLimits
	// MaxUploadStatements caps explicit SQL uploads (default 100000).
	MaxUploadStatements int
	// Registry collects the daemon's metrics; a fresh registry is created
	// when nil.
	Registry *obs.Registry
	// WrapOracle, when non-nil, decorates each job's what-if oracle — the
	// seam the fault-injection tests use to exercise per-tenant
	// degradation end to end.
	WrapOracle func(tenant, jobID string, o sampling.Oracle) sampling.Oracle
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = defaultRunners()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.MaxUploadStatements <= 0 {
		c.MaxUploadStatements = 100_000
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// tenant is one isolated namespace: its own workload ids, job listing and
// call budget.
type tenant struct {
	name      string
	limits    TenantLimits
	budget    *resilience.Budget
	workloads map[string]*workloadEntry
	wOrder    []string
	jobOrder  []string
	wSeq      int
}

// workloadEntry is one uploaded workload, shared read-only by every job
// that references it. The candidate structures are enumerated once on
// first use (they are a pure function of the workload) and shared across
// jobs.
type workloadEntry struct {
	id        string
	db        string
	size      int
	templates int
	cat       *catalog.Catalog
	w         *workload.Workload

	once  sync.Once
	cands []physical.Structure
}

func (e *workloadEntry) candidates() []physical.Structure {
	e.once.Do(func() {
		e.cands = physical.EnumerateCandidates(e.cat, e.w.Analyses(),
			physical.CandidateOptions{Covering: true, Views: e.db == "tpcd"})
	})
	return e.cands
}

// Job statuses.
const (
	StatusQueued     = "queued"
	StatusRunning    = "running"
	StatusCancelling = "cancelling"
	StatusCancelled  = "cancelled"
	StatusDone       = "done"
	StatusFailed     = "failed"
)

// job is one submitted selection job.
type job struct {
	id     string
	tenant *tenant
	wl     *workloadEntry
	req    JobRequest
	opts   core.Options
	rec    *recorder.Recorder

	mu        sync.Mutex
	status    string
	cancel    context.CancelFunc
	cancelled bool // set by DELETE while queued
	sel       *core.Selection
	err       error
}

// Server is the daemon. Create it with New, mount Handler under a test
// server or call Start(addr), and Close it to shut down: running jobs are
// cancelled, queued jobs are marked cancelled, and every runner goroutine
// exits before Close returns.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	live *live.Server
	mux  *http.ServeMux

	ctx    context.Context
	stop   context.CancelFunc
	queue  chan *job
	wg     sync.WaitGroup
	closed chan struct{}

	mu        sync.Mutex
	tenants   map[string]*tenant
	tOrder    []string
	jobs      map[string]*job
	jobSeq    int
	cats      map[string]*catalog.Catalog
	accepting bool

	jobsTotal     *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	rejects       *obs.Counter
	workloadsCnt  *obs.Counter
	runningGauge  *obs.Gauge
	queuedGauge   *obs.Gauge
	tenantsGauge  *obs.Gauge
	jobSeconds    *obs.Histogram

	srv *http.Server
	ln  net.Listener
}

// New returns a daemon with started runner goroutines; callers own its
// lifecycle and must Close it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	//physdes:detachedctx the daemon root context outlives any request; Close cancels it
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		live:      live.New(cfg.Registry),
		ctx:       ctx,
		stop:      stop,
		queue:     make(chan *job, cfg.QueueDepth),
		closed:    make(chan struct{}),
		tenants:   map[string]*tenant{},
		jobs:      map[string]*job{},
		cats:      map[string]*catalog.Catalog{},
		accepting: true,

		jobsTotal:     cfg.Registry.Counter("serve_jobs_total"),
		jobsDone:      cfg.Registry.Counter("serve_jobs_done_total"),
		jobsFailed:    cfg.Registry.Counter("serve_jobs_failed_total"),
		jobsCancelled: cfg.Registry.Counter("serve_jobs_cancelled_total"),
		rejects:       cfg.Registry.Counter("serve_admission_rejects_total"),
		workloadsCnt:  cfg.Registry.Counter("serve_workloads_total"),
		runningGauge:  cfg.Registry.Gauge("serve_jobs_running"),
		queuedGauge:   cfg.Registry.Gauge("serve_jobs_queued"),
		tenantsGauge:  cfg.Registry.Gauge("serve_tenants"),
		jobSeconds:    cfg.Registry.Histogram("serve_job_seconds"),
	}
	s.reg.Gauge("physdes_up").Set(1)
	s.mux = s.routes()
	s.wg.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go s.runner()
	}
	return s
}

// Registry returns the daemon's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP handler (the /v1 API plus the live
// introspection routes), for mounting under httptest or an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in a background goroutine, returning
// the bound address (":0" callers learn the chosen port).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err //physdes:errok the daemon is exiting; nothing useful to report to
		}
	}()
	return ln.Addr().String(), nil
}

// Close shuts the daemon down: submissions are refused, running jobs are
// cancelled, queued jobs are marked cancelled, SSE streams terminate, and
// every runner goroutine has exited when Close returns. Close is
// idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	wasAccepting := s.accepting
	s.accepting = false
	s.mu.Unlock()
	if !wasAccepting {
		<-s.closed
		return nil
	}
	s.stop()
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.wg.Wait()
	// Runners are gone; whatever is still queued never runs.
	for {
		select {
		case j := <-s.queue:
			s.finishCancelled(j, context.Canceled)
		default:
			s.reg.Gauge("physdes_up").Set(0)
			close(s.closed)
			return err
		}
	}
}

func (s *Server) finishCancelled(j *job, cause error) {
	j.mu.Lock()
	already := j.cancelled
	j.cancelled = true
	j.status = StatusCancelled
	j.err = cause
	j.mu.Unlock()
	if !already {
		j.rec.Finish(cause)
		s.queuedGauge.Add(-1)
		s.jobsCancelled.Inc()
	}
}

// catalogFor returns the shared catalog for db, building it on first use.
// Catalogs are immutable after construction and safe to share across
// tenants and jobs.
func (s *Server) catalogFor(db string) (*catalog.Catalog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cat, ok := s.cats[db]; ok {
		return cat, nil
	}
	var cat *catalog.Catalog
	switch db {
	case "tpcd":
		cat = catalog.TPCD(1)
	case "crm":
		cat = catalog.CRM()
	default:
		return nil, fmt.Errorf("unknown database %q (want tpcd or crm)", db)
	}
	s.cats[db] = cat
	return cat, nil
}

// tenantFor returns (creating on first use) the tenant named by the
// request's X-Tenant header.
func (s *Server) tenantFor(r *http.Request) (*tenant, error) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = DefaultTenant
	}
	if !validTenantName(name) {
		return nil, fmt.Errorf("invalid tenant name %q (want [A-Za-z0-9._-]{1,64})", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	lim := s.cfg.Limits
	if over, ok := s.cfg.TenantLimits[name]; ok {
		lim = over
	}
	t := &tenant{
		name:      name,
		limits:    lim,
		budget:    resilience.NewBudget(lim.CallBudget),
		workloads: map[string]*workloadEntry{},
	}
	s.tenants[name] = t
	s.tOrder = append(s.tOrder, name)
	s.tenantsGauge.Set(float64(len(s.tenants)))
	return t, nil
}

func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// runner pulls jobs off the bounded queue until shutdown.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job: it materializes the configuration space
// deterministically from the request seed, runs the comparison primitive
// with the job's flight recorder attached as a tracer sink, and charges
// the tenant's call budget with the optimizer calls actually spent.
func (s *Server) runJob(j *job) {
	ctx, cancel := s.startJob(j)
	if ctx == nil {
		return // cancelled while queued
	}
	defer cancel()
	s.queuedGauge.Add(-1)
	s.runningGauge.Add(1)
	defer s.runningGauge.Add(-1)

	opt := optimizer.New(j.wl.cat)
	sel, err := s.execute(ctx, j, opt)

	s.mu.Lock()
	j.tenant.budget.Charge(opt.Calls())
	s.mu.Unlock()

	j.mu.Lock()
	j.sel, j.err = sel, err
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCancelled
	default:
		j.status = StatusFailed
	}
	st := j.status
	j.mu.Unlock()
	j.rec.Finish(err)
	switch st {
	case StatusDone:
		s.jobsDone.Inc()
	case StatusCancelled:
		s.jobsCancelled.Inc()
	default:
		s.jobsFailed.Inc()
	}
}

// startJob transitions a queued job to running and hands the runner its
// cancellable context, or returns a nil context when the job was
// cancelled while it sat in the queue.
func (s *Server) startJob(j *job) (context.Context, context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	j.status = StatusRunning
	return ctx, cancel
}

// execute runs the selection itself. The configuration space and options
// mirror `physdes select` exactly (space from Seed+1, selection from
// Seed+2), so for a healthy oracle the returned Selection is
// bit-identical to the CLI run with the same request parameters.
func (s *Server) execute(ctx context.Context, j *job, opt *optimizer.Optimizer) (*core.Selection, error) {
	sw := obs.NewStopwatch()
	defer func() { s.jobSeconds.Observe(sw.Elapsed().Seconds()) }()

	configs := physical.GenerateSpace(j.wl.cat, j.wl.candidates(), j.req.k(),
		stats.NewRNG(j.req.Seed+1), physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
	if len(configs) < 2 {
		return nil, fmt.Errorf("only %d configurations generated for k=%d", len(configs), j.req.k())
	}
	o := j.opts
	o.Tracer = obs.NewTracerSinks(j.rec)
	o.Metrics = s.reg
	if s.cfg.WrapOracle != nil {
		o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
			return s.cfg.WrapOracle(j.tenant.name, j.id, inner)
		}
	}
	return core.SelectCtx(ctx, opt, j.wl.w, configs, o)
}

func defaultRunners() int { return par.Default() }
