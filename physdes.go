// Package physdes is a library for scalable exploration of physical
// database design, reproducing König & Nabar, "Scalable Exploration of
// Physical Database Design" (ICDE 2006).
//
// The central primitive is Select: given a workload, a set of candidate
// physical design configurations (indexes and materialized views), a target
// probability α and a sensitivity δ, it returns the configuration with the
// lowest optimizer-estimated workload cost with probability at least α —
// while sampling only a fraction of the workload instead of issuing a
// what-if optimizer call for every query/configuration combination.
//
// The package re-exports the user-facing types of the internal packages:
//
//   - catalogs and schema statistics (TPCDCatalog, CRMCatalog),
//   - workload generation, parsing and template extraction (GenTPCD,
//     GenCRM, ParseWorkload),
//   - physical design structures and configurations (NewIndex, NewView,
//     NewConfiguration, EnumerateCandidates, GenerateConfigurations),
//   - the simulated what-if optimizer (NewOptimizer),
//   - the comparison primitive (Select, SelectCtx, DefaultOptions),
//   - run observability through one path: a tracer whose flight recorder
//     folds the events into a RunReport, the Pr(CS) trajectory included
//     (NewTracerSinks, NewFlightRecorder, WriteRunReport),
//   - conservative validation per Section 6 (Options.Conservative), and
//   - the baselines and the greedy tuner used in the paper's evaluation.
//
// A minimal end-to-end use:
//
//	cat := physdes.TPCDCatalog(1)
//	wl, _ := physdes.GenTPCD(cat, 13000, 42)
//	opt := physdes.NewOptimizer(cat)
//	cands := physdes.EnumerateCandidates(cat, wl, physdes.CandidateOptions{Covering: true, Views: true})
//	configs := physdes.GenerateConfigurations(cat, cands, 50, 7, physdes.SpaceOptions{})
//	sel, _ := physdes.Select(opt, wl, configs, physdes.DefaultOptions(1))
//	fmt.Println(sel.Best.Name(), sel.PrCS, sel.Savings())
package physdes

import (
	"context"
	"errors"
	"io"
	"os"

	"physdes/internal/catalog"
	"physdes/internal/compress"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/obs/live"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/tuner"
	"physdes/internal/workload"
)

// Re-exported types. The aliases keep the internal packages' documentation
// and method sets.
type (
	// Catalog holds schema metadata and column statistics.
	Catalog = catalog.Catalog
	// Optimizer is the what-if cost oracle.
	Optimizer = optimizer.Optimizer
	// Workload is an ordered set of statements with template bookkeeping.
	Workload = workload.Workload
	// Query is one workload statement.
	Query = workload.Query
	// CostMatrix is a precomputed (query × configuration) cost table.
	CostMatrix = workload.CostMatrix
	// Configuration is a set of physical design structures.
	Configuration = physical.Configuration
	// Structure is an index or materialized view.
	Structure = physical.Structure
	// Index is a secondary B-tree index.
	Index = physical.Index
	// View is a materialized join view.
	View = physical.View
	// CandidateOptions controls candidate enumeration.
	CandidateOptions = physical.CandidateOptions
	// SpaceOptions controls configuration-space generation.
	SpaceOptions = physical.SpaceOptions
	// Options configures the comparison primitive.
	Options = core.Options
	// Selection is the primitive's decision report.
	Selection = core.Selection
	// Scheme selects Independent or Delta sampling.
	Scheme = sampling.Scheme
	// StratMode selects the stratification policy.
	StratMode = sampling.StratMode
	// Compressed is a weighted sub-workload from a compression baseline.
	Compressed = compress.Compressed
	// TunerOptions bounds the greedy tuner.
	TunerOptions = tuner.Options
	// TunerResult reports a tuning run.
	TunerResult = tuner.Result
	// Plan is an explained statement plan.
	Plan = optimizer.Plan
	// PlanNode is one operator of an explained plan.
	PlanNode = optimizer.PlanNode
	// SampledTunerOptions configures the sampling-based greedy tuner.
	SampledTunerOptions = tuner.SampledOptions
	// SampledTunerResult reports a sampling-based tuning run.
	SampledTunerResult = tuner.SampledResult
	// AtomicOptimizer shares what-if work across configurations through
	// atomic sub-configurations (see NewAtomicOptimizer).
	AtomicOptimizer = optimizer.AtomicCache
	// Tracer fans structured selection events out to its sinks
	// (Options.Tracer); the canonical sink writes JSONL.
	Tracer = obs.Tracer
	// TraceSink consumes a tracer's event stream (obs.Sink).
	TraceSink = obs.Sink
	// TraceEvent is one structured trace record as delivered to sinks.
	TraceEvent = obs.Event
	// FlightRecorder materializes a live RunReport from the trace stream
	// (attach it to a tracer; see NewFlightRecorder).
	FlightRecorder = recorder.Recorder
	// RunReport is the flight recorder's structured view of one run:
	// Pr(CS) trajectory, strata and allocations, oracle accounting,
	// per-phase wall-clock.
	RunReport = recorder.RunReport
	// LiveServer is the HTTP introspection server (-listen): /healthz,
	// /metrics, /metrics.json, /debug/pprof/*, /runs and per-run
	// report + SSE event endpoints.
	LiveServer = live.Server
	// MetricsRegistry collects counters, gauges and histograms
	// (Options.Metrics); it exposes a Prometheus text exposition
	// (WriteProm) and a JSON snapshot (Snapshot / WriteJSON).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// DegradePolicy selects how the resilience layer handles what-if
	// probes that stay failed after retries (Options.Degrade).
	DegradePolicy = resilience.Policy
	// WarmState is a serializable snapshot of a selection's final
	// stratification and per-template cost moments (Selection.State when
	// Options.CaptureState is set). Feed it back through
	// Options.WarmState to seed the next selection: unchanged templates
	// keep their strata and priors, new or drifted ones are re-piloted.
	WarmState = sampling.StratState
	// WarmInfo reports what a warm-started selection actually reused
	// (Selection.Warm; zero value on cold runs).
	WarmInfo = sampling.WarmInfo
	// DriftOptions configures GenTPCDDrift's windowed workload: window
	// count and size, per-window template churn, and Zipf-θ drift.
	DriftOptions = workload.DriftOptions
	// DriftWindow is one window of a drifting workload.
	DriftWindow = workload.DriftWindow
)

// Degradation policies for fallible oracles (Options.Degrade).
const (
	// DegradeFail aborts the selection on an unrecoverable probe.
	DegradeFail = resilience.Fail
	// DegradeSkip drops the failed query and reweights its stratum.
	DegradeSkip = resilience.Skip
	// DegradeConservative substitutes the Section 6 upper interval
	// endpoint (requires Options.Conservative).
	DegradeConservative = resilience.Conservative
)

// Sampling schemes and stratification modes.
const (
	// IndependentSampling draws a separate sample per configuration
	// (Section 4.1 of the paper).
	IndependentSampling = sampling.Independent
	// DeltaSampling draws one shared sample and estimates cost differences
	// (Section 4.2).
	DeltaSampling = sampling.Delta
	// NoStratification keeps a single stratum.
	NoStratification = sampling.NoStrat
	// ProgressiveStratification refines strata greedily (Algorithm 2).
	ProgressiveStratification = sampling.Progressive
	// FineStratification starts with one stratum per template.
	FineStratification = sampling.Fine
)

// TPCDCatalog builds the synthetic TPC-D schema with Zipf-skewed statistics
// (θ=1); scale 1 corresponds to the paper's ~1GB database.
func TPCDCatalog(scale float64) *Catalog { return catalog.TPCD(scale) }

// CRMCatalog builds the 500+-table CRM schema standing in for the paper's
// real-life database.
func CRMCatalog() *Catalog { return catalog.CRM() }

// NewOptimizer returns a what-if optimizer over the catalog.
func NewOptimizer(cat *Catalog) *Optimizer { return optimizer.New(cat) }

// NewAtomicOptimizer wraps an optimizer with atomic-configuration what-if
// sharing: each probe is decomposed into the atomic sub-configurations the
// plan can read, each (statement, atom) pair is costed once, and
// full-configuration costs are reassembled exactly — bit-identical to
// direct costing with far fewer optimizer calls across overlapping
// configurations.
func NewAtomicOptimizer(opt *Optimizer) *AtomicOptimizer {
	return optimizer.NewAtomicCache(opt)
}

// NewTracer returns a tracer writing structured JSONL events to w; set it
// on Options.Tracer to record every sampling round, split, elimination
// and allocation decision of a selection. Call Flush (or Close) after the
// run to drain buffered events.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewJSONLSink returns a trace sink writing one JSON object per event to
// w — the sink NewTracer installs.
func NewJSONLSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewTracerSinks returns a tracer fanning events out to the given sinks
// (a JSONL writer, a flight recorder, ...); every sink observes the same
// strictly-ordered stream. Tracer.Attach adds sinks later.
func NewTracerSinks(sinks ...TraceSink) *Tracer { return obs.NewTracerSinks(sinks...) }

// NewFlightRecorder returns a flight recorder for the run id. Attach it
// to the run's tracer (Tracer.Attach or NewTracerSinks) and it folds the
// trace stream into a live RunReport; call Finish with the run's error
// when it completes, and Report for a snapshot at any point.
func NewFlightRecorder(id string) *FlightRecorder { return recorder.New(id) }

// NewLiveServer returns an HTTP introspection server over reg (which may
// be nil). Register flight recorders on it and call Start(addr); see the
// LiveServer docs for the endpoints.
func NewLiveServer(reg *MetricsRegistry) *LiveServer { return live.New(reg) }

// ParseTraceReport replays a JSONL trace (as written by -trace / the
// JSONL sink) into a RunReport — the substrate of `physdes report`.
func ParseTraceReport(r io.Reader) (*RunReport, error) { return recorder.FromJSONL(r) }

// WriteRunReport renders a RunReport as a deterministic human-readable
// convergence report.
func WriteRunReport(w io.Writer, rep *RunReport) error { return recorder.WriteText(w, rep) }

// NewMetricsRegistry returns an empty metrics registry; set it on
// Options.Metrics to collect the selection's counters (optimizer calls
// and latency, sampler rounds/samples/splits/eliminations, cache hits,
// σ²_max DP timings in conservative mode).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// StartCPUProfile begins a CPU profile written to path and returns the
// stop function finalizing it.
func StartCPUProfile(path string) (stop func() error, err error) {
	return obs.StartCPUProfile(path)
}

// GenTPCDDrift builds an ordered sequence of TPC-D workload windows
// whose template mix churns and whose Zipf skew drifts window to window —
// the warm-start engine's target regime (see DriftOptions).
func GenTPCDDrift(cat *Catalog, o DriftOptions) ([]DriftWindow, error) {
	return workload.GenTPCDDrift(cat, o)
}

// SaveWarmState writes a selection snapshot (Selection.State) to path in
// canonical JSON: byte-identical output for equal states, so re-saving a
// reloaded snapshot is a no-op.
func SaveWarmState(st *WarmState, path string) error {
	if st == nil {
		return errors.New("physdes: nil warm state (set Options.CaptureState)")
	}
	data, err := st.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadWarmState reads a snapshot written by SaveWarmState.
func LoadWarmState(path string) (*WarmState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sampling.DecodeStratState(data)
}

// GenTPCD generates an n-statement QGEN-style TPC-D workload.
func GenTPCD(cat *Catalog, n int, seed uint64) (*Workload, error) {
	return workload.GenTPCD(cat, n, seed)
}

// GenCRM generates an n-statement mixed-DML CRM trace (>120 templates).
func GenCRM(cat *Catalog, n int, seed uint64) (*Workload, error) {
	return workload.GenCRM(cat, n, seed)
}

// ParseWorkload parses raw SQL statements into a workload, extracting
// templates. Each statement's predicate selectivities are estimated once,
// against cat; an optimizer over another catalog estimates them afresh.
func ParseWorkload(cat *Catalog, sqls []string) (*Workload, error) {
	return workload.Parse(cat, sqls)
}

// SplitScript splits a SQL script into statements on semicolons,
// respecting string literals and skipping line comments.
func SplitScript(script string) []string { return sqlparse.SplitScript(script) }

// DiffConfigurations reports the structures to build and drop when moving
// from configuration a to configuration b.
func DiffConfigurations(a, b *Configuration) (build, drop []Structure) {
	return physical.Diff(a, b)
}

// SaveWorkload writes a workload table to disk; OpenWorkloadStore reopens
// it for permutation sampling without holding query text in memory.
func SaveWorkload(w *Workload, path string) error { return workload.Save(w, path) }

// OpenWorkloadStore opens an on-disk workload table.
func OpenWorkloadStore(path string) (*workload.Store, error) { return workload.OpenStore(path) }

// NewIndex builds an index structure on table with ordered key columns and
// optional include columns.
func NewIndex(table string, key []string, include ...string) *Index {
	return physical.NewIndex(table, key, include...)
}

// NewConfiguration builds a configuration from structures.
func NewConfiguration(name string, structures ...Structure) *Configuration {
	return physical.NewConfiguration(name, structures...)
}

// EnumerateCandidates derives candidate structures for the workload.
func EnumerateCandidates(cat *Catalog, w *Workload, opts CandidateOptions) []Structure {
	return physical.EnumerateCandidates(cat, w.Analyses(), opts)
}

// GenerateConfigurations draws k distinct candidate configurations — the
// stand-in for a tuning tool's enumeration.
func GenerateConfigurations(cat *Catalog, candidates []Structure, k int, seed uint64, opts SpaceOptions) []*Configuration {
	return physical.GenerateSpace(cat, candidates, k, stats.NewRNG(seed), opts)
}

// ComputeCostMatrix evaluates every query under every configuration — the
// exhaustive approach the primitive avoids; exposed for ground-truth
// computation and experimentation.
func ComputeCostMatrix(opt *Optimizer, w *Workload, configs []*Configuration) *CostMatrix {
	return workload.ComputeCostMatrix(opt, w, configs)
}

// DefaultOptions returns the paper's Section 7.2 protocol (Delta Sampling,
// progressive stratification, α=0.9, stability window 10, elimination at
// 0.995).
func DefaultOptions(seed uint64) Options { return core.DefaultOptions(seed) }

// Select runs the probabilistic comparison primitive: it returns the
// configuration with the lowest workload cost with probability ≥ α.
func Select(opt *Optimizer, w *Workload, configs []*Configuration, o Options) (*Selection, error) {
	return core.Select(opt, w, configs, o)
}

// SelectCtx is Select with cancellation and oracle resilience: ctx aborts
// the run between rounds and scheduled probes, and Options.MaxRetries /
// ErrorBudget / Degrade harden a fallible what-if oracle.
func SelectCtx(ctx context.Context, opt *Optimizer, w *Workload, configs []*Configuration, o Options) (*Selection, error) {
	return core.SelectCtx(ctx, opt, w, configs, o)
}

// CompressTopCost applies the DB2-advisor top-cost compression baseline
// ([20]): keep the most expensive queries until fraction x of total cost.
func CompressTopCost(w *Workload, costs []float64, x float64) *Compressed {
	return compress.TopCost(w, costs, x)
}

// CompressCluster applies the clustering compression baseline ([5]).
func CompressCluster(w *Workload, costs []float64, k int) *Compressed {
	return compress.Cluster(w, costs, k)
}

// TuneGreedy runs the greedy physical-design tuner over the workload with
// optional per-query weights.
func TuneGreedy(opt *Optimizer, cat *Catalog, w *Workload, weights []float64, candidates []Structure, o TunerOptions) *TunerResult {
	return tuner.Greedy(opt, cat, w, weights, candidates, o)
}

// EvaluateImprovement scores a configuration's relative cost reduction on a
// workload against the empty configuration.
func EvaluateImprovement(opt *Optimizer, w *Workload, cfg *Configuration) float64 {
	return tuner.EvaluateOn(opt, w, cfg)
}

// TuneGreedySampled tunes the workload with every greedy decision made by
// the comparison primitive instead of exhaustive evaluation — the paper's
// "core comparison primitive inside an automated physical design tool" use
// case.
func TuneGreedySampled(opt *Optimizer, w *Workload, candidates []Structure, o SampledTunerOptions) (*SampledTunerResult, error) {
	return tuner.GreedySampled(opt, w, candidates, o)
}

// Explain returns the plan the cost model chooses for one statement under
// a configuration; Plan.Total equals the statement's estimated cost.
func Explain(opt *Optimizer, q *Query, cfg *Configuration) *Plan {
	return opt.Explain(q.Analysis, cfg)
}
