package serve

import (
	"fmt"

	"physdes/internal/core"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
)

// WorkloadRequest is the body of POST /v1/workloads: either a generated
// benchmark workload (DB + N + Seed, mirroring `physdes gen`) or an
// explicit SQL upload (DB for the catalog + SQL statements).
type WorkloadRequest struct {
	// DB names the catalog/generator: "tpcd" or "crm".
	DB string `json:"db"`
	// N is the generated workload size (ignored when SQL is given).
	N int `json:"n,omitempty"`
	// Seed drives workload generation (ignored when SQL is given).
	Seed uint64 `json:"seed,omitempty"`
	// SQL, when non-empty, is an explicit list of statements to parse
	// against the DB catalog instead of generating a workload.
	SQL []string `json:"sql,omitempty"`
}

// WorkloadResponse describes an uploaded workload.
type WorkloadResponse struct {
	ID         string `json:"id"`
	DB         string `json:"db"`
	Statements int    `json:"statements"`
	Templates  int    `json:"templates"`
}

// JobRequest is the body of POST /v1/jobs. Fields mirror the `physdes
// select` flags; zero values take the same defaults the CLI uses, so a
// job's Selection is bit-identical to the CLI run with the same seed.
type JobRequest struct {
	// Workload is the id of a previously uploaded workload (required).
	Workload string `json:"workload"`
	// K is the number of candidate configurations (default 10).
	K int `json:"k,omitempty"`
	// Seed seeds the whole job: the configuration space draws from
	// Seed+1 and the selection options from Seed+2, exactly like
	// `physdes select -seed`.
	Seed uint64 `json:"seed"`
	// Alpha overrides the target Pr(CS) when > 0.
	Alpha float64 `json:"alpha,omitempty"`
	// Delta overrides the indifference threshold when > 0.
	Delta float64 `json:"delta,omitempty"`
	// Scheme is "delta" (default) or "independent".
	Scheme string `json:"scheme,omitempty"`
	// Strat is "progressive" (default), "none" or "fine".
	Strat string `json:"strat,omitempty"`
	// Parallelism is the per-job what-if worker count: 0 means 1, since
	// the daemon already runs Config.Runners jobs concurrently and their
	// product bounds its what-if concurrency. Values above 64 are
	// rejected.
	Parallelism int `json:"parallelism,omitempty"`
	// Conservative enables conservative-variance mode.
	Conservative bool `json:"conservative,omitempty"`
	// MaxCalls caps the job's optimizer calls when > 0.
	MaxCalls int `json:"max_calls,omitempty"`
	// AtomSharing disables the shared atom cache when explicitly false.
	AtomSharing *bool `json:"atom_sharing,omitempty"`
}

// maxJobParallelism caps JobRequest.Parallelism: the worker pool is
// bounded only by the batch size, so an uncapped value would let one
// request spawn a goroutine per probe.
const maxJobParallelism = 64

func (jr JobRequest) k() int {
	if jr.K <= 0 {
		return 10
	}
	return jr.K
}

// options maps the request plus the tenant's limits to core.Options,
// mirroring cmdSelect's flag handling. It is the single source of truth
// for HTTP-vs-CLI equivalence: the determinism tests build their direct
// core.Select options through this same method.
func (jr JobRequest) options(lim TenantLimits) (core.Options, error) {
	o := core.DefaultOptions(jr.Seed + 2)
	if jr.Alpha > 0 {
		o.Alpha = jr.Alpha
	}
	if jr.Delta > 0 {
		o.Delta = jr.Delta
	}
	switch jr.Scheme {
	case "", "delta":
		o.Scheme = sampling.Delta
	case "independent":
		o.Scheme = sampling.Independent
	default:
		return o, fmt.Errorf("unknown scheme %q", jr.Scheme)
	}
	switch jr.Strat {
	case "", "progressive":
		o.Strat = sampling.Progressive
	case "none":
		o.Strat = sampling.NoStrat
	case "fine":
		o.Strat = sampling.Fine
	default:
		return o, fmt.Errorf("unknown stratification %q", jr.Strat)
	}
	if jr.Parallelism > maxJobParallelism {
		return o, fmt.Errorf("parallelism %d exceeds the cap of %d", jr.Parallelism, maxJobParallelism)
	}
	o.Parallelism = max(jr.Parallelism, 1)
	o.Conservative = jr.Conservative
	if jr.MaxCalls > 0 {
		o.MaxCalls = int64(jr.MaxCalls)
	}
	if jr.AtomSharing != nil && !*jr.AtomSharing {
		o.AtomSharing = core.AtomSharingDisabled
	}
	o.MaxRetries = lim.MaxRetries
	o.ErrorBudget = lim.ErrorBudget
	switch lim.Degrade {
	case "", "fail":
		o.Degrade = resilience.Fail
	case "skip":
		o.Degrade = resilience.Skip
	case "conservative":
		o.Degrade = resilience.Conservative
		// PR-5: conservative degradation substitutes worst-case variance,
		// which is only sound in conservative mode; core rejects the
		// combination otherwise, so the tenant limit implies it.
		o.Conservative = true
	default:
		return o, fmt.Errorf("unknown degrade policy %q", lim.Degrade)
	}
	return o, nil
}

// JobOptions exposes the request→options mapping for tests and for the
// benchmark harness, which replay jobs through core.Select directly to
// pin HTTP-vs-library bit-identity.
func JobOptions(jr JobRequest, lim TenantLimits) (core.Options, error) {
	return jr.options(lim)
}

// JobResponse describes a job. Result is present only once Status is
// "done".
type JobResponse struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Workload string     `json:"workload"`
	Status   string     `json:"status"`
	Seed     uint64     `json:"seed"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
}

// JobResult summarizes a finished Selection.
type JobResult struct {
	Best            string  `json:"best"`
	BestIndex       int     `json:"best_index"`
	PrCS            float64 `json:"prcs"`
	SampledQueries  int     `json:"sampled_queries"`
	OptimizerCalls  int64   `json:"optimizer_calls"`
	Eliminated      int     `json:"eliminated"`
	Strata          int     `json:"strata"`
	DegradedQueries int     `json:"degraded_queries,omitempty"`
	OracleRetries   int64   `json:"oracle_retries,omitempty"`
	OracleFaults    int64   `json:"oracle_faults,omitempty"`
}

// TenantResponse is the tenant status in GET /v1/tenant.
type TenantResponse struct {
	Name            string `json:"name"`
	Jobs            int    `json:"jobs"`
	Workloads       int    `json:"workloads"`
	CallBudget      int64  `json:"call_budget"`
	CallsUsed       int64  `json:"calls_used"`
	BudgetExhausted bool   `json:"budget_exhausted"`
}

// ErrorResponse is the canonical error shape of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (j *job) response() JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := JobResponse{
		ID:       j.id,
		Tenant:   j.tenant.name,
		Workload: j.wl.id,
		Status:   j.status,
		Seed:     j.req.Seed,
	}
	if j.err != nil {
		resp.Error = j.err.Error()
	}
	if j.sel != nil && j.status == StatusDone {
		eliminated := 0
		for _, e := range j.sel.Eliminated {
			if e {
				eliminated++
			}
		}
		resp.Result = &JobResult{
			Best:            j.sel.Best.Name(),
			BestIndex:       j.sel.BestIndex,
			PrCS:            j.sel.PrCS,
			SampledQueries:  j.sel.SampledQueries,
			OptimizerCalls:  j.sel.OptimizerCalls,
			Eliminated:      eliminated,
			Strata:          j.sel.Strata,
			DegradedQueries: j.sel.DegradedQueries,
			OracleRetries:   j.sel.OracleRetries,
			OracleFaults:    j.sel.OracleFaults,
		}
	}
	return resp
}

// Selection returns the stored *core.Selection of a finished job, or nil.
// Tests use it to DeepEqual the daemon's result against a direct
// core.Select run without JSON round-tripping.
func (s *Server) Selection(jobID string) *core.Selection {
	s.mu.Lock()
	j := s.jobs[jobID]
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sel
}
