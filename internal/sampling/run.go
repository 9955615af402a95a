package sampling

import "physdes/internal/workload"

// Run executes the configuration-selection procedure (Algorithm 1) with the
// selected scheme and stratification mode, terminating when Pr(CS) exceeds
// Options.Alpha for the stability window (adaptive mode) or when the call
// budget is exhausted (fixed-budget mode). Observability is configured
// through Options: Tracer receives the structured events (each round event
// carries that round's Pr(CS)) and Metrics the counter registry.
func Run(o Oracle, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(o); err != nil {
		return nil, err
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	if opts.Templates.Of == nil {
		opts.Templates = workload.NewPartition(make([]int, o.N()))
	}
	switch opts.Scheme {
	case Delta:
		return newDeltaSampler(o, opts).run()
	default:
		return newIndependentSampler(o, opts).run()
	}
}
