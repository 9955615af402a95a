package optimizer

import (
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// AtomPlan is the result of decomposing one (statement, configuration)
// evaluation: either the atoms whose cost minimum reproduces the direct
// cost exactly, or Fallback when the statement is costed directly against
// the full configuration.
type AtomPlan struct {
	Atoms    []*physical.Configuration
	Fallback bool
}

// Decompose splits the evaluation of a under cfg into atoms as an atom
// store does, with projection atoms at most maxWidth structures wide
// (<= 0: DefaultMaxAtomWidth), over a fresh interner.
func Decompose(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int) AtomPlan {
	if maxWidth <= 0 {
		maxWidth = DefaultMaxAtomWidth
	}
	atoms, fallback := decompose(a, cfg, maxWidth, new(atomInterner), nil, nil, nil, nil, nil)
	if fallback {
		return AtomPlan{Fallback: true}
	}
	plan := AtomPlan{Atoms: make([]*physical.Configuration, len(atoms))}
	for i, at := range atoms {
		plan.Atoms[i] = at.cfg
	}
	return plan
}

// NewAtomicCacheWidth is NewAtomicCache with projection atoms at most
// maxWidth structures wide (<= 0: DefaultMaxAtomWidth), so a test can
// reach the width-bound fallback.
func NewAtomicCacheWidth(inner *Optimizer, maxWidth int) *AtomicCache {
	ac := NewAtomicCache(inner)
	if maxWidth > 0 {
		ac.maxWidth = maxWidth
	}
	return ac
}
