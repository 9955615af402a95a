package optimizer

import (
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Decompose splits the evaluation of a under cfg into atoms as an atom
// store does, over a fresh interner: the atoms whose cost minimum
// reproduces the direct cost exactly.
func Decompose(a *sqlparse.Analysis, cfg *physical.Configuration) []*physical.Configuration {
	atoms := decompose(a, cfg, new(atomInterner), nil, nil, nil, nil, nil)
	out := make([]*physical.Configuration, len(atoms))
	for i, at := range atoms {
		out[i] = at.cfg
	}
	return out
}
