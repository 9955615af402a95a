package core

import (
	"strconv"

	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/workload"
)

// maxSigParams caps how many numeric literal positions per template feed
// the parameter-distribution signature. TPC-D-style templates carry a
// handful of constants; a cap keeps signatures small and comparison O(1).
const maxSigParams = 8

// templateSignatures computes the warm-start signatures of a workload:
// per dense template (first-appearance order, as in Workload.Partition),
// the stable cross-workload template ID plus Welford moments of every
// numeric literal position across the template's members. The literals
// are the parser's own number tokens (sqlparse.AppendSignature), so quoted
// strings such as dates stay out of the signature. A later run compares
// these moments against a snapshot's to decide which templates kept their
// parameter distribution — only the rest are re-piloted.
func templateSignatures(w *workload.Workload) []sampling.TemplateSig {
	tmpls := w.Templates()
	sigs := make([]sampling.TemplateSig, len(tmpls))
	for i, ti := range tmpls {
		sigs[i].ID = uint64(ti.ID)
	}
	of := w.Partition().Of
	var shape []byte
	var lits []sqlparse.Token
	for qi, q := range w.Queries {
		sig := &sigs[of[qi]]
		shape, lits, _ = sqlparse.AppendSignature(shape[:0], lits[:0], q.SQL) //physdes:errok the workload parsed every statement, so lexing cannot fail
		pos := 0
		for _, t := range lits {
			if pos == maxSigParams {
				break
			}
			if t.Kind != sqlparse.TokNumber {
				continue
			}
			x, _ := strconv.ParseFloat(t.Text, 64) //physdes:errok the parser read this very token as a number
			if pos == len(sig.Params) {
				sig.Params = append(sig.Params, sampling.ParamMoment{})
			}
			sig.Params[pos].Observe(x)
			pos++
		}
	}
	return sigs
}

// configFingerprints returns the canonical fingerprints of the candidate
// configurations — the cross-run alignment key of a warm snapshot.
func configFingerprints(configs []*physical.Configuration) []string {
	out := make([]string, len(configs))
	for i, c := range configs {
		out[i] = c.Fingerprint()
	}
	return out
}

// indexOfFingerprint finds a configuration by fingerprint (-1: absent).
func indexOfFingerprint(fps []string, fp string) int {
	for i, f := range fps {
		if f == fp {
			return i
		}
	}
	return -1
}
