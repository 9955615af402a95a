package sqlparse

import "hash/fnv"

// TemplateID is a 64-bit hash identifying a query template. Two statements
// share a TemplateID exactly when their TemplateSQL strings are equal (up to
// the negligible chance of an FNV collision; the workload sizes in the paper
// are ~10⁵, far below the 64-bit birthday bound).
type TemplateID uint64

// Template computes the template string and its ID for a parsed statement.
func Template(s Statement) (string, TemplateID) {
	t := TemplateSQL(s)
	return t, HashTemplate(t)
}

// HashTemplate returns the TemplateID of a template string.
func HashTemplate(t string) TemplateID {
	h := fnv.New64a()
	h.Write([]byte(t))
	return TemplateID(h.Sum64())
}
