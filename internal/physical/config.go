package physical

import (
	"slices"
	"strings"

	"physdes/internal/catalog"
)

// Configuration is a set of physical design structures. It is immutable
// after construction; With/Without derive new configurations. The zero
// Configuration is not useful — use NewConfiguration.
//
// A configuration holds no maps: its indexes and views are kept sorted by
// ID, and the indexes of each table form one run of that order, listed in
// table-name order by ByTable. The fingerprint string is built on
// request, since only warm starts, space generation and reports read it.
type Configuration struct {
	name    string
	indexes []*Index
	views   []*View
	tables  []TableIndexes
}

// TableIndexes is one table's indexes within a configuration, sorted by
// ID.
type TableIndexes struct {
	Table   string
	Indexes []*Index
}

// NewConfiguration builds a configuration from structures. Duplicate IDs
// collapse to one structure.
func NewConfiguration(name string, structures ...Structure) *Configuration {
	c := &Configuration{name: name}
	nix := 0
	for _, s := range structures {
		if _, ok := s.(*Index); ok {
			nix++
		}
	}
	if nix > 0 {
		c.indexes = make([]*Index, 0, nix)
	}
	if nv := len(structures) - nix; nv > 0 {
		c.views = make([]*View, 0, nv)
	}
	for _, s := range structures {
		switch x := s.(type) {
		case *Index:
			c.indexes = append(c.indexes, x)
		case *View:
			c.views = append(c.views, x)
		}
	}
	c.indexes = sortedUnique(c.indexes)
	c.views = sortedUnique(c.views)
	c.groupTables()
	return c
}

// sortedUnique sorts xs by ID and drops every structure whose ID repeats
// an earlier one's.
func sortedUnique[S Structure](xs []S) []S {
	slices.SortStableFunc(xs, func(a, b S) int { return strings.Compare(a.ID(), b.ID()) })
	return slices.CompactFunc(xs, func(a, b S) bool { return a.ID() == b.ID() })
}

// groupTables lists each table's run of the ID-sorted indexes, in table
// order. A table's index IDs share the prefix "IX(table;", so they are
// adjacent in ID order.
func (c *Configuration) groupTables() {
	n := 0
	for i, ix := range c.indexes {
		if i == 0 || ix.Table != c.indexes[i-1].Table {
			n++
		}
	}
	if n == 0 {
		return
	}
	c.tables = make([]TableIndexes, 0, n)
	for lo := 0; lo < len(c.indexes); {
		hi := lo + 1
		for hi < len(c.indexes) && c.indexes[hi].Table == c.indexes[lo].Table {
			hi++
		}
		c.tables = append(c.tables, TableIndexes{Table: c.indexes[lo].Table, Indexes: c.indexes[lo:hi:hi]})
		lo = hi
	}
	slices.SortFunc(c.tables, func(a, b TableIndexes) int { return strings.Compare(a.Table, b.Table) })
}

// Name returns the configuration's display name.
func (c *Configuration) Name() string { return c.name }

// Fingerprint returns a canonical identity string: two configurations with
// equal fingerprints contain exactly the same structures. It is built on
// each call.
func (c *Configuration) Fingerprint() string {
	var b strings.Builder
	// Every index ID ("IX(...") sorts before every view ID ("MV(..."), so
	// indexes then views is the sorted ID order.
	for _, ix := range c.indexes {
		b.WriteString(ix.ID())
		b.WriteByte('|')
	}
	for _, v := range c.views {
		b.WriteString(v.ID())
		b.WriteByte('|')
	}
	return b.String()
}

// Has reports whether the configuration contains a structure with the ID.
func (c *Configuration) Has(id string) bool {
	if _, ok := slices.BinarySearchFunc(c.indexes, id, func(ix *Index, id string) int { return strings.Compare(ix.ID(), id) }); ok {
		return true
	}
	_, ok := slices.BinarySearchFunc(c.views, id, func(v *View, id string) int { return strings.Compare(v.ID(), id) })
	return ok
}

// IndexesOn returns the indexes on the named table, sorted by ID.
func (c *Configuration) IndexesOn(table string) []*Index {
	for _, t := range c.tables {
		if t.Table == table {
			return t.Indexes
		}
	}
	return nil
}

// ByTable returns the configuration's indexes grouped by table, one entry
// per table that has an index, in table-name order.
func (c *Configuration) ByTable() []TableIndexes { return c.tables }

// Indexes returns all indexes (sorted by ID).
func (c *Configuration) Indexes() []*Index { return c.indexes }

// Views returns all materialized views (sorted by ID).
func (c *Configuration) Views() []*View { return c.views }

// NumStructures returns the total structure count.
func (c *Configuration) NumStructures() int { return len(c.indexes) + len(c.views) }

// Structures returns all structures.
func (c *Configuration) Structures() []Structure {
	out := make([]Structure, 0, c.NumStructures())
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	for _, v := range c.views {
		out = append(out, v)
	}
	return out
}

// SizeBytes estimates the configuration's total storage footprint.
func (c *Configuration) SizeBytes(cat *catalog.Catalog) int64 {
	var total int64
	for _, s := range c.Structures() {
		total += s.SizeBytes(cat)
	}
	return total
}

// With returns a new configuration containing c's structures plus extra.
func (c *Configuration) With(name string, extra ...Structure) *Configuration {
	all := c.Structures()
	all = append(all, extra...)
	return NewConfiguration(name, all...)
}

// Without returns a new configuration with the identified structures
// removed.
func (c *Configuration) Without(name string, removeIDs ...string) *Configuration {
	rm := make(map[string]bool, len(removeIDs))
	for _, id := range removeIDs {
		rm[id] = true
	}
	var keep []Structure
	for _, s := range c.Structures() {
		if !rm[s.ID()] {
			keep = append(keep, s)
		}
	}
	return NewConfiguration(name, keep...)
}

// Union returns the configuration containing every structure of a and b.
// The paper's Section 6.1 lower-bound construction uses the union of all
// structures potentially useful to a query.
func Union(name string, configs ...*Configuration) *Configuration {
	var all []Structure
	for _, c := range configs {
		all = append(all, c.Structures()...)
	}
	return NewConfiguration(name, all...)
}

// Intersection returns the configuration of structures present in every
// input — the "base configuration" of Section 6.1: the structures that
// will be present in all configurations enumerated during tuning.
func Intersection(name string, configs ...*Configuration) *Configuration {
	if len(configs) == 0 {
		return NewConfiguration(name)
	}
	var keep []Structure
	for _, s := range configs[0].Structures() {
		inAll := true
		for _, c := range configs[1:] {
			if !c.Has(s.ID()) {
				inAll = false
				break
			}
		}
		if inAll {
			keep = append(keep, s)
		}
	}
	return NewConfiguration(name, keep...)
}

// Diff reports the structures to build and to drop when moving from
// configuration a to configuration b — the actionable summary a comparison
// verdict needs.
func Diff(a, b *Configuration) (build, drop []Structure) {
	for _, s := range b.Structures() {
		if !a.Has(s.ID()) {
			build = append(build, s)
		}
	}
	for _, s := range a.Structures() {
		if !b.Has(s.ID()) {
			drop = append(drop, s)
		}
	}
	return build, drop
}

// Overlap returns the Jaccard similarity of the two configurations'
// structure sets — the "shared design structures" measure the paper uses to
// characterize how hard two configurations are to distinguish.
func Overlap(a, b *Configuration) float64 {
	if a.NumStructures() == 0 && b.NumStructures() == 0 {
		return 1
	}
	inter := sharedIDs(a.indexes, b.indexes) + sharedIDs(a.views, b.views)
	union := a.NumStructures() + b.NumStructures() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// sharedIDs counts the IDs two ID-sorted structure lists have in common.
func sharedIDs[S Structure](a, b []S) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].ID(), b[j].ID()); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
