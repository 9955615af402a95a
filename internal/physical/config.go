package physical

import (
	"sort"

	"physdes/internal/catalog"
)

// Configuration is a set of physical design structures. It is immutable
// after construction; With/Without derive new configurations. The zero
// Configuration is not useful — use NewConfiguration.
type Configuration struct {
	name    string
	indexes []*Index
	views   []*View

	byTable map[string][]*Index
	ids     map[string]bool

	// fingerprint caches a canonical identity string.
	fingerprint string
}

// NewConfiguration builds a configuration from structures. Duplicate IDs
// collapse to one structure.
func NewConfiguration(name string, structures ...Structure) *Configuration {
	c := &Configuration{
		name:    name,
		byTable: make(map[string][]*Index),
		ids:     make(map[string]bool),
	}
	for _, s := range structures {
		c.add(s)
	}
	c.finish()
	return c
}

func (c *Configuration) add(s Structure) {
	id := s.ID()
	if c.ids[id] {
		return
	}
	c.ids[id] = true
	switch x := s.(type) {
	case *Index:
		c.indexes = append(c.indexes, x)
		c.byTable[x.Table] = append(c.byTable[x.Table], x)
	case *View:
		c.views = append(c.views, x)
	}
}

func (c *Configuration) finish() {
	sort.Slice(c.indexes, func(i, j int) bool { return c.indexes[i].ID() < c.indexes[j].ID() })
	sort.Slice(c.views, func(i, j int) bool { return c.views[i].ID() < c.views[j].ID() })
	ids := make([]string, 0, len(c.ids))
	for id := range c.ids {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.fingerprint = ""
	for _, id := range ids {
		c.fingerprint += id + "|"
	}
}

// Name returns the configuration's display name.
func (c *Configuration) Name() string { return c.name }

// Fingerprint returns a canonical identity string: two configurations with
// equal fingerprints contain exactly the same structures.
func (c *Configuration) Fingerprint() string { return c.fingerprint }

// Has reports whether the configuration contains a structure with the ID.
func (c *Configuration) Has(id string) bool { return c.ids[id] }

// IndexesOn returns the indexes on the named table.
func (c *Configuration) IndexesOn(table string) []*Index { return c.byTable[table] }

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
	inter := 0
	for id := range a.ids {
		if b.ids[id] {
			inter++
		}
	}
	union := a.NumStructures() + b.NumStructures() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
