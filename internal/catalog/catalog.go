// Package catalog models the database metadata a what-if optimizer costs
// queries against: tables, columns, cardinalities and column statistics
// (distinct counts, domains, skew, histograms). No base data is ever
// materialized — exactly as with a real what-if API, hypothetical designs
// are costed purely from statistics.
//
// Two schema builders reproduce the paper's evaluation databases:
// TPCD builds the synthetic TPC-D schema with Zipf-distributed attribute
// value frequencies (θ=1, ~1GB at scale 1), and CRM builds a 500+-table
// schema standing in for the real-life CRM database.
package catalog

import (
	"fmt"
	"sort"
)

// ColumnType is the logical type of a column.
type ColumnType int

// Column types. Dates are represented as day numbers so that range
// selectivity estimation is uniform across numeric-like types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeDate
	TypeString
)

func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeDate:
		return "date"
	case TypeString:
		return "string"
	}
	return fmt.Sprintf("ColumnType(%d)", int(t))
}

// Column holds the statistics of one column. The value domain of numeric
// and date columns is [1, Distinct] with value v having frequency rank v —
// i.e. values are identified with their frequency ranks, and a Zipf(Skew)
// law over ranks gives each value's frequency. Skew = 0 is the uniform
// distribution. This convention lets the workload generators and the
// optimizer agree on selectivities without materializing data.
type Column struct {
	Name string
	Type ColumnType
	// Distinct is the number of distinct values.
	Distinct int
	// Width is the average storage width in bytes.
	Width int
	// Skew is the Zipf exponent θ of the value-frequency distribution.
	Skew float64
	// NullFrac is the fraction of NULLs.
	NullFrac float64
}

// Table is the metadata of one base table. Its statistics are fixed once
// a catalog holds it: New caches the table's heap page count (of a table
// with a known row width).
type Table struct {
	Name    string
	Rows    int
	Columns []Column

	byName map[string]int
	// pages caches Pages (0: not cached); New sets it.
	pages int
}

// NewTable builds a table with the given row count and columns. Column
// names must be unique within the table.
func NewTable(name string, rows int, cols []Column) *Table {
	t := &Table{Name: name, Rows: rows, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %s.%s", name, c.Name))
		}
		t.byName[c.Name] = i
	}
	return t
}

// Column returns the named column's metadata.
func (t *Table) Column(name string) (Column, bool) {
	i, ok := t.byName[name]
	if !ok {
		return Column{}, false
	}
	return t.Columns[i], true
}

// RowWidth returns the average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width
	}
	return w
}

// PageSize is the storage page size used for all page-count computations.
const PageSize = 8192

// Pages returns the number of pages a heap of the table occupies.
func (t *Table) Pages() int {
	if t.pages > 0 {
		return t.pages
	}
	return t.countPages()
}

func (t *Table) countPages() int {
	rowsPerPage := PageSize / t.RowWidth()
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	p := (t.Rows + rowsPerPage - 1) / rowsPerPage
	if p < 1 {
		p = 1
	}
	return p
}

// Catalog is a set of tables with a global column-name resolver. Schemas in
// this repository use unique per-table column prefixes (TPC style), so every
// column name identifies its table.
type Catalog struct {
	tables  map[string]*Table
	ownerOf map[string]string
	names   []string
}

// New builds a catalog from tables. Duplicate table names panic; a column
// name owned by several tables simply becomes non-resolvable when
// unqualified (qualified references still work).
func New(tables ...*Table) *Catalog {
	c := &Catalog{
		tables:  make(map[string]*Table, len(tables)),
		ownerOf: make(map[string]string),
	}
	ambiguous := make(map[string]bool)
	for _, t := range tables {
		if _, dup := c.tables[t.Name]; dup {
			panic("catalog: duplicate table " + t.Name)
		}
		c.tables[t.Name] = t
		c.names = append(c.names, t.Name)
		if t.RowWidth() > 0 {
			t.pages = t.countPages()
		}
		for _, col := range t.Columns {
			if _, seen := c.ownerOf[col.Name]; seen {
				ambiguous[col.Name] = true
			} else {
				c.ownerOf[col.Name] = t.Name
			}
		}
	}
	for name := range ambiguous {
		delete(c.ownerOf, name)
	}
	sort.Strings(c.names)
	return c
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// MustTable returns the named table or panics; for use by generators that
// construct queries against their own schema.
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.tables[name]
	if !ok {
		panic("catalog: no table " + name)
	}
	return t
}

// TableNames returns all table names in sorted order.
func (c *Catalog) TableNames() []string { return c.names }

// NumTables returns the number of tables.
func (c *Catalog) NumTables() int { return len(c.tables) }

// Resolve maps an unqualified column name to its owning table; it is the
// sqlparse.Resolver for this catalog.
func (c *Catalog) Resolve(column string) (string, bool) {
	t, ok := c.ownerOf[column]
	return t, ok
}

// ColumnStats returns the statistics of table.column.
func (c *Catalog) ColumnStats(table, column string) (Column, bool) {
	t, ok := c.tables[table]
	if !ok {
		return Column{}, false
	}
	return t.Column(column)
}

// TotalBytes returns the total heap size of all tables in bytes, a rough
// "database size" figure for reporting.
func (c *Catalog) TotalBytes() int64 {
	var total int64
	for _, t := range c.tables {
		total += int64(t.Rows) * int64(t.RowWidth())
	}
	return total
}
