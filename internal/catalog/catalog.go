// Package catalog models the schema metadata a query optimizer consumes:
// tables, columns, foreign keys and statistics handles, plus the descriptor
// of a secondary index, real or hypothetical ("what-if").
//
// The catalog is deliberately statistics-oriented. Exactly as in the paper,
// the optimizer never needs the data itself — only row counts, page counts,
// column widths and histograms — which is what makes what-if indexes and
// 10 GB-scale experiments possible on a laptop.
package catalog

import (
	"fmt"
	"strings"
)

// Type enumerates the column types the engine supports. The synthetic
// workloads in the paper use uniformly distributed integer columns; strings
// and floats are supported so realistic schemas can be declared too.
type Type int

const (
	Int Type = iota
	Float
	String
	Date
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Width returns the in-page storage width in bytes of a value of this type,
// before alignment padding. Variable-width types report a typical width; the
// size model works with average widths exactly as PostgreSQL's does.
func (t Type) Width() int {
	switch t {
	case Int:
		return 8
	case Float:
		return 8
	case String:
		return 24
	case Date:
		return 8
	default:
		return 8
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type

	// AvgWidth is the average stored width in bytes. Zero means "use the
	// type's default width".
	AvgWidth int

	// NDV is the number of distinct values. Zero means "unknown"; the
	// planner then assumes NDV = rows for key-like columns.
	NDV int64

	// Min and Max bound the value domain for integer-like columns. They
	// drive range-predicate selectivity when no histogram is attached.
	Min, Max int64

	NotNull bool
}

// EffectiveWidth returns AvgWidth if set, otherwise the type default.
func (c *Column) EffectiveWidth() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	return c.Type.Width()
}

// ForeignKey declares that Column references RefTable.RefColumn. The
// workload generator joins tables exclusively along foreign keys, as the
// paper's synthetic benchmark does.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Table is a base relation.
type Table struct {
	Name     string
	Columns  []*Column
	RowCount int64
	// Pages is the heap size in pages. Zero means "derive from the size
	// model" (storage.TablePages).
	Pages       int64
	ForeignKeys []ForeignKey

	colIndex map[string]int
	// names is the name space the table was last registered in and ord
	// its position there: AddTable stamps both. See Index.OnTable for
	// what the token licenses, and Table.OrdinalIn for the position.
	names *NameSpace
	ord   int
}

// NameSpace is the identity of one catalog's table names. AddTable
// rejects duplicate names, so two different tables stamped with the same
// token are differently named. AddTable also numbers the tables it
// registers there 0, 1, 2, … and never reuses a number, so a (name space,
// ordinal) pair names one table descriptor.
type NameSpace struct{ tables int }

// Tables is the number of tables registered in the name space so far:
// every ordinal OrdinalIn reports for it is below it.
func (ns *NameSpace) Tables() int { return ns.tables }

// OrdinalIn is t's position in name space ns, or -1 when t was last
// registered elsewhere (or never).
func (t *Table) OrdinalIn(ns *NameSpace) int {
	if ns == nil || t.names != ns {
		return -1
	}
	return t.ord
}

// NameSpace is the name space t was last registered in, nil for a table
// no catalog registered.
func (t *Table) NameSpace() *NameSpace { return t.names }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	if t.colIndex == nil {
		t.buildIndex()
	}
	if i, ok := t.colIndex[name]; ok {
		return t.Columns[i]
	}
	return nil
}

// ColumnOrdinal returns the position of the named column, or -1.
func (t *Table) ColumnOrdinal(name string) int {
	if t.colIndex == nil {
		t.buildIndex()
	}
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

func (t *Table) buildIndex() {
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIndex[c.Name] = i
	}
}

// RowWidth returns the average tuple payload width (sum of column widths,
// no alignment). The storage package layers alignment and headers on top.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.EffectiveWidth()
	}
	return w
}

// Index describes a secondary B-tree index, real or hypothetical.
//
// Following the paper's definition 4 (§II), an index covers an interesting
// order iff the order's column is the index's *first* column.
//
// Table and Columns are fixed once the descriptor is constructed: Bind
// resolves them to the table descriptor and column ordinals the cost model
// prices by, and interned descriptors are shared by every request
// goroutine, so nothing re-reads the names afterwards.
type Index struct {
	Name    string
	Table   string
	Columns []string

	// Hypothetical marks a what-if index: it exists only as statistics.
	Hypothetical bool

	// LeafPages is the estimated (what-if) or measured (real) number of
	// leaf pages. For hypothetical indexes this is exactly the paper's
	// §V-A estimate: leaf pages only, internal pages ignored.
	LeafPages int64

	// InternalPages is non-zero only for real (built) indexes, where the
	// whole B-tree has been measured. The gap between including and
	// excluding it is the what-if accuracy experiment (E1).
	InternalPages int64

	// Height is the B-tree height (root-to-leaf edges); used for index
	// descent cost.
	Height int

	// The bound form, written once by Bind before the descriptor is shared:
	// the table, the lead column's ordinal in it, and the key columns as a
	// bitset over the table's column ordinals. tab is nil for an unbound
	// descriptor (a literal, or an index Bind declined).
	tab  *Table
	lead int
	cols uint64
}

// maxBoundColumns is the widest table an index binds to: the key bitset is
// one word. Indexes on wider tables stay unbound and price by name.
const maxBoundColumns = 64

// Bind resolves the index's table name and key columns against t, the
// descriptor the index was built for. The constructors in package storage
// call it before returning; it must not run once the index is shared. An
// index naming another table, a column t does not have, or a table of more
// than 64 columns is left unbound, which is always correct: unbound
// descriptors are matched and priced by name.
func (ix *Index) Bind(t *Table) {
	if ix.Table != t.Name || len(ix.Columns) == 0 || len(t.Columns) > maxBoundColumns {
		return
	}
	var cols uint64
	for _, c := range ix.Columns {
		ord := t.ColumnOrdinal(c)
		if ord < 0 {
			return
		}
		cols |= 1 << uint(ord)
	}
	ix.tab, ix.lead, ix.cols = t, t.ColumnOrdinal(ix.Columns[0]), cols
}

// TableMatch is how an index relates to a table descriptor (Index.OnTable).
type TableMatch int8

const (
	// OffTable: the index is on another table.
	OffTable TableMatch = iota
	// OnTableBound: the index is bound to this very descriptor, so
	// LeadOrdinal and ColumnMask speak its column ordinals.
	OnTableBound
	// OnTableByName: the index names the table but is not bound to this
	// descriptor; columns must be resolved by name.
	OnTableByName
)

// OnTable matches the index against table t, and is the one place the
// table-identity rule lives. Equal descriptors are the same table, always.
// Unequal descriptors mean different names only when both were registered
// in one catalog name space (AddTable rejects duplicates): then the pair
// is dismissed on two pointer compares. An unbound index, a table no
// catalog registered, or descriptors of two catalogs — which may well
// carry the same name — fall back to comparing names.
func (ix *Index) OnTable(t *Table) TableMatch {
	switch {
	case ix.tab == t:
		return OnTableBound
	case ix.tab != nil && ix.tab.names != nil && ix.tab.names == t.names:
		return OffTable
	case ix.Table == t.Name:
		return OnTableByName
	}
	return OffTable
}

// OrdinalIn is the position in name space ns of the table ix is bound
// to, or -1 when ix is unbound or bound to a table of another name space.
// Every relation whose table is at another position of ns has OnTable
// answer OffTable for ix, since two positions are two tables.
func (ix *Index) OrdinalIn(ns *NameSpace) int {
	if ix.tab == nil {
		return -1
	}
	return ix.tab.OrdinalIn(ns)
}

// LeadOrdinal is the lead column's ordinal in the bound table. Meaningful
// only after OnTable returned OnTableBound.
func (ix *Index) LeadOrdinal() int { return ix.lead }

// ColumnMask is the key columns as a bitset over the bound table's column
// ordinals. Meaningful only after OnTable returned OnTableBound.
func (ix *Index) ColumnMask() uint64 { return ix.cols }

// TotalPages is the full on-disk footprint used for space budgeting.
func (ix *Index) TotalPages() int64 { return ix.LeafPages + ix.InternalPages }

// LeadColumn returns the first key column, the one that defines which
// interesting order the index covers.
func (ix *Index) LeadColumn() string { return ix.Columns[0] }

// Covers reports whether the index covers the interesting order on col
// (paper definition 4).
func (ix *Index) Covers(col string) bool { return len(ix.Columns) > 0 && ix.Columns[0] == col }

// HasColumn reports whether col appears anywhere in the index key.
func (ix *Index) HasColumn(col string) bool {
	for _, c := range ix.Columns {
		if c == col {
			return true
		}
	}
	return false
}

// Key returns a canonical identity string (table + column list), independent
// of the index name. Two indexes with equal keys are interchangeable for
// planning purposes.
func (ix *Index) Key() string {
	return ix.Table + "(" + strings.Join(ix.Columns, ",") + ")"
}

// Catalog is the schema. A Catalog is not safe for concurrent mutation;
// what-if indexes live outside it, in a whatif.Session, and reach the
// planner through a query.Config.
type Catalog struct {
	tables     map[string]*Table
	tableOrder []string
	names      *NameSpace
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table), names: new(NameSpace)}
}

// AddTable registers a table. It returns an error on duplicate names,
// empty schemas, or duplicate column names.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		if col.Name == "" {
			return fmt.Errorf("catalog: table %q has a column with empty name", t.Name)
		}
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", t.Name, col.Name)
		}
		seen[col.Name] = true
	}
	t.buildIndex()
	t.names, t.ord = c.names, c.names.tables
	c.names.tables++
	c.tables[t.Name] = t
	c.tableOrder = append(c.tableOrder, t.Name)
	return nil
}

// NameSpace is the catalog's table name space.
func (c *Catalog) NameSpace() *NameSpace { return c.names }

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tableOrder))
	for _, n := range c.tableOrder {
		out = append(out, c.tables[n])
	}
	return out
}
