package catalog

import (
	"testing"
)

func sampleTable() *Table {
	return &Table{
		Name:     "t",
		RowCount: 1000,
		Columns: []*Column{
			{Name: "id", Type: Int, NDV: 1000, Min: 1, Max: 1000, NotNull: true},
			{Name: "a", Type: Int, NDV: 100, Min: 1, Max: 100},
			{Name: "s", Type: String},
		},
		ForeignKeys: []ForeignKey{{Column: "a", RefTable: "u", RefColumn: "id"}},
	}
}

func TestAddTableAndLookup(t *testing.T) {
	c := New()
	if err := c.AddTable(sampleTable()); err != nil {
		t.Fatal(err)
	}
	tb := c.Table("t")
	if tb == nil {
		t.Fatal("table not found")
	}
	if got := tb.Column("a"); got == nil || got.NDV != 100 {
		t.Errorf("Column(a) = %+v", got)
	}
	if tb.Column("zz") != nil {
		t.Error("unknown column should be nil")
	}
	if ord := tb.ColumnOrdinal("s"); ord != 2 {
		t.Errorf("ColumnOrdinal(s) = %d, want 2", ord)
	}
	if ord := tb.ColumnOrdinal("zz"); ord != -1 {
		t.Errorf("ColumnOrdinal(zz) = %d, want -1", ord)
	}
	if c.Table("missing") != nil {
		t.Error("missing table should be nil")
	}
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	if err := c.AddTable(&Table{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := c.AddTable(&Table{Name: "x"}); err == nil {
		t.Error("no columns accepted")
	}
	if err := c.AddTable(&Table{Name: "y", Columns: []*Column{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := c.AddTable(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(sampleTable()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestRowWidth(t *testing.T) {
	tb := sampleTable()
	want := 8 + 8 + 24 // int + int + string default widths
	if got := tb.RowWidth(); got != want {
		t.Errorf("RowWidth = %d, want %d", got, want)
	}
	tb.Columns[0].AvgWidth = 4
	if got := tb.RowWidth(); got != want-4 {
		t.Errorf("RowWidth with AvgWidth = %d, want %d", got, want-4)
	}
}

func TestIndexLifecycle(t *testing.T) {
	ix := &Index{Name: "t_a", Table: "t", Columns: []string{"a", "id"}}
	if !ix.Covers("a") || ix.Covers("id") {
		t.Error("Covers should be lead-column only")
	}
	if !ix.HasColumn("id") || ix.HasColumn("s") {
		t.Error("HasColumn wrong")
	}
	if ix.Key() != "t(a,id)" {
		t.Errorf("Key = %q", ix.Key())
	}
}

func TestTypeStringsAndWidths(t *testing.T) {
	for _, ty := range []Type{Int, Float, String, Date} {
		if ty.String() == "" || ty.Width() <= 0 {
			t.Errorf("type %d: bad String/Width", ty)
		}
	}
	if (&Index{Name: "x", Table: "t", Columns: []string{"a"}}).TotalPages() != 0 {
		t.Error("TotalPages of empty index not 0")
	}
	ix := &Index{LeafPages: 10, InternalPages: 2}
	if ix.TotalPages() != 12 {
		t.Error("TotalPages wrong")
	}
}

// TestIndexOnTable pins the table-identity rule: a bound index trusts
// pointers only inside one catalog name space, and everything it cannot
// place is matched by name.
func TestIndexOnTable(t *testing.T) {
	other := func(name string) *Table {
		tb := sampleTable()
		tb.Name = name
		return tb
	}
	c := New()
	tt, tu := other("t"), other("u")
	for _, tb := range []*Table{tt, tu} {
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	c2 := New()
	t2 := other("t")
	if err := c2.AddTable(t2); err != nil {
		t.Fatal(err)
	}
	loose := other("t") // never registered anywhere

	bound := &Index{Name: "b", Table: "t", Columns: []string{"a", "id"}}
	bound.Bind(tt)
	if bound.LeadOrdinal() != 1 || bound.ColumnMask() != 0b011 {
		t.Fatalf("bound form: lead %d mask %b, want 1 and 011", bound.LeadOrdinal(), bound.ColumnMask())
	}
	literal := &Index{Name: "l", Table: "t", Columns: []string{"a", "id"}}
	onLoose := &Index{Name: "o", Table: "t", Columns: []string{"a"}}
	onLoose.Bind(loose)

	for _, tc := range []struct {
		what string
		ix   *Index
		tb   *Table
		want TableMatch
	}{
		{"bound, its own table", bound, tt, OnTableBound},
		{"bound, another table of its catalog", bound, tu, OffTable},
		{"bound, a same-named table of another catalog", bound, t2, OnTableByName},
		{"bound, a same-named table of no catalog", bound, loose, OnTableByName},
		{"bound to a table of no catalog, a catalog's same-named table", onLoose, tt, OnTableByName},
		{"bound to a table of no catalog, that table", onLoose, loose, OnTableBound},
		{"literal, the named table", literal, tt, OnTableByName},
		{"literal, another table", literal, tu, OffTable},
	} {
		if got := tc.ix.OnTable(tc.tb); got != tc.want {
			t.Errorf("%s: OnTable = %d, want %d", tc.what, got, tc.want)
		}
	}

	// Bind declines what it cannot resolve; the descriptor stays by-name.
	unknown := &Index{Name: "x", Table: "t", Columns: []string{"a", "zz"}}
	unknown.Bind(tt)
	wrong := &Index{Name: "w", Table: "u", Columns: []string{"a"}}
	wrong.Bind(tt)
	wide := &Table{Name: "wide"}
	for i := 0; i <= maxBoundColumns; i++ {
		wide.Columns = append(wide.Columns, &Column{Name: "c" + string(rune('A'+i))})
	}
	onWide := &Index{Name: "ww", Table: "wide", Columns: []string{"cA"}}
	onWide.Bind(wide)
	for _, tc := range []struct {
		ix *Index
		tb *Table
	}{{unknown, tt}, {wrong, tu}, {onWide, wide}} {
		if got := tc.ix.OnTable(tc.tb); got != OnTableByName {
			t.Errorf("index %s after a declined Bind: OnTable = %d, want by-name", tc.ix.Name, got)
		}
	}
}

// TestTableOrdinal pins the position AddTable stamps beside the name-space
// token: tables are numbered in registration order, a refused table takes
// no number, and registering a table in a second catalog restamps it
// there — after which it, and an index bound to it, have no position in
// the first.
func TestTableOrdinal(t *testing.T) {
	named := func(name string) *Table {
		tb := sampleTable()
		tb.Name = name
		return tb
	}
	c := New()
	ta, tb := named("a"), named("b")
	for _, tab := range []*Table{ta, tb} {
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(named("a")); err == nil {
		t.Fatal("a duplicate table was registered")
	}
	ns := c.NameSpace()
	if ns.Tables() != 2 || ta.OrdinalIn(ns) != 0 || tb.OrdinalIn(ns) != 1 {
		t.Fatalf("after two tables and a refused one: %d tables, ordinals %d and %d; want 2, 0 and 1",
			ns.Tables(), ta.OrdinalIn(ns), tb.OrdinalIn(ns))
	}
	if ta.NameSpace() != ns || ta.OrdinalIn(nil) != -1 || named("loose").OrdinalIn(ns) != -1 {
		t.Fatal("a table's name space, or the ordinal of an unregistered table or a nil name space, is wrong")
	}

	bound := &Index{Name: "ix", Table: "b", Columns: []string{"a"}}
	bound.Bind(tb)
	literal := &Index{Name: "lit", Table: "b", Columns: []string{"a"}}
	if bound.OrdinalIn(ns) != 1 || literal.OrdinalIn(ns) != -1 {
		t.Fatalf("index ordinals: bound %d, literal %d; want 1 and -1", bound.OrdinalIn(ns), literal.OrdinalIn(ns))
	}

	second := New()
	if err := second.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if tb.NameSpace() != second.NameSpace() || tb.OrdinalIn(second.NameSpace()) != 0 || tb.OrdinalIn(ns) != -1 {
		t.Fatalf("restamped table: ordinal %d in the second catalog and %d in the first; want 0 and -1",
			tb.OrdinalIn(second.NameSpace()), tb.OrdinalIn(ns))
	}
	if bound.OrdinalIn(ns) != -1 || bound.OrdinalIn(second.NameSpace()) != 0 {
		t.Fatal("an index bound to a restamped table kept its place in the first catalog")
	}
}
