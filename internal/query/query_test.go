package query

import (
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
)

func mkTable(t *testing.T, c *catalog.Catalog, name string, cols ...string) *catalog.Table {
	t.Helper()
	tb := &catalog.Table{Name: name, RowCount: 1000}
	for _, cn := range cols {
		tb.Columns = append(tb.Columns, &catalog.Column{Name: cn, Type: catalog.Int, NDV: 100, Min: 1, Max: 100})
	}
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	return tb
}

// threeWay builds f ⋈ d1 ⋈ d2 with a filter, grouping and ordering.
func threeWay(t *testing.T) *Query {
	t.Helper()
	c := catalog.New()
	f := mkTable(t, c, "f", "id", "fk1", "fk2", "m")
	d1 := mkTable(t, c, "d1", "id", "a")
	d2 := mkTable(t, c, "d2", "id", "b")
	q := &Query{
		Name: "q3",
		Rels: []Rel{{Table: f}, {Table: d1}, {Table: d2}},
		Joins: []Join{
			{Left: ColRef{0, "fk1"}, Right: ColRef{1, "id"}},
			{Left: ColRef{0, "fk2"}, Right: ColRef{2, "id"}},
		},
		Filters: []Filter{{Col: ColRef{0, "m"}, Op: Between, Value: 1, Value2: 10}},
		Select:  []ColRef{{0, "m"}, {1, "a"}},
		GroupBy: []ColRef{{1, "a"}},
		OrderBy: []ColRef{{2, "b"}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestValidateRejectsBadRefs(t *testing.T) {
	q := threeWay(t)
	bad := *q
	bad.Select = append([]ColRef{}, q.Select...)
	bad.Select[0] = ColRef{7, "m"}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range rel accepted")
	}
	bad = *q
	bad.Filters = []Filter{{Col: ColRef{0, "zz"}, Op: Eq, Value: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown column accepted")
	}
	bad = *q
	bad.Filters = []Filter{{Col: ColRef{0, "m"}, Op: Between, Value: 10, Value2: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("empty BETWEEN accepted")
	}
	bad = *q
	bad.Joins = []Join{{Left: ColRef{0, "fk1"}, Right: ColRef{0, "id"}}}
	if err := bad.Validate(); err == nil {
		t.Error("self-referential join accepted")
	}
}

func TestJoinGraphConnected(t *testing.T) {
	q := threeWay(t)
	if !q.JoinGraphConnected() {
		t.Error("connected graph reported disconnected")
	}
	q.Joins = q.Joins[:1] // drop the edge to d2
	if q.JoinGraphConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestInterestingOrders(t *testing.T) {
	q := threeWay(t)
	ios := q.InterestingOrders()
	// f: fk1, fk2 (joins); d1: id (join) + a (group); d2: id (join) + b (order)
	if len(ios[0]) != 2 || ios[0][0] != "fk1" || ios[0][1] != "fk2" {
		t.Errorf("f orders = %v", ios[0])
	}
	if len(ios[1]) != 2 || ios[1][0] != "a" || ios[1][1] != "id" {
		t.Errorf("d1 orders = %v", ios[1])
	}
	if len(ios[2]) != 2 {
		t.Errorf("d2 orders = %v", ios[2])
	}
}

func TestComboEnumeration(t *testing.T) {
	q := threeWay(t)
	combos := q.EnumerateCombos()
	want := (1 + 2) * (1 + 2) * (1 + 2)
	if len(combos) != want || q.ComboCount() != want {
		t.Fatalf("enumerated %d combos, ComboCount %d, want %d", len(combos), q.ComboCount(), want)
	}
	seen := make(map[string]bool)
	for _, oc := range combos {
		if seen[oc.Key()] {
			t.Fatalf("duplicate combo %v", oc)
		}
		seen[oc.Key()] = true
	}
	// The all-Φ combo must be present.
	if !seen[(OrderCombo{"", "", ""}).Key()] {
		t.Error("missing all-Φ combo")
	}
}

func TestOrderComboString(t *testing.T) {
	if got := (OrderCombo{"x", "y", ""}).String(); got != "(x,y,Φ)" {
		t.Errorf("String = %q", got)
	}
}

func TestConfigAtomicAndCovers(t *testing.T) {
	q := threeWay(t)
	ixF := &catalog.Index{Name: "i1", Table: "f", Columns: []string{"fk1"}}
	ixF2 := &catalog.Index{Name: "i2", Table: "f", Columns: []string{"fk2"}}
	ixD := &catalog.Index{Name: "i3", Table: "d1", Columns: []string{"a", "id"}}
	atomic := &Config{Indexes: []*catalog.Index{ixF, ixD}}
	if !atomic.Atomic(q) {
		t.Error("atomic config misclassified")
	}
	notAtomic := &Config{Indexes: []*catalog.Index{ixF, ixF2}}
	if notAtomic.Atomic(q) {
		t.Error("two indexes on one table classified atomic")
	}
	if got := (*Config)(nil).String(); got != "{}" {
		t.Errorf("nil config String = %q, want {}", got)
	}
	if (&Config{}).String() != "{}" {
		t.Error("empty config String")
	}
}

func TestColumnsNeeded(t *testing.T) {
	q := threeWay(t)
	need := q.ColumnsNeeded()
	for _, col := range []string{"fk1", "fk2", "m"} {
		if !need[0][col] {
			t.Errorf("f.%s missing from needed set", col)
		}
	}
	if need[0]["id"] {
		t.Error("f.id should not be needed")
	}
	if !need[2]["b"] || !need[2]["id"] {
		t.Error("d2 needed set wrong")
	}
}
