package optimizer

import (
	"fmt"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
)

// debugStarQuery builds a 6-relation star query resembling the Q5 analogue
// without importing the workload package (which would cycle).
func debugStarQuery(t testing.TB) (*query.Query, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int64, cols ...string) *catalog.Table {
		tb := &catalog.Table{Name: name, RowCount: rows}
		for _, c := range cols {
			ndv := rows
			if c != "id" {
				ndv = 10000
			}
			tb.Columns = append(tb.Columns, &catalog.Column{Name: c, Type: catalog.Int, NDV: ndv, Min: 1, Max: ndv})
		}
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	mk("f", 35_000_000, "id", "fk1", "fk2", "fk3", "m1", "a1")
	mk("d1", 1_000_000, "id", "fkc1", "a1")
	mk("d2", 1_200_000, "id", "a1")
	mk("d3", 1_500_000, "id", "fkc3", "a1")
	mk("c1", 100_000, "id", "a1")
	mk("c3", 120_000, "id", "a1")
	// Fix FK NDVs to the referenced table's cardinality.
	cat.Table("f").Column("fk1").NDV = 1_000_000
	cat.Table("f").Column("fk2").NDV = 1_200_000
	cat.Table("f").Column("fk3").NDV = 1_500_000
	cat.Table("d1").Column("fkc1").NDV = 100_000
	cat.Table("d3").Column("fkc3").NDV = 120_000

	q := &query.Query{
		Name: "debug-q5",
		Rels: []query.Rel{
			{Table: cat.Table("f")}, {Table: cat.Table("d1")}, {Table: cat.Table("d2")},
			{Table: cat.Table("d3")}, {Table: cat.Table("c1")}, {Table: cat.Table("c3")},
		},
		Joins: []query.Join{
			{Left: query.ColRef{Rel: 0, Column: "fk1"}, Right: query.ColRef{Rel: 1, Column: "id"}},
			{Left: query.ColRef{Rel: 0, Column: "fk2"}, Right: query.ColRef{Rel: 2, Column: "id"}},
			{Left: query.ColRef{Rel: 0, Column: "fk3"}, Right: query.ColRef{Rel: 3, Column: "id"}},
			{Left: query.ColRef{Rel: 1, Column: "fkc1"}, Right: query.ColRef{Rel: 4, Column: "id"}},
			{Left: query.ColRef{Rel: 3, Column: "fkc3"}, Right: query.ColRef{Rel: 5, Column: "id"}},
		},
		Filters: []query.Filter{
			{Col: query.ColRef{Rel: 0, Column: "a1"}, Op: query.Between, Value: 1, Value2: 100},
		},
		Select: []query.ColRef{
			{Rel: 0, Column: "m1"}, {Rel: 2, Column: "a1"}, {Rel: 5, Column: "a1"},
		},
		GroupBy: []query.ColRef{{Rel: 2, Column: "a1"}, {Rel: 5, Column: "a1"}},
		OrderBy: []query.ColRef{{Rel: 5, Column: "a1"}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q, cat
}

// debugAllOrdersConfig covers every interesting order with a covering index.
func debugAllOrdersConfig(t testing.TB, a *Analysis) *query.Config {
	t.Helper()
	cfg := &query.Config{}
	n := 0
	seen := map[string]bool{}
	for i := range a.Rels {
		ri := &a.Rels[i]
		for _, col := range ri.Interesting {
			key := ri.Table.Name + ":" + col
			if seen[key] {
				continue
			}
			seen[key] = true
			cols := []string{col}
			for _, c := range ri.Needed {
				if c != col {
					cols = append(cols, c)
				}
			}
			n++
			cfg.Indexes = append(cfg.Indexes,
				storage.HypotheticalIndex(fmt.Sprintf("dbg_%d", n), ri.Table, cols))
		}
	}
	return cfg
}

func TestDebugExportCounts(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("combos: %d", q.ComboCount())
	cfg := debugAllOrdersConfig(t, a)
	// The test oracle's top relation, after its batch pass (reference_test.go).
	r := &refPlanner{a: a, cfg: cfg, opt: Options{EnableNestLoop: true, ExportAll: true, PreciseNLJ: true}, res: &Result{}}
	top, err := r.sweep()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("top paths: %d, considered %d", len(top.paths), r.res.Stats.PathsConsidered)
	hist := map[string]int{}
	coefs := map[float64]bool{}
	for _, pt := range top.paths {
		nOrd, nLook := 0, 0
		for _, rq := range pt.Leaves {
			switch rq.Mode {
			case AccessOrdered:
				nOrd++
			case AccessLookup:
				nLook++
				coefs[rq.Coef] = true
			}
		}
		hist[fmt.Sprintf("ord=%d look=%d orderlen=%d", nOrd, nLook, len(pt.Order))]++
	}
	for k, v := range hist {
		t.Logf("  %-28s %d", k, v)
	}
	t.Logf("distinct lookup coefs: %d", len(coefs))
}
