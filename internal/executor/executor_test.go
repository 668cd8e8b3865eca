package executor

import (
	"fmt"
	"sort"
	"testing"

	"github.com/pinumdb/pinum/internal/data"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// tinyDB materialises the star schema at a very small scale.
func tinyDB(t testing.TB) (*workload.Star, *data.Database) {
	t.Helper()
	s, err := workload.StarSchema(0.0002) // fact ≈ 7000 rows
	if err != nil {
		t.Fatal(err)
	}
	db, err := data.Materialize(s.Catalog, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return s, db
}

func TestJoinMethodsAgree(t *testing.T) {
	s, db := tinyDB(t)
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:5] {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			ws := whatif.NewSession(s.Catalog)
			// Configuration with a covering index per table so index
			// scans and nested loops appear in some plans.
			cfg := &query.Config{}
			for i := range a.Rels {
				cols := []string{}
				for _, c := range a.Rels[i].Needed {
					cols = append(cols, c)
				}
				sort.Strings(cols)
				if len(cols) == 0 {
					continue
				}
				ix, err := ws.CreateIndex(a.Rels[i].Table.Name, cols...)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Indexes = append(cfg.Indexes, ix)
			}

			var reference [][]int64
			for variant, opts := range map[string]struct {
				cfg *query.Config
				o   optimizer.Options
			}{
				"noindex-nonlj": {nil, optimizer.Options{}},
				"noindex-nlj":   {nil, optimizer.Options{EnableNestLoop: true}},
				"indexed-nonlj": {cfg, optimizer.Options{}},
				"indexed-nlj":   {cfg, optimizer.Options{EnableNestLoop: true}},
			} {
				res, err := optimizer.Optimize(a, opts.cfg, opts.o)
				if err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				ex := New(db, q)
				rs, err := ex.Run(res.Best)
				if err != nil {
					t.Fatalf("%s: run: %v\nplan:\n%s", variant, err, optimizer.Explain(res.Best, q))
				}
				got := canonical(rs.Project())
				if reference == nil {
					reference = got
					continue
				}
				if err := equalRows(reference, got); err != nil {
					t.Fatalf("%s: results differ: %v\nplan:\n%s", variant, err, optimizer.Explain(res.Best, q))
				}
			}
		})
	}
}

// canonical sorts projected rows lexicographically so result multisets can
// be compared across plans with different output orders.
func canonical(rows [][]int64) [][]int64 {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}

func equalRows(a, b [][]int64) error {
	if len(a) != len(b) {
		return fmt.Errorf("row count %d vs %d", len(a), len(b))
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return fmt.Errorf("row %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
	return nil
}

// TestOrderByRespected checks that the executed plan delivers rows in the
// query's requested order.
func TestOrderByRespected(t *testing.T) {
	s, db := tinyDB(t)
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:4] {
		if len(q.OrderBy) == 0 {
			continue
		}
		a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(a, nil, optimizer.Options{EnableNestLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db, q)
		rs, err := ex.Run(res.Best)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		pos, err := ex.colPos(res.Best.Rels, q.OrderBy[0])
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for i := 1; i < len(rs.Rows); i++ {
			if rs.Rows[i-1][pos] > rs.Rows[i][pos] {
				t.Fatalf("%s: rows out of order at %d", q.Name, i)
			}
		}
	}
}
