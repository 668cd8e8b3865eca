package optimizer_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestHoistedFactsMatchDerivations pins every per-relation fact NewAnalysis
// fixes against the expression it replaced, derived here from the table,
// the query and the Coster's table-taking entry points — not from
// AccessCost or the leaf-slot table, which read the same hoisted fields.
func TestHoistedFactsMatchDerivations(t *testing.T) {
	for _, shape := range workload.Shapes {
		for _, seed := range []int64{1, 2} {
			spec := workload.ShapeSpec{Shape: shape, Rels: 6, Density: 0.4, Seed: seed}
			_, q, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkHoistedFacts(t, fmt.Sprintf("%s/%d", shape, seed), q, nil)
		}
	}
	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		checkHoistedFacts(t, "star/"+q.Name, q, star.Stats)
	}
}

func checkHoistedFacts(t *testing.T, label string, q *query.Query, st *stats.Store) {
	t.Helper()
	a, err := optimizer.NewAnalysis(q, st, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v, derivation gives %v", label, what, got, want)
		}
	}
	coster := optimizer.Coster{P: optimizer.DefaultCostParams()}
	needed := q.ColumnsNeeded()
	for rel := range a.Rels {
		ri := &a.Rels[rel]
		tb := ri.Table
		nFilters := 0
		for _, f := range q.Filters {
			if f.Col.Rel == rel {
				nFilters++
			}
		}

		var cols []string
		for c := range needed[rel] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		if fmt.Sprint(ri.Needed) != fmt.Sprint(cols) {
			t.Errorf("%s: rel %d Needed = %v, want the sorted referenced columns %v", label, rel, ri.Needed, cols)
		}

		same(fmt.Sprintf("SeqScanCost(%d)", rel), a.SeqScanCost(rel),
			coster.SeqScanCost(storage.TablePages(tb), tb.RowCount, nFilters))

		for _, col := range ri.Interesting {
			want := float64(tb.RowCount) / a.NDV(tb, col)
			if want < 1 {
				want = 1
			}
			same(fmt.Sprintf("LookupRows(%d, %s)", rel, col), a.LookupRows(rel, col), want)
		}

		for _, ix := range probeIndexes(tb, cols, ri.Interesting) {
			indexOnly := true
			for c := range needed[rel] {
				if !ix.HasColumn(c) {
					indexOnly = false
				}
			}
			scanSel, nQuals := 1.0, nFilters
			if s, ok := ri.ColumnSel(ix.LeadColumn()); ok {
				scanSel = s
				nQuals--
			}
			got := a.IndexScanCost(rel, ix)
			if got.IndexOnly != indexOnly {
				t.Errorf("%s: rel %d index %s IndexOnly = %v, want %v", label, rel, ix.Key(), got.IndexOnly, indexOnly)
			}
			pages, perPage := optimizer.HeapShape(tb)
			same(fmt.Sprintf("IndexScanCost(%d, %s)", rel, ix.Key()), got.Cost,
				coster.IndexScanCostOn(tb.RowCount, pages, perPage, ix, scanSel, indexOnly, nQuals))

			lead := ix.LeadColumn()
			match := float64(tb.RowCount) / a.NDV(tb, lead)
			if match < 1 {
				match = 1
			}
			want := coster.LookupCost(tb, ix, match, indexOnly)
			want += match * float64(nFilters) * coster.P.CPUOperatorCost
			same(fmt.Sprintf("LookupCost(%d, %s)", rel, ix.Key()), a.LookupCost(rel, ix, lead), want)
		}
	}
}

// probeIndexes builds, for one relation, a thin index on every referenced
// column and a two-column and a covering index behind every interesting
// order — index-only and heap-fetching scans, filtered and unfiltered
// lead columns.
func probeIndexes(tb *catalog.Table, cols, interesting []string) []*catalog.Index {
	var out []*catalog.Index
	add := func(key ...string) {
		out = append(out, storage.HypotheticalIndex(fmt.Sprintf("probe_%d", len(out)), tb, key))
	}
	for _, c := range cols {
		add(c)
	}
	for _, lead := range interesting {
		covering := []string{lead}
		for _, c := range cols {
			if c != lead {
				covering = append(covering, c)
			}
		}
		if len(covering) > 2 {
			add(covering[:2]...)
		}
		add(covering...)
	}
	return out
}
