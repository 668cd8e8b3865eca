package executor

import (
	"sort"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
)

func TestDebugIndexScanVsSeqScan(t *testing.T) {
	s, db := tinyDB(t)
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[1] // Q2
	t.Logf("SQL: %s", q.SQL)
	a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	ws := whatif.NewSession(s.Catalog)
	// Per-relation: compare seq scan result vs index(-only) scan result.
	for i := range a.Rels {
		ri := &a.Rels[i]
		cols := []string{}
		for _, c := range ri.Needed {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		ix, err := ws.CreateIndex(ri.Table.Name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db, q)
		seqPath := &optimizer.Path{Op: optimizer.OpSeqScan, Rels: optimizer.Single(i), BaseRel: i}
		seqRows, err := ex.exec(seqPath)
		if err != nil {
			t.Fatal(err)
		}
		ixPath := &optimizer.Path{Op: optimizer.OpIndexOnlyScan, Rels: optimizer.Single(i), BaseRel: i, Index: ix}
		ixRows, err := ex.exec(ixPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("rel %d (%s): seq=%d rows, indexonly=%d rows (index %v)",
			i, ri.Table.Name, len(seqRows), len(ixRows), ix.Columns)
		// Compare the needed columns only.
		proj := func(rows [][]int64) [][]int64 {
			var out [][]int64
			for _, r := range rows {
				pr := make([]int64, 0, len(cols))
				for _, c := range cols {
					pr = append(pr, r[ri.Table.ColumnOrdinal(c)])
				}
				out = append(out, pr)
			}
			return canonical(out)
		}
		if err := equalRows(proj(seqRows), proj(ixRows)); err != nil {
			t.Errorf("rel %d (%s): %v", i, ri.Table.Name, err)
		}
	}
	_ = query.Config{}
}
