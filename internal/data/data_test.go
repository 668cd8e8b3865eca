package data

import (
	"testing"

	"github.com/pinumdb/pinum/internal/btree"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/heap"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/workload"
)

func smallStar(t testing.TB) *workload.Star {
	t.Helper()
	s, err := workload.StarSchema(0.0002)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMaterializeRespectsSchema(t *testing.T) {
	s := smallStar(t)
	db, err := Materialize(s.Catalog, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range s.Catalog.Tables() {
		f := db.Tables[tb.Name]
		if f == nil {
			t.Fatalf("table %s not materialised", tb.Name)
		}
		if int64(f.Count()) != tb.RowCount {
			t.Errorf("%s: %d rows, want %d", tb.Name, f.Count(), tb.RowCount)
		}
	}
}

func TestMaterializeHonoursDomainsAndKeys(t *testing.T) {
	s := smallStar(t)
	db, err := Materialize(s.Catalog, 77)
	if err != nil {
		t.Fatal(err)
	}
	fact := s.Catalog.Table("fact")
	f := db.Tables["fact"]
	idOrd := fact.ColumnOrdinal("id")
	var prev int64
	f.Scan(func(_ heap.TID, row []int64) bool {
		if row[idOrd] != prev+1 {
			t.Fatalf("primary key not dense: %d after %d", row[idOrd], prev)
		}
		prev = row[idOrd]
		for ci, col := range fact.Columns {
			if col.Min > 0 && (row[ci] < col.Min || row[ci] > col.Max) && col.Name == "a1" {
				t.Fatalf("fact.%s = %d outside [%d,%d]", col.Name, row[ci], col.Min, col.Max)
			}
		}
		return prev < 100 // sample the first 100 rows
	})

	// Foreign keys must reference existing dimension rows.
	for _, fk := range fact.ForeignKeys {
		ref := s.Catalog.Table(fk.RefTable)
		ord := fact.ColumnOrdinal(fk.Column)
		n := 0
		f.Scan(func(_ heap.TID, row []int64) bool {
			if row[ord] < 1 || row[ord] > ref.RowCount {
				t.Fatalf("%s = %d outside 1..%d", fk.Column, row[ord], ref.RowCount)
			}
			n++
			return n < 200
		})
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	s := smallStar(t)
	a, err := Materialize(s.Catalog, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(s.Catalog, 5)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Tables["dim1_1"], b.Tables["dim1_1"]
	var rowsA, rowsB [][]int64
	fa.Scan(func(_ heap.TID, r []int64) bool {
		rowsA = append(rowsA, append([]int64(nil), r...))
		return len(rowsA) < 50
	})
	fb.Scan(func(_ heap.TID, r []int64) bool {
		rowsB = append(rowsB, append([]int64(nil), r...))
		return len(rowsB) < 50
	})
	for i := range rowsA {
		for j := range rowsA[i] {
			if rowsA[i][j] != rowsB[i][j] {
				t.Fatalf("row %d differs between equal seeds", i)
			}
		}
	}
}

func TestBuildIndexMatchesHeap(t *testing.T) {
	s := smallStar(t)
	db, err := Materialize(s.Catalog, 77)
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Catalog.Table("dim1_2")
	ix := storage.HypotheticalIndex("test_ix", tb, []string{"a1", "id"})
	tree, err := db.BuildIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	var entries int64
	tree.Scan(nil, nil, func(btree.Entry) bool { entries++; return true })
	if entries != tb.RowCount {
		t.Errorf("index has %d entries, want %d", entries, tb.RowCount)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cached by canonical key: the same key under another name reuses the
	// tree.
	other := storage.HypotheticalIndex("other_name", tb, []string{"a1", "id"})
	tree2, err := db.IndexFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if tree2 != tree {
		t.Error("equal-key index rebuilt instead of reused")
	}
}

func TestBuildIndexValidation(t *testing.T) {
	s := smallStar(t)
	db, err := Materialize(s.Catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildIndex(&catalog.Index{Name: "x", Table: "missing", Columns: []string{"id"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.BuildIndex(&catalog.Index{Name: "y", Table: "fact", Columns: []string{"zz"}}); err == nil {
		t.Error("unknown column accepted")
	}
}
