package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
)

func TestStarSchemaShape(t *testing.T) {
	s, err := StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dims) != 28 {
		t.Errorf("%d dimension tables, want 28 (paper §VI-A)", len(s.Dims))
	}
	if s.Fact == nil || s.Fact.RowCount != factRowsScale1 {
		t.Error("fact table missing or mis-sized")
	}
	// Every foreign key resolves and has matching NDV.
	for _, tb := range s.Catalog.Tables() {
		for _, fk := range tb.ForeignKeys {
			ref := s.Catalog.Table(fk.RefTable)
			if ref == nil {
				t.Fatalf("%s.%s references unknown %s", tb.Name, fk.Column, fk.RefTable)
			}
			if col := tb.Column(fk.Column); col.NDV != ref.RowCount {
				t.Errorf("%s.%s NDV %d != %s rows %d", tb.Name, fk.Column, col.NDV, ref.Name, ref.RowCount)
			}
		}
	}
	// The database totals ≈10 GB at scale 1.
	var bytes int64
	for _, tb := range s.Catalog.Tables() {
		bytes += storage.TablePages(tb) * storage.PageSize
	}
	gb := storage.GigaBytes(bytes)
	if gb < 8 || gb > 12 {
		t.Errorf("database is %.1f GB, want ≈10 GB", gb)
	}
}

func TestStarSchemaScaleValidation(t *testing.T) {
	if _, err := StarSchema(0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := StarSchema(-1); err == nil {
		t.Error("negative scale accepted")
	}
	small, err := StarSchema(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if small.Fact.RowCount >= factRowsScale1/500 {
		t.Error("scaling did not reduce the fact table")
	}
}

func TestQueriesDeterministicAndValid(t *testing.T) {
	s, err := StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(q1) != 10 {
		t.Fatalf("%d queries, want 10", len(q1))
	}
	for i := range q1 {
		if q1[i].SQL != q2[i].SQL {
			t.Errorf("query %d not deterministic", i)
		}
		if err := q1[i].Validate(); err != nil {
			t.Errorf("query %d invalid: %v", i, err)
		}
		if !q1[i].JoinGraphConnected() {
			t.Errorf("query %d disconnected", i)
		}
		if len(q1[i].OrderBy) == 0 {
			t.Errorf("query %d misses ORDER BY (paper: all queries order)", i)
		}
	}
	// Sizes ascend from 2 to 7 tables.
	if len(q1[0].Rels) != 2 || len(q1[9].Rels) != 7 {
		t.Errorf("table counts: Q1=%d Q10=%d", len(q1[0].Rels), len(q1[9].Rels))
	}
	// Different seeds produce different workloads.
	q3, err := s.Queries(1)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range q1 {
		if q1[i].SQL == q3[i].SQL {
			same++
		}
	}
	if same == len(q1) {
		t.Error("seed does not vary the workload")
	}
}

func TestFiltersAreOnePercentSelective(t *testing.T) {
	s, err := StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		for _, f := range q.Filters {
			span := f.Value2 - f.Value + 1
			sel := float64(span) / float64(AttrDomain)
			if sel < 0.005 || sel > 0.02 {
				t.Errorf("%s: filter %s has %.3f selectivity, want ≈1%%", q.Name, f, sel)
			}
		}
	}
}

func TestQ5AnalogueStructure(t *testing.T) {
	s, err := StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Q5Analogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 6 {
		t.Errorf("%d relations, want 6 (TPC-H Q5 joins 6 tables)", len(q.Rels))
	}
	if got := q.ComboCount(); got != 648 {
		t.Errorf("combo count %d, want 648", got)
	}
	if len(q.GroupBy) == 0 || len(q.OrderBy) == 0 {
		t.Error("Q5 analogue must group and order")
	}
}

func TestRandomAtomicConfigIsAtomic(t *testing.T) {
	s, err := StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(qs[8], s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	ws := whatif.NewSession(s.Catalog)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		cfg, err := RandomAtomicConfig(rng, a, ws, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Atomic(qs[8]) {
			t.Fatalf("trial %d: config not atomic: %s", i, cfg)
		}
		for _, ix := range cfg.Indexes {
			tb := s.Catalog.Table(ix.Table)
			for _, col := range ix.Columns {
				if tb.Column(col) == nil {
					t.Fatalf("index column %s.%s unknown", ix.Table, col)
				}
			}
		}
	}
}

func TestShapeQueryTopologies(t *testing.T) {
	for _, sh := range Shapes {
		for _, n := range []int{2, 4, 7} {
			spec := ShapeSpec{Shape: sh, Rels: n, Density: 0.5, Seed: int64(31*n) + int64(sh)}
			cat, q, err := ShapeQuery(spec)
			if err != nil {
				t.Fatalf("%s/%d: %v", sh, n, err)
			}
			wantRels := n
			switch sh {
			case ShapeWideChain:
				wantRels = 17 // clamped up past the packed 16-relation cap
			case ShapeWideOrders:
				wantRels = 2
			case ShapeWideGroup:
				wantRels = 3
			}
			if len(q.Rels) != wantRels {
				t.Fatalf("%s/%d: %d relations, want %d", sh, n, len(q.Rels), wantRels)
			}
			if err := q.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", sh, n, err)
			}
			if !q.JoinGraphConnected() {
				t.Fatalf("%s/%d: generated query disconnected", sh, n)
			}
			wantJoins := -1
			switch sh {
			case ShapeChain, ShapeStar, ShapeSnowflake:
				wantJoins = n - 1
			case ShapeCycle:
				wantJoins = n
				if n == 2 {
					wantJoins = 1 // the 2-relation cycle degenerates to the chain
				}
			case ShapeClique:
				wantJoins = n * (n - 1) / 2
			case ShapeWideChain, ShapeWideGroup:
				wantJoins = wantRels - 1
			case ShapeWideOrders:
				wantJoins = wideJoinCols
			}
			if wantJoins >= 0 && len(q.Joins) != wantJoins {
				t.Errorf("%s/%d: %d joins, want %d", sh, n, len(q.Joins), wantJoins)
			}
			if sh == ShapeRandom && (len(q.Joins) < n-1 || len(q.Joins) > n*(n-1)/2) {
				t.Errorf("%s/%d: %d joins outside [n-1, n(n-1)/2]", sh, n, len(q.Joins))
			}
			// Every join hangs an fk on the lower-indexed relation and
			// probes the id of the higher one.
			for _, j := range q.Joins {
				if j.Left.Rel >= j.Right.Rel || j.Right.Column != "id" {
					t.Errorf("%s/%d: unexpected join orientation %s", sh, n, j)
				}
			}
			// Configurations only reference real columns.
			rng := rand.New(rand.NewSource(5))
			for _, cfg := range ShapeConfigs(rng, cat, q, 3) {
				for _, ix := range cfg.Indexes {
					tb := cat.Table(ix.Table)
					if tb == nil {
						t.Fatalf("%s/%d: config index on unknown table %s", sh, n, ix.Table)
					}
					for _, col := range ix.Columns {
						if tb.Column(col) == nil {
							t.Fatalf("%s/%d: config column %s.%s unknown", sh, n, ix.Table, col)
						}
					}
				}
			}
		}
	}
}

func TestShapeQueryDeterministic(t *testing.T) {
	spec := ShapeSpec{Shape: ShapeRandom, Rels: 6, Density: 0.4, Seed: 99}
	_, q1, err := ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, q2, err := ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(q1.Joins) != fmt.Sprint(q2.Joins) ||
		fmt.Sprint(q1.Filters) != fmt.Sprint(q2.Filters) ||
		fmt.Sprint(q1.GroupBy) != fmt.Sprint(q2.GroupBy) ||
		fmt.Sprint(q1.OrderBy) != fmt.Sprint(q2.OrderBy) {
		t.Error("same spec produced different queries")
	}
	spec.Seed = 100
	_, q3, err := ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(q1.Joins) == fmt.Sprint(q3.Joins) &&
		fmt.Sprint(q1.Filters) == fmt.Sprint(q3.Filters) {
		t.Error("seed does not vary the generated query")
	}
}

func TestShapeDensityBounds(t *testing.T) {
	// Density 0 on the random shape yields a tree; density 1 the clique.
	_, tree, err := ShapeQuery(ShapeSpec{Shape: ShapeRandom, Rels: 7, Density: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Joins) != 6 {
		t.Errorf("density 0: %d joins, want 6 (spanning tree)", len(tree.Joins))
	}
	_, clique, err := ShapeQuery(ShapeSpec{Shape: ShapeRandom, Rels: 7, Density: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(clique.Joins) != 21 {
		t.Errorf("density 1: %d joins, want 21 (clique)", len(clique.Joins))
	}
}
