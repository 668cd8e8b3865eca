package costmatrix

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/workload"
)

// fullFold is the full-fold oracle the engine's pruned fold is held to:
// per query, the candidate (nil: none) folded into a copy of the stored
// table in the block of every relation on its table, and every entry
// re-folded by Cache.BestPlan — the engine's pricing before it folded only
// the entries a candidate moves. It returns the weighted total, summed in
// registration order, the per-query costs, and the entry folds the pruned
// fold owes: per entry of a query on the candidate's table, the relations
// on which it reads a slot the candidate lowered.
func fullFold(e *Engine, ix *catalog.Index) (float64, []float64, int64) {
	total, per, owed := 0.0, make([]float64, len(e.queries)), int64(0)
	for qi, qs := range e.queries {
		c := qs.cache
		slots := slices.Clone(qs.slots)
		if ix != nil {
			for rel, r := range c.Q.Rels {
				if r.Table.Name == ix.Table {
					c.A.FoldLeafSlots(slots, rel, ix)
				}
			}
		}
		per[qi], _ = c.BestPlan(slots)
		total += qs.weight * per[qi]
		for i := range c.Plans {
			for _, s := range c.PlanSlots(i) {
				if slots[s] < qs.slots[s] {
					owed++
				}
			}
		}
	}
	return total, per, owed
}

// checkPrunedFold walks a greedy pick sequence on e: after 0, 1, 2 and 3
// applied picks, every candidate's EvaluateCandidate must equal fullFold
// bit for bit and fold exactly the entries fullFold says it owes, and the
// stored total and per-query costs must equal fullFold of the applied set.
// Each step applies the cheapest candidate, as the advisor would. The walk
// must apply at least one pick and owe at least one fold, or it proves
// nothing.
func checkPrunedFold(t *testing.T, e *Engine, pool []*catalog.Index) {
	t.Helper()
	owedAll := int64(0)
	for step := 0; ; step++ {
		want, wantPer, _ := fullFold(e, nil)
		if got := e.TotalCost(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %d picks: total %v, full fold %v", step, got, want)
		}
		for qi, got := range e.QueryCosts() {
			if math.Float64bits(got) != math.Float64bits(wantPer[qi]) {
				t.Fatalf("after %d picks: query %d stored %v, full fold %v", step, qi, got, wantPer[qi])
			}
		}
		pick, pickCost := -1, want
		for k, ix := range pool {
			before := e.Stats().PlanEvals
			got := e.EvaluateCandidate(ix)
			want, _, owed := fullFold(e, ix)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %d picks: EvaluateCandidate(%s) = %v, full fold %v", step, ix.Key(), got, want)
			}
			if folds := e.Stats().PlanEvals - before; folds != owed {
				t.Fatalf("after %d picks: EvaluateCandidate(%s) folded %d entries, the lowered slots imply %d", step, ix.Key(), folds, owed)
			}
			owedAll += owed
			if got < pickCost {
				pick, pickCost = k, got
			}
		}
		if step == 3 || pick < 0 {
			if step == 0 || owedAll == 0 {
				t.Fatalf("vacuous walk: %d picks applied, %d entry folds owed over %d candidates", step, owedAll, len(pool))
			}
			t.Logf("%d picks applied, %d entry folds over %d candidates", step, owedAll, len(pool))
			return
		}
		e.Apply(pool[pick])
	}
}

// TestPrunedFoldMatchesFullFold holds the pruned fold to the full-fold
// oracle on the 10-query star set (built as the server builds it, and
// round-tripped through the snapshot codec as /recommend prices a loaded
// tenant), on every generated shape of TestEveryShapeMatchesReference and
// on the self-join.
func TestPrunedFoldMatchesFullFold(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() []*optimizer.Analysis {
		as := make([]*optimizer.Analysis, len(qs))
		for i, q := range qs {
			if as[i], err = optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams()); err != nil {
				t.Fatal(err)
			}
		}
		return as
	}
	built, err := core.BuildAllSlim(analyze(), s.Catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plancache.Encode(&buf, plancache.NewSnapshot(1, built)); err != nil {
		t.Fatal(err)
	}
	snap, err := plancache.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := plancache.BuildCaches(snap, qs, analyze())
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(qs))
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	starPool := candidatePool(t, s.Catalog.Tables())
	t.Run("star", func(t *testing.T) { checkPrunedFold(t, newEngine(t, built, weights), starPool) })
	t.Run("star-decoded", func(t *testing.T) { checkPrunedFold(t, newEngine(t, decoded, weights), starPool) })

	rng := rand.New(rand.NewSource(20100301))
	var cases []propertyCase
	for _, shape := range workload.Shapes {
		cases = append(cases, shapeCase(t, shape, rng))
	}
	cases = append(cases, selfJoinCase(t, rng))
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			// A single-column index on every column of the query's
			// tables, then the shape's configurations' indexes, multi-column
			// ones included, each once.
			var tables []*catalog.Table
			for _, r := range pc.cache.Q.Rels {
				if !slices.Contains(tables, r.Table) {
					tables = append(tables, r.Table)
				}
			}
			pool := candidatePool(t, tables)
			seen := make(map[string]bool)
			for _, cfg := range pc.cfgs {
				for _, ix := range cfg.Indexes {
					if !seen[ix.Name] {
						seen[ix.Name] = true
						pool = append(pool, ix)
					}
				}
			}
			checkPrunedFold(t, newEngine(t, []*inum.Cache{pc.cache}, []float64{1}), pool)
		})
	}
}
