package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// relabel returns q with its relations reordered: relation i of q becomes
// relation perm[i], and every column reference follows it (joins, filters,
// the select list, GROUP BY and ORDER BY keep their own order).
func relabel(q *query.Query, perm []int) *query.Query {
	out := &query.Query{Name: q.Name + "-relabelled", SQL: q.SQL, Rels: make([]query.Rel, len(q.Rels))}
	for i, r := range q.Rels {
		out.Rels[perm[i]] = r
	}
	move := func(c query.ColRef) query.ColRef { return query.ColRef{Rel: perm[c.Rel], Column: c.Column} }
	for _, j := range q.Joins {
		out.Joins = append(out.Joins, query.Join{Left: move(j.Left), Right: move(j.Right)})
	}
	for _, f := range q.Filters {
		f.Col = move(f.Col)
		out.Filters = append(out.Filters, f)
	}
	for _, c := range q.Select {
		out.Select = append(out.Select, move(c))
	}
	for _, c := range q.GroupBy {
		out.GroupBy = append(out.GroupBy, move(c))
	}
	for _, c := range q.OrderBy {
		out.OrderBy = append(out.OrderBy, move(c))
	}
	return out
}

// TestRelabellingInvariance needs no oracle, so it reaches the 17-relation
// chain: numbering a query's relations differently must not change what the
// cheapest plan costs. Every workload.Shapes topology × 4 seeds is planned
// as generated and under a random relation permutation — by a plain
// Optimize with nested loops and by both ExportAll calls of a cache build,
// under the build's configuration — and the best costs must agree within
// 1e-9 relative: the sums run over the relations in another order, so the
// last bits may differ, the plan may not.
func TestRelabellingInvariance(t *testing.T) {
	opts := append([]optimizer.Options{{EnableNestLoop: true}}, buildOptions(false)...)
	checked := 0
	for si, sh := range workload.Shapes {
		for seed := int64(0); seed < 4; seed++ {
			spec := workload.ShapeSpec{Shape: sh, Rels: 5, Density: 0.4, Seed: 700 + 10*int64(si) + seed}
			a, cfg := shapeBuildConfig(t, spec)
			perm := rand.New(rand.NewSource(spec.Seed)).Perm(len(a.Rels))
			pa, err := optimizer.NewAnalysis(relabel(a.Q, perm), nil, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range opts {
				label := fmt.Sprintf("%s-%d/seed=%d/perm=%v/opt=%+v", sh, len(a.Rels), spec.Seed, perm, opt)
				want, err := optimizer.Optimize(a, cfg, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := optimizer.Optimize(pa, cfg, opt)
				if err != nil {
					t.Fatalf("%s: relabelled: %v", label, err)
				}
				if d := math.Abs(got.Best.Cost - want.Best.Cost); d > 1e-9*math.Abs(want.Best.Cost) {
					t.Errorf("%s: best cost %v relabelled, %v as generated (relative gap %.3g)",
						label, got.Best.Cost, want.Best.Cost, d/math.Abs(want.Best.Cost))
				}
				checked++
			}
		}
	}
	if want := len(workload.Shapes) * 4 * len(opts); checked != want {
		t.Fatalf("%d calls compared, want %d", checked, want)
	}
}
