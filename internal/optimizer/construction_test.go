// Checks on the cache-construction calls (the two ExportAll modes core.Build
// issues per query) beyond planner-vs-reference equivalence: the hoisted
// sort terms, the two key lanes against each other, and the benchmark's own
// design shapes against the reference.
package optimizer_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// buildOptions are the two option sets of core.Build; precise adds the
// PreciseNLJ refinement (core.BuildPrecise).
func buildOptions(precise bool) []optimizer.Options {
	return []optimizer.Options{
		{ExportAll: true, PreciseNLJ: precise},
		{EnableNestLoop: true, ExportAll: true, PreciseNLJ: precise, PaperPrune: !precise},
	}
}

// everyShape is one mid-sized member per workload.Shapes topology,
// wide-chain's 17 relations included.
func everyShape() []workload.ShapeSpec {
	specs := make([]workload.ShapeSpec, 0, len(workload.Shapes))
	for i, sh := range workload.Shapes {
		specs = append(specs, workload.ShapeSpec{Shape: sh, Rels: 5, Density: 0.4, Seed: int64(300 + i)})
	}
	return specs
}

// shapeBuildConfig is the configuration a cache build plans under. A wide
// chain gets indexes on its first three relations only: ExportAll's
// retained set is an antichain over per-relation leaf choices, exponential
// in the number of indexed relations (see TestWideChainFastPath).
func shapeBuildConfig(t testing.TB, spec workload.ShapeSpec) (*optimizer.Analysis, *query.Config) {
	t.Helper()
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.ShapeAllOrdersConfig(cat, q)
	if len(q.Rels) > 16 {
		head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
		all := cfg.Indexes
		cfg = &query.Config{}
		for _, ix := range all {
			if head[ix.Table] {
				cfg.Indexes = append(cfg.Indexes, ix)
			}
		}
	}
	return a, cfg
}

// TestSortCostHoistBitIdentical recomputes, per node of every exported plan
// of every shape, what joinPaths hoisted: a sort enforcer costs exactly
// Coster.SortCost of its input's rows on top of its input, and a merge join
// exactly its (possibly sorted) inputs plus Coster.MergeJoinCost — the
// values a per-candidate call produced before the sort terms were computed
// once per path.
func TestSortCostHoistBitIdentical(t *testing.T) {
	for _, spec := range everyShape() {
		a, cfg := shapeBuildConfig(t, spec)
		sorts, merges := 0, 0
		var walk func(p *optimizer.Path)
		walk = func(p *optimizer.Path) {
			if p == nil {
				return
			}
			switch p.Op {
			case optimizer.OpSort:
				sorts++
				sc := a.Coster.SortCost(p.Child.Rows)
				if math.Float64bits(p.Cost) != math.Float64bits(p.Child.Cost+sc) ||
					math.Float64bits(p.Internal) != math.Float64bits(p.Child.Internal+sc) {
					t.Fatalf("%s: sort over %v rows costs (%v, %v), want child (%v, %v) + %v",
						spec.Shape, p.Child.Rows, p.Cost, p.Internal, p.Child.Cost, p.Child.Internal, sc)
				}
			case optimizer.OpMergeJoin:
				merges++
				mc := a.Coster.MergeJoinCost(p.Outer.Rows, p.Inner.Rows, p.Rows)
				if math.Float64bits(p.Cost) != math.Float64bits(p.Outer.Cost+p.Inner.Cost+mc) ||
					math.Float64bits(p.Internal) != math.Float64bits(p.Outer.Internal+p.Inner.Internal+mc) {
					t.Fatalf("%s: merge join costs (%v, %v), want inputs (%v, %v) + (%v, %v) + %v", spec.Shape,
						p.Cost, p.Internal, p.Outer.Cost, p.Outer.Internal, p.Inner.Cost, p.Inner.Internal, mc)
				}
			}
			walk(p.Outer)
			walk(p.Inner)
			walk(p.Child)
		}
		for _, opt := range buildOptions(false) {
			res, err := optimizer.Optimize(a, cfg, opt)
			if err != nil {
				t.Fatalf("%s: %v", spec.Shape, err)
			}
			for _, p := range res.Exported {
				walk(p)
			}
		}
		if sorts == 0 || merges == 0 {
			t.Errorf("%s: exported plans hold %d sorts and %d merge joins; the check needs both", spec.Shape, sorts, merges)
		}
	}
}

// assertSameResult requires two fast-planner results to agree exactly:
// export sequence, per-plan cost decomposition and every counter.
func assertSameResult(t *testing.T, label string, got, want *optimizer.Result) {
	t.Helper()
	if len(got.Exported) != len(want.Exported) {
		t.Fatalf("%s: exported %d plans, want %d", label, len(got.Exported), len(want.Exported))
	}
	for i := range got.Exported {
		g, w := got.Exported[i], want.Exported[i]
		if g.Signature() != w.Signature() {
			t.Fatalf("%s: export sequence diverges at %d:\n  got:  %s\n  want: %s", label, i, g.Signature(), w.Signature())
		}
		if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) ||
			math.Float64bits(g.Internal) != math.Float64bits(w.Internal) ||
			math.Float64bits(g.LeafCost) != math.Float64bits(w.LeafCost) {
			t.Fatalf("%s: plan %d costs (%v, %v, %v), want (%v, %v, %v)", label, i,
				g.Cost, g.Internal, g.LeafCost, w.Cost, w.Internal, w.LeafCost)
		}
		if !reflect.DeepEqual(g.Leaves, w.Leaves) || !reflect.DeepEqual(g.Order, w.Order) {
			t.Fatalf("%s: plan %d requires %v in order %v, want %v in order %v", label, i, g.Leaves, g.Order, w.Leaves, w.Order)
		}
	}
	if !reflect.DeepEqual(got.AccessCosts, want.AccessCosts) {
		t.Fatalf("%s: access costs differ:\n  got:  %+v\n  want: %+v", label, got.AccessCosts, want.AccessCosts)
	}
	if got.Best.Signature() != want.Best.Signature() || math.Float64bits(got.Best.Cost) != math.Float64bits(want.Best.Cost) {
		t.Fatalf("%s: best plan differs", label)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: counters differ:\n  got:  %+v\n  want: %+v", label, got.Stats, want.Stats)
	}
}

// TestKeyLanesAgree plans every shape the packed lane accepts through both
// key lanes — the wide one forced by clearing the analysis's packed verdict
// — under the construction option sets with and without PreciseNLJ: the
// lanes must export the same plans in the same order at the same costs and
// count the same work. Both lanes stay in the tree (README "Why two key
// lanes"), so nothing else holds them to each other
// except through the reference planner, which stops at 16 relations. The
// design-sized instances run the two construction modes; PreciseNLJ, which
// retains path sets that take either lane seconds at that size, runs on
// the small ones.
func TestKeyLanesAgree(t *testing.T) {
	specs := append([]workload.ShapeSpec(nil), designSpecs[:6]...)
	for i, sh := range workload.Shapes[:6] {
		n := 5
		if sh == workload.ShapeClique {
			n = 4
		}
		specs = append(specs, workload.ShapeSpec{Shape: sh, Rels: n, Density: 0.7, Seed: int64(400 + i)})
	}
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%d", spec.Shape, spec.Rels), func(t *testing.T) {
			t.Parallel()
			packed, cfg := shapeBuildConfig(t, spec)
			wide, _ := shapeBuildConfig(t, spec)
			optimizer.ForceWideLane(wide)
			for _, precise := range []bool{false, true} {
				if precise && spec.Seed < 400 {
					continue
				}
				for _, opt := range buildOptions(precise) {
					want, err := optimizer.Optimize(packed, cfg, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := optimizer.Optimize(wide, cfg, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, fmt.Sprintf("%s-%d/opt=%+v", spec.Shape, spec.Rels, opt), got, want)
				}
			}
		})
	}
}

// dominates states the §V-D batch rule between two plans of one relation
// set under opt: a's metric (total cost under PaperPrune, internal cost
// otherwise) is no larger, its order satisfies b's and its leaf combo
// subsumes b's.
func dominates(opt optimizer.Options, a, b *optimizer.Path) bool {
	if opt.PaperPrune {
		return a.Cost <= b.Cost && optimizer.OrderSatisfies(a.Order, b.Order) &&
			optimizer.ComboSubsumesByColumn(a.Leaves, b.Leaves, b.Rels)
	}
	return a.Internal <= b.Internal && optimizer.OrderSatisfies(a.Order, b.Order) &&
		optimizer.ComboSubsumes(a.Leaves, b.Leaves, b.Rels, opt.PreciseNLJ)
}

// TestExportIsAntichain needs no second planner, so it reaches the
// 17-relation chain: under both construction modes, through the lane the
// query selects and — where the packed lane is the choice — through the
// wide lane too, no exported plan is dominated by another, and pruning the
// exported sequence again in arrival order (dominated arrivals dropped,
// dominated incumbents evicted) returns it unchanged.
func TestExportIsAntichain(t *testing.T) {
	specs := append([]workload.ShapeSpec{{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42}}, designSpecs...)
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%d", spec.Shape, spec.Rels), func(t *testing.T) {
			t.Parallel()
			a, cfg := shapeBuildConfig(t, spec)
			lanes := []*optimizer.Analysis{a}
			if len(a.Rels) <= 16 && spec.Shape != workload.ShapeWideOrders && spec.Shape != workload.ShapeWideGroup {
				wide, _ := shapeBuildConfig(t, spec)
				optimizer.ForceWideLane(wide)
				lanes = append(lanes, wide)
			}
			for li, lane := range lanes {
				for _, opt := range buildOptions(false) {
					res, err := optimizer.Optimize(lane, cfg, opt)
					if err != nil {
						t.Fatal(err)
					}
					var kept []*optimizer.Path
					for i, p := range res.Exported {
						for j, q := range res.Exported {
							if i != j && dominates(opt, q, p) {
								t.Fatalf("lane %d opt=%+v: exported plan %d (%s) is dominated by plan %d (%s)",
									li, opt, i, p.Signature(), j, q.Signature())
							}
						}
						kept = slices.DeleteFunc(kept, func(q *optimizer.Path) bool { return dominates(opt, p, q) })
						if !slices.ContainsFunc(kept, func(q *optimizer.Path) bool { return dominates(opt, q, p) }) {
							kept = append(kept, p)
						}
					}
					if !slices.Equal(kept, res.Exported) {
						t.Fatalf("lane %d opt=%+v: re-pruning %d exported plans keeps %d", li, opt, len(res.Exported), len(kept))
					}
				}
			}
		})
	}
}

// designSpecs are the benchmark's design-batch shape queries
// (benchmark/w_batch.go), spec for spec. random6 creates the most slots of
// the eight — 56 619 across its join relations in the two calls — and so is
// the one that grows the key table through several doublings.
var designSpecs = []workload.ShapeSpec{
	{Shape: workload.ShapeChain, Rels: 7, Seed: 42},
	{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 42},
	{Shape: workload.ShapeStar, Rels: 7, Seed: 42},
	{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: 42},
	{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 42},
	{Shape: workload.ShapeCycle, Rels: 6, Seed: 42},
	{Shape: workload.ShapeWideOrders, Seed: 42},
	{Shape: workload.ShapeWideGroup, Seed: 42},
}

// TestDesignShapesMatchReference pins the exact optimizer calls the
// benchmark's build_p50_ms times — core.BuildSlim's two modes under its
// all-orders configuration on the eight design shapes — against
// OptimizeReference.
func TestDesignShapesMatchReference(t *testing.T) {
	for _, spec := range designSpecs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%d", spec.Shape, spec.Rels), func(t *testing.T) {
			cat, q, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			if testing.Short() && len(q.Joins) > 6 {
				t.Skip("dense design shapes skipped in -short mode")
			}
			t.Parallel()
			a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := inum.AllOrdersConfig(a, whatif.NewSession(cat))
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range buildOptions(false) {
				assertPlannersAgree(t, fmt.Sprintf("%s/opt=%+v", q.Name, opt), a, cfg, opt)
			}
		})
	}
}

// fmtSignature is Path.Signature as it was first written, through fmt; the
// served implementation appends the same bytes without it.
func fmtSignature(b *strings.Builder, p *optimizer.Path) {
	switch p.Op {
	case optimizer.OpSeqScan, optimizer.OpIndexScan, optimizer.OpIndexOnlyScan:
		switch req := p.Leaves[p.BaseRel]; req.Mode {
		case optimizer.AccessOrdered:
			fmt.Fprintf(b, "ord(%d:%s)", p.BaseRel, req.Col)
		case optimizer.AccessLookup:
			fmt.Fprintf(b, "lookup(%d:%s)", p.BaseRel, req.Col)
		default:
			fmt.Fprintf(b, "any(%d)", p.BaseRel)
		}
	case optimizer.OpSort:
		keys := make([]string, len(p.SortKeys))
		for i, k := range p.SortKeys {
			keys[i] = k.String()
		}
		fmt.Fprintf(b, "sort[%s](", strings.Join(keys, ","))
		fmtSignature(b, p.Child)
		b.WriteString(")")
	case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNestLoop, optimizer.OpNestLoopMat:
		b.WriteString(map[optimizer.Op]string{optimizer.OpHashJoin: "hj(", optimizer.OpMergeJoin: "mj(",
			optimizer.OpNestLoop: "nl(", optimizer.OpNestLoopMat: "nlm("}[p.Op])
		fmtSignature(b, p.Outer)
		b.WriteString(",")
		fmtSignature(b, p.Inner)
		b.WriteString(")")
	case optimizer.OpHashAgg, optimizer.OpSortedAgg:
		b.WriteString(map[optimizer.Op]string{optimizer.OpHashAgg: "hagg(", optimizer.OpSortedAgg: "gagg("}[p.Op])
		fmtSignature(b, p.Child)
		b.WriteString(")")
	}
}

// TestSignatureMatchesFmtRendering holds Path.Signature — the identity plan
// caches dedup on — to its fmt-rendered definition on every exported plan
// of every shape.
func TestSignatureMatchesFmtRendering(t *testing.T) {
	for _, spec := range everyShape() {
		a, cfg := shapeBuildConfig(t, spec)
		for _, opt := range buildOptions(false) {
			res, err := optimizer.Optimize(a, cfg, opt)
			if err != nil {
				t.Fatalf("%s: %v", spec.Shape, err)
			}
			for _, p := range res.Exported {
				var want strings.Builder
				fmtSignature(&want, p)
				if got := p.Signature(); got != want.String() {
					t.Fatalf("%s: Signature() = %s\nfmt rendering  = %s", spec.Shape, got, want.String())
				}
			}
		}
	}
}
