// Shape-diverse planner equivalence: the fast (DPccp) planner against the
// reference dense sweep over the internal/workload shape generator's
// topologies — snowflake, cycle, clique, and random connected graphs of
// tunable density — across every Options combination (plans compared under
// the nine the planner implements, refusals asserted for the rest) and
// random configurations. This file lives in the external test package because
// package workload imports the optimizer; the star/chain/self-join suite
// over the paper's schema remains in equivalence_test.go.
package optimizer_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// shapeOptions enumerates all 32 Options values, refused ones included.
func shapeOptions() []optimizer.Options {
	var out []optimizer.Options
	for i := 0; i < 32; i++ {
		out = append(out, optionsFromBits(uint8(i)))
	}
	return out
}

// optionsFromBits decodes the low five bits into an Options value (shared
// with the fuzz target's input decoder).
func optionsFromBits(b uint8) optimizer.Options {
	return optimizer.Options{
		EnableNestLoop:     b&1 != 0,
		ExportAll:          b&2 != 0,
		CollectAccessCosts: b&4 != 0,
		PreciseNLJ:         b&8 != 0,
		PaperPrune:         b&16 != 0,
	}
}

// assertPlannersAgree runs both planners and requires bit-identical best
// cost, export sequence and per-plan cost decomposition, access-cost
// tables, and work counters — or, for an option set outside
// optimizer.ValidOptions, that both refuse it — the external-package mirror
// of assertEquivalent in equivalence_test.go.
func assertPlannersAgree(t *testing.T, label string, a *optimizer.Analysis, cfg *query.Config, opt optimizer.Options) {
	t.Helper()
	fast, ferr := optimizer.Optimize(a, cfg, opt)
	ref, rerr := optimizer.OptimizeReference(a, cfg, opt)
	assertRefusedIffInvalid(t, label, opt, ferr, rerr)
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("%s: error disagreement: fast=%v reference=%v", label, ferr, rerr)
	}
	if ferr != nil {
		if ferr.Error() != rerr.Error() {
			t.Fatalf("%s: error text differs:\n  fast: %v\n  ref:  %v", label, ferr, rerr)
		}
		return
	}
	if math.Float64bits(fast.Best.Cost) != math.Float64bits(ref.Best.Cost) ||
		math.Float64bits(fast.Best.Internal) != math.Float64bits(ref.Best.Internal) {
		t.Fatalf("%s: best cost differs: fast (%v, %v) reference (%v, %v)",
			label, fast.Best.Cost, fast.Best.Internal, ref.Best.Cost, ref.Best.Internal)
	}
	if fast.Best.Signature() != ref.Best.Signature() {
		t.Fatalf("%s: best plan differs:\n  fast: %s\n  ref:  %s", label, fast.Best.Signature(), ref.Best.Signature())
	}
	if opt.ExportAll {
		if len(fast.Exported) != len(ref.Exported) {
			t.Fatalf("%s: exported %d plans, reference exported %d", label, len(fast.Exported), len(ref.Exported))
		}
		for i := range fast.Exported {
			fp, rp := fast.Exported[i], ref.Exported[i]
			if fp.Signature() != rp.Signature() {
				t.Fatalf("%s: export sequence diverges at %d:\n  fast: %s\n  ref:  %s",
					label, i, fp.Signature(), rp.Signature())
			}
			if math.Float64bits(fp.Internal) != math.Float64bits(rp.Internal) ||
				math.Float64bits(fp.Cost) != math.Float64bits(rp.Cost) ||
				math.Float64bits(fp.LeafCost) != math.Float64bits(rp.LeafCost) {
				t.Fatalf("%s: plan %s costs differ: fast (%v, %v, %v) reference (%v, %v, %v)",
					label, rp.Signature(), fp.Cost, fp.Internal, fp.LeafCost, rp.Cost, rp.Internal, rp.LeafCost)
			}
		}
	}
	if opt.CollectAccessCosts {
		if len(fast.AccessCosts) != len(ref.AccessCosts) {
			t.Fatalf("%s: access-cost table sizes differ: %d vs %d", label, len(fast.AccessCosts), len(ref.AccessCosts))
		}
		for i := range fast.AccessCosts {
			fa, ra := fast.AccessCosts[i], ref.AccessCosts[i]
			if fa.Rel != ra.Rel || fa.Index != ra.Index || fa.IndexOnly != ra.IndexOnly ||
				fa.OrderCol != ra.OrderCol ||
				math.Float64bits(fa.ScanCost) != math.Float64bits(ra.ScanCost) ||
				math.Float64bits(fa.LookupCost) != math.Float64bits(ra.LookupCost) {
				t.Fatalf("%s: access-cost row %d differs: fast %+v reference %+v", label, i, fa, ra)
			}
		}
	}
	fs, rs := fast.Stats, ref.Stats
	if fs.PathsConsidered != rs.PathsConsidered || fs.PathsRetained != rs.PathsRetained ||
		fs.PathsPruned != rs.PathsPruned || fs.JoinRels != rs.JoinRels || fs.MasksSkipped != rs.MasksSkipped {
		t.Fatalf("%s: planner counters differ:\n  fast: %+v\n  ref:  %+v", label, fs, rs)
	}
	if fs.EnumStates > rs.EnumStates {
		t.Fatalf("%s: DPccp visited more DP states than the dense sweep: %d > %d",
			label, fs.EnumStates, rs.EnumStates)
	}
}

// assertRefusedIffInvalid requires every error of errs to wrap
// optimizer.ErrOptions when opt is not one of the nine valid sets, and none
// to when it is.
func assertRefusedIffInvalid(t *testing.T, label string, opt optimizer.Options, errs ...error) {
	t.Helper()
	valid := slices.Contains(optimizer.ValidOptions, opt)
	for _, err := range errs {
		if valid == errors.Is(err, optimizer.ErrOptions) {
			t.Fatalf("%s: valid=%v, but the call returned %v", label, valid, err)
		}
	}
}

// shapeAnalysis generates one shape query and its analysis.
func shapeAnalysis(t testing.TB, spec workload.ShapeSpec) (*optimizer.Analysis, []*query.Config, *rand.Rand) {
	t.Helper()
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	return a, workload.ShapeConfigs(rng, cat, q, 2), rng
}

func TestPlannerEquivalenceShapes(t *testing.T) {
	// Sizes are chosen so the full 32-option sweep stays fast: the dense
	// shapes (clique, high-density random, 7-cycle) explode the ExportAll ×
	// PreciseNLJ path count in *both* planners, so the biggest instances
	// are exercised once with the cache-construction options in
	// TestShapeEquivalenceLargeInstances rather than under all nine planned
	// sets here.
	cases := []struct {
		shape workload.Shape
		rels  []int
	}{
		{workload.ShapeChain, []int{3, 5, 7}},
		{workload.ShapeCycle, []int{3, 5}},
		{workload.ShapeSnowflake, []int{4, 7}},
		{workload.ShapeStar, []int{4, 6}},
		{workload.ShapeClique, []int{3, 4}},
		{workload.ShapeRandom, []int{4, 5}},
	}
	trials := 2
	if testing.Short() {
		trials = 1
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.shape.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range tc.rels {
				for trial := 0; trial < trials; trial++ {
					spec := workload.ShapeSpec{
						Shape: tc.shape, Rels: n,
						Density: 0.25 + 0.35*float64(trial),
						Seed:    int64(1000*n + trial),
					}
					a, cfgs, _ := shapeAnalysis(t, spec)
					for ci, cfg := range cfgs {
						for _, opt := range shapeOptions() {
							label := fmt.Sprintf("%s/rels=%d/trial=%d/cfg=%d/opt=%+v", tc.shape, n, trial, ci, opt)
							assertPlannersAgree(t, label, a, cfg, opt)
						}
					}
				}
			}
		})
	}
}

// TestWideShapeEquivalence pins the wide fast lane — ExportAll bookkeeping
// through variable-width string keys — bit-identical to the reference
// planner across every Options combination, on both kinds of packing
// overflow the reference can still plan: >63 interesting orders on one
// relation (wide-orders) and >8 grouping columns (wide-group). The >16-
// relation overflow has no reference run; TestWideChainFastPath covers it.
func TestWideShapeEquivalence(t *testing.T) {
	specs := []workload.ShapeSpec{
		{Shape: workload.ShapeWideOrders, Seed: 91},
		{Shape: workload.ShapeWideGroup, Seed: 92},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Shape.String(), func(t *testing.T) {
			t.Parallel()
			a, cfgs, _ := shapeAnalysis(t, spec)
			for ci, cfg := range cfgs {
				if testing.Short() && ci > 0 {
					break
				}
				for _, opt := range shapeOptions() {
					label := fmt.Sprintf("%s/cfg=%d/opt=%+v", spec.Shape, ci, opt)
					assertPlannersAgree(t, label, a, cfg, opt)
				}
			}
		})
	}
}

// TestWideChainFastPath pins the third packing overflow — more relations
// than planKey's 16 — on the fast planner alone: the reference sweep is
// infeasible past 16 relations (and says so), while the fast planner's
// connectivity-aware enumeration plans and exports normally through the
// wide lane.
func TestWideChainFastPath(t *testing.T) {
	cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	// Index only the head of the chain: ExportAll's retained set is an
	// antichain over per-relation leaf choices, so indexing all 17 relations
	// would make its size exponential in the chain length (in any planner).
	// Three indexed relations keep the combo product small while still
	// driving multi-combo, multi-order traffic through the wide key lane.
	full := workload.ShapeAllOrdersConfig(cat, q)
	cfg := &query.Config{}
	head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
	for _, ix := range full.Indexes {
		if head[ix.Table] {
			cfg.Indexes = append(cfg.Indexes, ix)
		}
	}
	for _, opt := range []optimizer.Options{
		{EnableNestLoop: true, ExportAll: true},
		{EnableNestLoop: true, ExportAll: true, PreciseNLJ: true},
	} {
		res, err := optimizer.Optimize(a, cfg, opt)
		if err != nil {
			t.Fatalf("opt=%+v: %v", opt, err)
		}
		if res.Stats.EnumStates == 0 {
			t.Fatalf("opt=%+v: fast planner enumerated no DP states", opt)
		}
		if len(res.Exported) == 0 {
			t.Fatalf("opt=%+v: no exported plans", opt)
		}
		full := res.Best.Rels.Count()
		if full != len(q.Rels) {
			t.Fatalf("opt=%+v: best plan joins %d of %d relations", opt, full, len(q.Rels))
		}
	}
	if _, err := optimizer.OptimizeReference(a, cfg, optimizer.Options{ExportAll: true}); err == nil {
		t.Fatal("reference planner unexpectedly accepted a 17-relation query")
	}
}

// TestShapeEquivalenceLargeInstances runs the biggest instance of each
// dense topology once, under the exact option sets cache construction uses
// (the two core.Build calls), instead of the full 32-option sweep the
// smaller instances get above. PreciseNLJ is deliberately absent here: on
// dense 6-7-relation graphs it retains path sets big enough to turn the
// reference planner's all-pairs subsumption scan into minutes of work (in
// both planners equally — the sweep above covers it at smaller sizes).
func TestShapeEquivalenceLargeInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("large shape instances skipped in -short mode")
	}
	specs := []workload.ShapeSpec{
		{Shape: workload.ShapeCycle, Rels: 7, Seed: 71},
		{Shape: workload.ShapeClique, Rels: 5, Seed: 72},
		{Shape: workload.ShapeRandom, Rels: 6, Density: 0.5, Seed: 73},
	}
	buildOpts := []optimizer.Options{
		{EnableNestLoop: false, ExportAll: true},
		{EnableNestLoop: true, ExportAll: true, PaperPrune: true},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%d", spec.Shape, spec.Rels), func(t *testing.T) {
			t.Parallel()
			a, cfgs, _ := shapeAnalysis(t, spec)
			for _, opt := range buildOpts {
				label := fmt.Sprintf("%s-%d/opt=%+v", spec.Shape, spec.Rels, opt)
				assertPlannersAgree(t, label, a, cfgs[0], opt)
			}
		})
	}
}

// TestChainEnumerationSaving pins the PR's acceptance criterion: on a
// 7-relation chain the connectivity-aware enumeration visits at least 5x
// fewer DP states than the dense sweep. (The analytic counts are 56 csg-cmp
// pairs against 966 dense splits — a 17x reduction.)
func TestChainEnumerationSaving(t *testing.T) {
	a, cfgs, _ := shapeAnalysis(t, workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: 7})
	opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
	fast, err := optimizer.Optimize(a, cfgs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := optimizer.OptimizeReference(a, cfgs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.EnumStates != 56 {
		t.Errorf("7-chain csg-cmp pairs: got %d, want 56", fast.Stats.EnumStates)
	}
	if ref.Stats.EnumStates != 966 {
		t.Errorf("7-chain dense splits: got %d, want 966", ref.Stats.EnumStates)
	}
	if fast.Stats.EnumStates*5 > ref.Stats.EnumStates {
		t.Errorf("enumeration saving below 5x: fast %d vs dense %d",
			fast.Stats.EnumStates, ref.Stats.EnumStates)
	}
	if fast.Stats.MasksSkipped != ref.Stats.MasksSkipped {
		t.Errorf("masks skipped differ: fast %d reference %d",
			fast.Stats.MasksSkipped, ref.Stats.MasksSkipped)
	}
	// A 7-chain's connected subsets of ≥2 relations are its 21 intervals,
	// so 99 of the dense sweep's 120 non-trivial masks are dead.
	if fast.Stats.MasksSkipped != 120-21 {
		t.Errorf("7-chain masks skipped: got %d, want 99", fast.Stats.MasksSkipped)
	}
}

// TestDisconnectedGraphParity drops join clauses from generated queries so
// the join graph falls apart, and requires both planners to fail with the
// same error. The fast planner detects this with an upfront reachability
// check instead of discovering an empty full-mask slot.
func TestDisconnectedGraphParity(t *testing.T) {
	cases := []struct {
		name string
		spec workload.ShapeSpec
		drop func(q *query.Query)
	}{
		{
			name: "chain4-cut-middle",
			spec: workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 4, Seed: 11},
			drop: func(q *query.Query) { q.Joins = append(q.Joins[:1:1], q.Joins[2:]...) },
		},
		{
			name: "pair-cartesian",
			spec: workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 2, Seed: 12},
			drop: func(q *query.Query) { q.Joins = nil },
		},
		{
			name: "star5-isolated-leaf",
			spec: workload.ShapeSpec{Shape: workload.ShapeStar, Rels: 5, Seed: 13},
			drop: func(q *query.Query) { q.Joins = q.Joins[:len(q.Joins)-1] },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cat, q, err := workload.ShapeQuery(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			tc.drop(q)
			if q.JoinGraphConnected() {
				t.Fatal("test bug: query still connected after dropping joins")
			}
			a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for ci, cfg := range workload.ShapeConfigs(rng, cat, q, 1) {
				for _, opt := range shapeOptions() {
					fast, ferr := optimizer.Optimize(a, cfg, opt)
					ref, rerr := optimizer.OptimizeReference(a, cfg, opt)
					label := fmt.Sprintf("%s/cfg=%d/opt=%+v", tc.name, ci, opt)
					assertRefusedIffInvalid(t, label, opt, ferr, rerr)
					if ferr == nil || rerr == nil {
						t.Fatalf("%s: disconnected query planned: fast=%v/%v reference=%v/%v",
							label, fast, ferr, ref, rerr)
					}
					if ferr.Error() != rerr.Error() {
						t.Fatalf("%s: error text differs:\n  fast: %v\n  ref:  %v", label, ferr, rerr)
					}
				}
			}
		})
	}
}
