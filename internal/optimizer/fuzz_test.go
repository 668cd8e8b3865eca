// Native Go fuzz target cross-checking the fast (DPccp) planner against
// the reference dense sweep. The fuzzer drives the whole input space the
// equivalence suite samples: join-graph shape, relation count, random-graph
// density, generation seed, Options bits, and the configuration choice. An
// input whose Options bits are not one of the nine sets the planner
// implements asserts the refusal instead.
//
// Run locally with:
//
//	go test ./internal/optimizer -run=NONE -fuzz=FuzzOptimizeEquivalence -fuzztime=30s
//
// CI performs a short smoke run on every push.
package optimizer_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/workload"
)

func FuzzOptimizeEquivalence(f *testing.F) {
	// Seed corpus (option bits: 1 EnableNestLoop, 2 ExportAll, 4
	// CollectAccessCosts, 8 PreciseNLJ, 16 PaperPrune): one entry per shape
	// at 4 relations under {E,X}, one at 4 relations under the precise
	// nested-loop call {E,X,P}, plus a pure random tree under the coarse one
	// {E,X,R} and a tiny everything-on query, which is refused.
	for i := range workload.Shapes {
		f.Add(uint8(i), uint8(2), uint8(128), int64(42), uint8(3))
		f.Add(uint8(i), uint8(2), uint8(64), int64(7), uint8(11))
	}
	f.Add(uint8(workload.ShapeRandom), uint8(3), uint8(0), int64(1), uint8(19))
	f.Add(uint8(workload.ShapeChain), uint8(0), uint8(255), int64(99), uint8(31))
	// The wide lane: plan identities past the packed-key invariants, under
	// {E,X} and under {E,X,P,R}, which is refused (the wide lane's
	// PreciseNLJ entries are appended at the end of the corpus).
	f.Add(uint8(workload.ShapeWideOrders), uint8(0), uint8(0), int64(91), uint8(3))
	f.Add(uint8(workload.ShapeWideOrders), uint8(0), uint8(0), int64(91), uint8(27))
	f.Add(uint8(workload.ShapeWideGroup), uint8(1), uint8(0), int64(92), uint8(3))
	f.Add(uint8(workload.ShapeWideGroup), uint8(1), uint8(0), int64(92), uint8(27))

	// The densest instances the clause guard below admits — a 9-clause
	// random-6 at density 0.4 and cycle-6 — under {E,X} (3, the
	// wide_chain17 probe's set), the coarse nested-loop construction call
	// (19) and, for cycle-6, the precise one (11): the smaller entries above
	// never create enough slots per relation to grow the packed lane's key
	// table. (random-6 under PreciseNLJ is left out: the reference planner's
	// all-pairs pass takes over a minute on it.)
	for _, optB := range []uint8{3, 19} {
		f.Add(uint8(workload.ShapeRandom), uint8(4), uint8(102), int64(45), optB)
	}
	for _, optB := range []uint8{3, 11, 19} {
		f.Add(uint8(workload.ShapeCycle), uint8(4), uint8(0), int64(42), optB)
	}
	// The wide lane under the precise nested-loop call {E,X,P}.
	f.Add(uint8(workload.ShapeWideOrders), uint8(0), uint8(0), int64(91), uint8(11))
	f.Add(uint8(workload.ShapeWideGroup), uint8(1), uint8(0), int64(92), uint8(11))

	f.Fuzz(func(t *testing.T, shapeB, relsB, densB uint8, seed int64, optB uint8) {
		spec := workload.ShapeSpec{
			Shape:   workload.Shapes[int(shapeB)%len(workload.Shapes)],
			Rels:    2 + int(relsB)%5, // 2..6 relations keeps one exec fast
			Density: float64(densB) / 255,
			Seed:    seed,
		}
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			t.Skip()
		}
		// The reference oracle sweeps every mask; past 16 relations
		// (wide-chain) there is nothing to compare against.
		if len(q.Rels) > 16 {
			t.Skip()
		}
		// Dense graphs above ~9 clauses make a single ExportAll call take
		// seconds (in both planners); too slow per fuzz exec. Two-relation
		// queries are exempt: wide-orders carries 64 clauses but only one
		// join mask.
		if len(q.Joins) > 9 && len(q.Rels) > 2 {
			t.Skip()
		}
		opt := optionsFromBits(optB)
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Skip()
		}
		if !slices.Contains(optimizer.ValidOptions, opt) {
			// Both planners, a workspace's Optimize and its Export refuse the
			// set before they plan.
			_, ferr := optimizer.Optimize(a, nil, opt)
			_, rerr := optimizer.OptimizeReference(a, nil, opt)
			_, werr := optimizer.NewWorkspace().Optimize(a, nil, opt)
			_, eerr := optimizer.NewWorkspace().Export(a, nil, []optimizer.Options{opt}, nil, func(*optimizer.Summary) {})
			assertRefusedIffInvalid(t, fmt.Sprintf("fuzz/%s/opt=%+v", q.Name, opt), opt, ferr, rerr, werr, eerr)
			return
		}
		// Exactly nine clauses is admitted except under ExportAll+PreciseNLJ:
		// there the reference's all-pairs pass was measured (PR 22, this
		// host) at 16 s on a 9-clause random-5 and 64–74 s on random-6, and
		// go's fuzz engine reports any input past 10 s as a hang — a smoke
		// failure on an input that is merely slow. The seeds above keep the
		// dense six-relation shapes under the two construction modes.
		if len(q.Joins) >= 9 && len(q.Rels) > 2 && opt.ExportAll && opt.PreciseNLJ {
			t.Skip()
		}
		// A workspace that has just planned the same spec under another
		// seed — a different query, arriving first — must then plan this
		// input exactly as a fresh call does.
		other := spec
		other.Seed++
		wk := optimizer.NewWorkspace()
		if ocat, oq, err := workload.ShapeQuery(other); err == nil && len(oq.Joins) <= len(q.Joins) { // inside the guards above
			if oa, err := optimizer.NewAnalysis(oq, nil, optimizer.DefaultCostParams()); err == nil {
				_, _ = wk.Optimize(oa, workload.ShapeAllOrdersConfig(ocat, oq), opt) // only what it leaves behind matters
			}
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for ci, cfg := range workload.ShapeConfigs(rng, cat, q, 1) {
			// The label carries the full spec so a CI fuzz failure is
			// reproducible without the runner's ephemeral corpus file.
			label := fmt.Sprintf("fuzz/%s/density=%g/seed=%d/cfg=%d/opt=%+v",
				q.Name, spec.Density, spec.Seed, ci, opt)
			assertPlannersAgree(t, label, a, cfg, opt)
			want, werr := optimizer.Optimize(a, cfg, opt)
			got, gerr := wk.Optimize(a, cfg, opt)
			assertSameCall(t, label+"/workspace", got, gerr, want, werr)
		}
	})
}
