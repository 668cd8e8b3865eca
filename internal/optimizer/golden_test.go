// The frozen record of the planner's work counters.
package optimizer_test

import (
	"fmt"
	"testing"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// goldenCounterCalls lists the optimizer calls TestPlannerCountersGolden
// pins, each as a label and the thunk that makes the call.
func goldenCounterCalls(t *testing.T) (labels []string, calls []func() (*optimizer.Result, error)) {
	t.Helper()
	add := func(label string, a *optimizer.Analysis, cfg *query.Config, opts []optimizer.Options) {
		for _, opt := range opts {
			opt := opt
			mode := "hash-merge"
			switch {
			case opt.PreciseNLJ:
				mode = "precise"
			case opt.EnableNestLoop:
				mode = "nestloop-paper"
			}
			labels = append(labels, label+"/"+mode)
			calls = append(calls, func() (*optimizer.Result, error) { return optimizer.Optimize(a, cfg, opt) })
		}
	}
	// The benchmark's design-batch shapes, as core.BuildSlim plans them.
	for _, spec := range designSpecs {
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := inum.AllOrdersConfig(a, whatif.NewSession(cat))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%s-%d", spec.Shape, len(q.Rels)), a, cfg, buildOptions(false))
	}
	// The 17-relation chain with its head indexed (optimizer.wide_chain17_ms).
	a, cfg := shapeBuildConfig(t, workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42})
	add("wide-chain-17", a, cfg, buildOptions(false))
	// Star Q10, the paper workload's 7-table join (optimizer.export_all_ms.q10).
	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	a, err = optimizer.NewAnalysis(queries[len(queries)-1], star.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = inum.AllOrdersConfig(a, whatif.NewSession(star.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	add("star-q10", a, cfg, buildOptions(false))
	// Small shapes under the precise build's nested-loop call (two
	// packed-lane shapes, one wide).
	for _, spec := range []workload.ShapeSpec{
		{Shape: workload.ShapeStar, Rels: 5, Seed: 402},
		{Shape: workload.ShapeRandom, Rels: 5, Density: 0.7, Seed: 405},
		{Shape: workload.ShapeWideGroup, Seed: 42},
	} {
		a, cfg := shapeBuildConfig(t, spec)
		add(fmt.Sprintf("%s-%d", spec.Shape, len(a.Rels)), a, cfg, []optimizer.Options{
			{EnableNestLoop: true, ExportAll: true, PreciseNLJ: true},
		})
	}
	return labels, calls
}

// goldenCounters is PlannerStats per call, in field order: PathsConsidered,
// PathsRetained, PathsPruned, JoinRels, ClauseLookups, EnumStates,
// MasksSkipped, FrontierInserts, FrontierDrops, FrontierEvictions. The
// literals were printed by this test (its failure message is a table row)
// at commit 0dc2810, where the reference planner still replayed the frontier
// protocol and the equivalence suites held the three Frontier* counters equal
// to that replay; no reference computes them now, so this record is what
// says a change to the frontier does the same work.
var goldenCounters = map[string]optimizer.PlannerStats{
	"chain-7/hash-merge":           {7486, 534, 6316, 28, 56, 56, 99, 1175, 831, 5},
	"chain-7/nestloop-paper":       {16745, 272, 15764, 28, 56, 56, 99, 1001, 3342, 20},
	"snowflake-7/hash-merge":       {14896, 408, 13528, 36, 84, 84, 91, 1385, 2413, 17},
	"snowflake-7/nestloop-paper":   {37716, 400, 35651, 36, 84, 84, 91, 2081, 6896, 16},
	"star-7/hash-merge":            {30644, 488, 28176, 70, 192, 192, 57, 2489, 3135, 21},
	"star-7/nestloop-paper":        {60733, 376, 57458, 70, 192, 192, 57, 3454, 11015, 179},
	"clique-5/hash-merge":          {45318, 306, 44103, 31, 90, 90, 0, 1444, 4396, 229},
	"clique-5/nestloop-paper":      {145327, 242, 143484, 31, 90, 90, 0, 2038, 8540, 195},
	"random-6/hash-merge":          {147955, 662, 144807, 56, 218, 218, 7, 3697, 11533, 549},
	"random-6/nestloop-paper":      {461684, 263, 457949, 56, 218, 218, 7, 4162, 37227, 427},
	"cycle-6/hash-merge":           {11210, 364, 10296, 31, 75, 75, 32, 1048, 1076, 134},
	"cycle-6/nestloop-paper":       {31226, 224, 30162, 31, 75, 75, 32, 1189, 4596, 125},
	"wide-orders-2/hash-merge":     {17358, 130, 17095, 3, 1, 1, 0, 264, 262, 1},
	"wide-orders-2/nestloop-paper": {21654, 2, 21581, 3, 1, 1, 0, 74, 330, 1},
	"wide-group-3/hash-merge":      {364, 8, 331, 6, 4, 4, 1, 34, 112, 1},
	"wide-group-3/nestloop-paper":  {950, 4, 880, 6, 4, 4, 1, 87, 274, 17},
	"wide-chain-17/hash-merge":     {7950, 8, 7636, 153, 816, 816, 130918, 320, 143, 6},
	"wide-chain-17/nestloop-paper": {14237, 8, 13858, 153, 816, 816, 130918, 386, 621, 7},
	"star-q10/hash-merge":          {8140, 96, 7473, 40, 98, 98, 87, 682, 1045, 15},
	"star-q10/nestloop-paper":      {30412, 64, 29174, 40, 98, 98, 87, 1324, 6438, 86},
	"star-5/precise":               {9278, 285, 8125, 20, 32, 32, 11, 1300, 2331, 147},
	"random-5/precise":             {355253, 9607, 336046, 30, 82, 82, 1, 21587, 44682, 2380},
	"wide-group-3/precise":         {1250, 30, 1104, 6, 4, 4, 1, 149, 371, 3},
}

// TestPlannerCountersGolden holds every work counter of the calls the
// benchmark times — the eight design shapes, the head-indexed 17-relation
// chain and star Q10 under the two construction modes — and of three small
// shapes under the precise nested-loop call {EnableNestLoop, ExportAll,
// PreciseNLJ} to goldenCounters.
func TestPlannerCountersGolden(t *testing.T) {
	labels, calls := goldenCounterCalls(t)
	if len(labels) != len(goldenCounters) {
		t.Fatalf("%d calls against %d golden rows", len(labels), len(goldenCounters))
	}
	for i, call := range calls {
		res, err := call()
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		want, ok := goldenCounters[labels[i]]
		if s := res.Stats; !ok || s != want {
			t.Errorf("counters moved; the row is now\n\t%q: {%d, %d, %d, %d, %d, %d, %d, %d, %d, %d},\nwant %+v", labels[i],
				s.PathsConsidered, s.PathsRetained, s.PathsPruned, s.JoinRels, s.ClauseLookups, s.EnumStates,
				s.MasksSkipped, s.FrontierInserts, s.FrontierDrops, s.FrontierEvictions, want)
		}
	}
}
