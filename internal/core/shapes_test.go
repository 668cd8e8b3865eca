package core

import (
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// designShapes are the eight shape queries the design-batch benchmark
// workload builds caches for (benchmark/w_batch.go), spec for spec.
var designShapes = []struct {
	label string
	spec  workload.ShapeSpec
}{
	{"chain7", workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: 42}},
	{"snowflake7", workload.ShapeSpec{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 42}},
	{"star7", workload.ShapeSpec{Shape: workload.ShapeStar, Rels: 7, Seed: 42}},
	{"clique5", workload.ShapeSpec{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: 42}},
	{"random6", workload.ShapeSpec{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 42}},
	{"cycle6", workload.ShapeSpec{Shape: workload.ShapeCycle, Rels: 6, Seed: 42}},
	{"wide-orders", workload.ShapeSpec{Shape: workload.ShapeWideOrders, Seed: 42}},
	{"wide-group", workload.ShapeSpec{Shape: workload.ShapeWideGroup, Seed: 42}},
}

// buildSlimShape returns a closure building the slim cache of one design
// shape from a fresh analysis, the unit the benchmark's
// core.build_slim_ms.* probes time.
func buildSlimShape(tb testing.TB, spec workload.ShapeSpec) func() {
	tb.Helper()
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err == nil {
			_, err = BuildSlim(a, whatif.NewSession(cat))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkBuildSlimShapes(b *testing.B) {
	for _, s := range designShapes {
		build := buildSlimShape(b, s.spec)
		b.Run(s.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}

// TestBuildSlimAllocationBudget holds the two builds whose allocation count
// the planner's candidate screens decide: random6, where nine join
// candidates in ten are dedup losses and only a slot's last winner is ever
// materialised (packed key lane), and wide-orders, where the wide lane
// dedups on the candidate's key bytes before it materialises. A ceiling
// crossed means some per-candidate allocation is back.
func TestBuildSlimAllocationBudget(t *testing.T) {
	budgets := map[string]struct {
		ceiling float64 // allocations per build
		was     float64 // measured when the ceiling was set
		before  float64 // with a Path per surviving arrival / per wide candidate
	}{
		"random6":     {32000, 28296, 55373},
		"wide-orders": {8000, 5918, 179934},
	}
	for _, s := range designShapes {
		b, ok := budgets[s.label]
		if !ok {
			continue
		}
		got := testing.AllocsPerRun(3, buildSlimShape(t, s.spec))
		t.Logf("%s: %.0f allocations per build (ceiling %.0f, %.0f when set, %.0f before)", s.label, got, b.ceiling, b.was, b.before)
		if got > b.ceiling {
			t.Errorf("%s: %.0f allocations per build, ceiling %.0f (%.0f when set)", s.label, got, b.ceiling, b.was)
		}
	}
}
