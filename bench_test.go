// Benchmarks regenerating the paper's tables and figures. One benchmark
// per experiment (E1–E5, see DESIGN.md §4), plus ablation benches for the
// design choices the paper discusses: the coarse vs precise nested-loop
// pruning of §V-D, the cost of one cache lookup versus one optimizer
// call, and §V-C's batch access-cost collection. Engineering performance
// (cache build, advisor, snapshot codec, request path) is measured by
// `go run ./benchmark`, not here.
//
// Run with: go test -bench=. -benchmem
package pinum

import (
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/experiments"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// benchEnv caches the shared environment across benchmarks.
var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		e, err := experiments.NewEnv(42)
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = e
	}
	return benchEnv
}

func analysis(b *testing.B, e *experiments.Env, q *query.Query) *optimizer.Analysis {
	b.Helper()
	a, err := optimizer.NewAnalysis(q, e.Star.Stats, optimizer.DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkE1WhatIfAccuracy regenerates §VI-B: each iteration runs the full
// 50-trial what-if accuracy experiment.
func BenchmarkE1WhatIfAccuracy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE1(e, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("avg err %.3f%%, max err %.3f%%", 100*r.AvgError, 100*r.MaxError)
		}
	}
}

// BenchmarkE2CostAccuracy regenerates §VI-C at reduced trial count per
// iteration (the full 1000-config version runs via cmd/pinum-bench).
func BenchmarkE2CostAccuracy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE2(e, 100, e.Queries[:6])
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE3CacheConstruction regenerates Fig. 4/5 (per-query INUM vs
// PINUM construction and access-cost collection times).
func BenchmarkE3CacheConstruction(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE3(e, e.Queries)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE4IndexSelection regenerates Fig. 6/7: greedy selection under a
// 5 GB budget plus real executions on a scaled materialisation.
func BenchmarkE4IndexSelection(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE4(e, 0.0005, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE5Redundancy regenerates the §IV analysis.
func BenchmarkE5Redundancy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE5(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkAblationNLJPruning compares the paper's default coarse
// nested-loop pruning against the §V-D high-accuracy refinement ("a bigger
// plan cache and slower cost lookup").
func BenchmarkAblationNLJPruning(b *testing.B) {
	e := env(b)
	q := e.Queries[8] // the 6-way join
	for _, mode := range []struct {
		name  string
		build func(*optimizer.Analysis, *whatif.Session) (*inum.Cache, error)
	}{
		{"coarse", core.Build},
		{"precise", core.BuildPrecise},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			a := analysis(b, e, q)
			var plans int
			for i := 0; i < b.N; i++ {
				c, err := mode.build(a, whatif.NewSession(e.Star.Catalog))
				if err != nil {
					b.Fatal(err)
				}
				plans = c.Stats.PlansCached
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkCostLookupVsOptimizerCall quantifies the paper's motivation: a
// cache lookup replaces an optimizer call at a fraction of the cost.
func BenchmarkCostLookupVsOptimizerCall(b *testing.B) {
	e := env(b)
	q := e.Queries[6] // 5-way join
	a := analysis(b, e, q)
	cache, err := core.Build(a, whatif.NewSession(e.Star.Catalog))
	if err != nil {
		b.Fatal(err)
	}
	ws := whatif.NewSession(e.Star.Catalog)
	rng := rand.New(rand.NewSource(3))
	cfgs := make([]*query.Config, 64)
	for i := range cfgs {
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	b.Run("cache-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cache.Cost(cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimizer-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Optimize(a, cfgs[i%len(cfgs)], optimizer.Options{EnableNestLoop: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccessCostCollection compares §V-C's batch access-cost hook
// against the naive one-call-per-index loop.
func BenchmarkAccessCostCollection(b *testing.B) {
	e := env(b)
	q := e.Queries[8]
	a := analysis(b, e, q)
	cands, errs := advisor.CandidateIndexes(whatif.NewSession(e.Star.Catalog), []*optimizer.Analysis{a})
	if len(errs) != 0 {
		b.Fatal(errs)
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inum.CollectAccessCostsNaive(a, cands)
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.CollectAccessCosts(a, cands)
		}
	})
}
