package inum_test

import (
	"fmt"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// BenchmarkCostWide is the inner loop of the benchmark's whatif-wide
// workload without the server around it: the 200-query tenant
// benchmark/env.go describes (20 star query sets, seeds 1000–1019, over one
// catalog) priced under one fixed 12-index configuration, and a
// /recommend-sized EvaluateCandidate over one 10-query set. One "cost" op is
// a whole request's pricing — 200 Cache.Cost calls, each grouping the
// configuration itself; one "cost-grouped" op groups it once and makes 200
// Cache.CostByTable calls, as /whatif does. Build the parent's test
// binary too (go test -c) and alternate them; a single run drifts.
func BenchmarkCostWide(b *testing.B) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		b.Fatal(err)
	}
	var queries []*query.Query
	for k := int64(0); k < 20; k++ {
		set, err := star.Queries(1000 + k)
		if err != nil {
			b.Fatal(err)
		}
		for i, q := range set {
			q.Name = fmt.Sprintf("S%d.Q%d", k+1, i+1)
		}
		queries = append(queries, set...)
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			b.Fatal(err)
		}
	}
	caches, err := core.BuildAllSlim(analyses, star.Catalog, 1)
	if err != nil {
		b.Fatal(err)
	}

	// The advisor's syntactic candidates are what the benchmark's clients
	// send; twelve of them at a fixed stride are the configuration.
	ad := advisor.New(star.Catalog, star.Stats, 0)
	for i, q := range queries {
		if err := ad.AddPrepared(q, analyses[i], caches[i], 1); err != nil {
			b.Fatal(err)
		}
	}
	ad.GenerateCandidates()
	cands := ad.Candidates()
	if len(cands) < 12 {
		b.Fatalf("only %d candidates", len(cands))
	}
	cfg := &query.Config{}
	for i := 0; i < 12; i++ {
		cfg.Indexes = append(cfg.Indexes, cands[i*len(cands)/12])
	}

	b.Run("cost", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range caches {
				if _, _, err := c.Cost(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cost-grouped", func(b *testing.B) {
		// The served form of the same request: one grouping, then the
		// 200 queries priced through it.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := optimizer.GroupByTable(star.Catalog.NameSpace(), cfg)
			for _, c := range caches {
				if _, _, err := c.CostByTable(g); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("evaluate-candidate", func(b *testing.B) {
		// One 10-query set with three picks applied: what a /recommend
		// round evaluates every remaining candidate against.
		set := make([]costmatrix.Query, 10)
		for i := range set {
			set[i] = costmatrix.Query{Cache: caches[i], Weight: 1}
		}
		engine, err := costmatrix.New(set)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			engine.Apply(cands[i*len(cands)/3])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkCost = engine.EvaluateCandidate(cands[i%len(cands)])
		}
	})
}

var sinkCost float64
