package main

import (
	"bytes"
	"fmt"
	"math"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// The query texts are fixed, not drawn from -seed: the star generator's
// plan count ranges from 71 to 281 over query seeds 1..14, which would
// put a fourfold seed-to-seed difference into every latency and hide
// any change below it. -seed drives what a client sends (index specs,
// bodies, their order, the tenant sequence); what the tenants' queries
// are is part of the workload definition.
const (
	// paperQuerySeed generates the paper's 10-query star workload, the
	// same default every pinum command uses.
	paperQuerySeed = 42
	// wideQuerySeed0 is the first of the 20 query seeds of whatif-wide.
	wideQuerySeed0 = 1000
	// churnQuerySeed0 is tenant t0's query seed; tenant i uses +i.
	churnQuerySeed0 = 142
)

// loadEnvironment derives one serving world from scratch exactly as
// pinum-serve's loader does: fresh star schema, row-count overrides,
// the generated queries, one analysis each. querySeeds beyond the
// first append further 10-query sets over the same catalog, renamed
// S<k>.Q<i> so names stay unique.
func loadEnvironment(rows map[string]int64, querySeeds ...int64) (*serve.Environment, error) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		return nil, err
	}
	for table, n := range rows {
		if err := star.SetTableRows(table, n); err != nil {
			return nil, err
		}
	}
	var queries []*query.Query
	for k, qs := range querySeeds {
		set, err := star.Queries(qs)
		if err != nil {
			return nil, err
		}
		if len(querySeeds) > 1 {
			for i, q := range set {
				q.Name = fmt.Sprintf("S%d.Q%d", k+1, i+1)
			}
		}
		queries = append(queries, set...)
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			return nil, err
		}
	}
	return &serve.Environment{Catalog: star.Catalog, Stats: star.Stats, Queries: queries, Analyses: analyses}, nil
}

func seedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

// staticServer builds a single-tenant server over prebuilt caches.
func staticServer(env *serve.Environment, caches []*inum.Cache) (*serve.Server, error) {
	return serve.New(serve.Config{
		Catalog: env.Catalog, Stats: env.Stats,
		Queries: env.Queries, Analyses: env.Analyses, Caches: caches,
	})
}

// snapshotBytes is the size of the snapshot file the caches encode to.
func snapshotBytes(env *serve.Environment, caches []*inum.Cache) (float64, error) {
	fp := plancache.Fingerprint(env.Catalog, env.Stats, optimizer.DefaultCostParams())
	var buf bytes.Buffer
	err := plancache.Encode(&buf, plancache.NewSnapshot(fp, caches))
	return float64(buf.Len()), err
}

// oracle is the independent path every served answer is checked
// against: tree-backed caches from core.BuildAll, its own what-if
// session, Cache.Cost and serve.EncodeJSON — none of the slim caches,
// snapshot codec, interner or handlers the measured program uses.
type oracle struct {
	env    *serve.Environment
	caches []*inum.Cache
	ws     *whatif.Session
	base   []float64
	byName map[string]int
}

func newOracle(env *serve.Environment) (*oracle, error) {
	caches, err := core.BuildAll(env.Analyses, env.Catalog, 0, false)
	if err != nil {
		return nil, err
	}
	o := &oracle{
		env: env, caches: caches,
		ws:     whatif.NewSession(env.Catalog),
		base:   make([]float64, len(caches)),
		byName: make(map[string]int, len(caches)),
	}
	for i, c := range caches {
		if o.base[i], _, err = c.Cost(&query.Config{}); err != nil {
			return nil, err
		}
		o.byName[env.Queries[i].Name] = i
	}
	return o, nil
}

// config resolves index specs against the oracle's own session.
func (o *oracle) config(specs []serve.IndexSpec) (*query.Config, error) {
	return resolveSpecs(o.ws, specs)
}

func resolveSpecs(ws *whatif.Session, specs []serve.IndexSpec) (*query.Config, error) {
	cfg := &query.Config{}
	for _, s := range specs {
		ix, err := ws.CreateIndex(s.Table, s.Columns...)
		if err != nil {
			return nil, err
		}
		cfg.Indexes = append(cfg.Indexes, ix)
	}
	return cfg, nil
}

// whatIf is the golden /whatif body: Σ wᵢ·cᵢ in workload order, the
// objective the server documents.
func (o *oracle) whatIf(req *serve.WhatIfRequest) ([]byte, error) {
	cfg, err := o.config(req.Indexes)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(o.caches))
	for i := range weights {
		weights[i] = 1
	}
	for _, w := range req.Weights {
		i, ok := o.byName[w.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown query %q", w.Name)
		}
		weights[i] = w.Weight
	}
	resp := &serve.WhatIfResponse{Queries: make([]serve.QueryCost, len(o.caches))}
	for i, c := range o.caches {
		cost, _, err := c.Cost(cfg)
		if err != nil {
			return nil, err
		}
		resp.Queries[i] = serve.QueryCost{Name: o.env.Queries[i].Name, Base: o.base[i], Cost: cost}
		resp.Total += weights[i] * cost
		resp.BaseTotal += weights[i] * o.base[i]
	}
	if resp.BaseTotal > 0 {
		resp.Speedup = math.Max(0, 1-resp.Total/resp.BaseTotal)
	}
	return serve.EncodeJSON(resp)
}

// newAdvisor registers the oracle's tree caches with a fresh advisor.
func (o *oracle) newAdvisor(budgetBytes int64, maxIndexes int, weights []serve.WeightOverride) (*advisor.Advisor, error) {
	ad := advisor.New(o.env.Catalog, o.env.Stats, budgetBytes)
	ad.MaxIndexes = maxIndexes
	w := make([]float64, len(o.caches))
	for i := range w {
		w[i] = 1
	}
	for _, ov := range weights {
		w[o.byName[ov.Name]] = ov.Weight
	}
	for i, q := range o.env.Queries {
		if err := ad.AddPrepared(q, o.env.Analyses[i], o.caches[i], w[i]); err != nil {
			return nil, err
		}
	}
	return ad, nil
}

// candidates is the advisor's syntactic candidate set for the workload,
// the same set a server generates at snapshot publish.
func (o *oracle) candidates() ([]*catalog.Index, error) {
	ad, err := o.newAdvisor(0, 0, nil)
	if err != nil {
		return nil, err
	}
	ad.GenerateCandidates()
	return ad.Candidates(), nil
}
