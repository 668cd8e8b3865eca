package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// The probes time single calls into each package's public functions on
// the paper's star workload, outside any server. They are the same for
// every workload: what a workload adds is which of these calls its
// requests reach and how often, which the traced replay shows. Every
// probe runs under a benchmark-owned span.

// probeRun is the probe pass's output and scratch.
type probeRun struct {
	tr     *tracer
	values map[string]float64
	req    int
}

// us times fn reps times under a span each and records the median in
// microseconds, scaled by 1/div, under name.
func (p *probeRun) us(name string, div float64, reps int, fn func() error) error {
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var err error
		d := p.tr.timed(p.req, -1, name, func() { err = fn() })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		durs = append(durs, d)
	}
	p.values[name] = median(durs) / div
	return nil
}

// runProbes fills values with every workload-independent per-layer
// metric.
func runProbes(tmpRoot string, tr *tracer, values map[string]float64) error {
	p := &probeRun{tr: tr, values: values, req: tr.newRequest()}
	params := optimizer.DefaultCostParams()
	const ms = 1e3

	// workload: what a loader pays before any cache exists.
	var star *workload.Star
	var queries []*query.Query
	if err := p.us("workload.star_schema_us", 1, 9, func() (err error) { star, err = workload.StarSchema(1.0); return }); err != nil {
		return err
	}
	if err := p.us("workload.queries_us", 1, 9, func() (err error) { queries, err = star.Queries(paperQuerySeed); return }); err != nil {
		return err
	}
	if err := p.us("workload.loader_us", 1, 9, func() error { _, err := loadEnvironment(nil, paperQuerySeed); return err }); err != nil {
		return err
	}
	env, err := loadEnvironment(nil, paperQuerySeed)
	if err != nil {
		return err
	}
	widest := len(queries) - 1 // Q10, the 7-table join

	// sql, optimizer: one statement, one analysis, one call of each kind.
	if err := p.us("sql.parse_bind_us", 1, 25, func() error {
		stmt, err := sql.Parse(queries[widest].SQL)
		if err == nil {
			_, err = sql.Bind(stmt, star.Catalog, "probe")
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.us("optimizer.analysis_us", 1, 25, func() error {
		_, err := optimizer.NewAnalysis(queries[widest], star.Stats, params)
		return err
	}); err != nil {
		return err
	}
	a10 := env.Analyses[widest]
	allOrders, err := inum.AllOrdersConfig(a10, whatif.NewSession(env.Catalog))
	if err != nil {
		return err
	}
	if err := p.us("optimizer.export_all_ms.q10", ms, 5, func() error {
		_, err := optimizer.Optimize(a10, allOrders, optimizer.Options{EnableNestLoop: true, ExportAll: true, PaperPrune: true})
		return err
	}); err != nil {
		return err
	}
	if err := p.us("optimizer.single_call_us", 1, 15, func() error {
		_, err := optimizer.Optimize(a10, allOrders, optimizer.Options{EnableNestLoop: true})
		return err
	}); err != nil {
		return err
	}
	if err := p.wideChain(); err != nil {
		return err
	}

	// core: fan-out dispatch with a no-op worker, and the batch build.
	noop := func() func(int) { return func(int) {} }
	for _, n := range []int{10, 200, 1000} {
		n := n
		if err := p.us(fmt.Sprintf("core.fan_dispatch_us_n%d", n), 1, 101, func() error {
			return core.FanCtxObserved(context.Background(), n, 0, noop, nil)
		}); err != nil {
			return err
		}
	}
	var slims []*inum.Cache
	for _, w := range []struct {
		name    string
		workers int
	}{{"core.build_all_slim_ms_w1", 1}, {"core.build_all_slim_ms_wmax", 0}} {
		workers := w.workers
		if err := p.us(w.name, ms, 5, func() (err error) {
			slims, err = core.BuildAllSlim(env.Analyses, env.Catalog, workers)
			return
		}); err != nil {
			return err
		}
	}
	for _, s := range designShapes {
		cat, q, err := workload.ShapeQuery(s.spec)
		if err != nil {
			return err
		}
		if err := p.us("core.build_slim_ms."+s.label, ms, 3, func() error {
			a, err := optimizer.NewAnalysis(q, nil, params)
			if err == nil {
				_, err = core.BuildSlim(a, whatif.NewSession(cat))
			}
			return err
		}); err != nil {
			return err
		}
	}
	var planner optimizer.PlannerStats
	var calls, plans int
	var entryBytes int64
	for _, c := range slims {
		planner.Add(c.Stats.Planner)
		calls += c.Stats.OptimizerCalls
		plans += len(c.Plans)
		entryBytes += c.MemStats().EntryBytes
	}
	values["core.optimizer_calls_per_query"] = float64(calls) / float64(len(slims))
	values["optimizer.enum_states"] = float64(planner.EnumStates)
	values["optimizer.paths_considered"] = float64(planner.PathsConsidered)
	values["optimizer.paths_pruned"] = float64(planner.PathsPruned)
	values["optimizer.frontier_inserts"] = float64(planner.FrontierInserts)
	values["optimizer.frontier_drops"] = float64(planner.FrontierDrops)
	values["optimizer.frontier_evictions"] = float64(planner.FrontierEvictions)
	values["optimizer.plans_exported"] = float64(plans)
	values["inum.plans_total"] = float64(plans)
	values["inum.entry_bytes"] = float64(entryBytes)

	// inum: a never-seen index's first Cost over the set, then its second.
	fact := env.Catalog.Table("fact")
	var first, second []float64
	for i := 0; i < 31; i++ {
		cols := []string{fact.Columns[1+i%8].Name, fact.Columns[9+i%12].Name}
		cfg := &query.Config{Indexes: []*catalog.Index{storage.HypotheticalIndex(fmt.Sprintf("probe_%d", i), fact, cols)}}
		var err error
		first = append(first, tr.timed(p.req, -1, "inum.cost_first_touch_us", func() { err = costAll(slims, cfg) }))
		if err != nil {
			return err
		}
		second = append(second, tr.timed(p.req, -1, "inum.cost_memo_hit_us", func() { err = costAll(slims, cfg) }))
		if err != nil {
			return err
		}
	}
	values["inum.cost_first_touch_us"] = median(first)
	values["inum.cost_memo_hit_us"] = median(second)

	// advisor, costmatrix: candidate generation, one 5 GB search, and
	// the engine calls the search is made of.
	prepared := func(budget int64) (*advisor.Advisor, error) {
		ad := advisor.New(env.Catalog, env.Stats, budget)
		for i, q := range env.Queries {
			if err := ad.AddPrepared(q, env.Analyses[i], slims[i], 1); err != nil {
				return nil, err
			}
		}
		return ad, nil
	}
	var cands []*catalog.Index
	if err := p.us("advisor.generate_candidates_ms", ms, 5, func() error {
		ad, err := prepared(0)
		if err == nil {
			ad.GenerateCandidates()
			cands = ad.Candidates()
		}
		return err
	}); err != nil {
		return err
	}
	var result *advisor.Result
	if err := p.us("advisor.run_ms", ms, 5, func() error {
		ad, err := prepared(storage.BytesForGB(5))
		if err == nil {
			result, err = ad.Run()
		}
		return err
	}); err != nil {
		return err
	}
	values["advisor.candidates"] = float64(result.CandidateCount)
	values["advisor.picks"] = float64(len(result.Chosen))
	values["costmatrix.query_evals"] = float64(result.Engine.QueryEvals)
	values["costmatrix.query_skips"] = float64(result.Engine.QuerySkips)
	specs := make([]costmatrix.Query, len(slims))
	for i, c := range slims {
		specs[i] = costmatrix.Query{Cache: c, Weight: 1}
	}
	var eng *costmatrix.Engine
	if err := p.us("costmatrix.new_us", 1, 9, func() (err error) { eng, err = costmatrix.New(specs); return }); err != nil {
		return err
	}
	if err := p.us("costmatrix.evaluate_candidate_ns", float64(len(cands))/1e3, 9, func() error {
		for _, ix := range cands {
			eng.EvaluateCandidate(ix)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.us("costmatrix.apply_us", 1, 1, func() error { eng.Apply(result.Chosen[0]); return nil }); err != nil {
		return err
	}

	// plancache: the codec, cache reconstruction and the crash-safe file.
	var fp uint64
	if err := p.us("plancache.fingerprint_us", 1, 9, func() error {
		fp = plancache.Fingerprint(env.Catalog, env.Stats, params)
		return nil
	}); err != nil {
		return err
	}
	snap := plancache.NewSnapshot(fp, slims)
	var encoded bytes.Buffer
	if err := p.us("plancache.encode_us", 1, 9, func() error { encoded.Reset(); return plancache.Encode(&encoded, snap) }); err != nil {
		return err
	}
	var decoded *plancache.Snapshot
	if err := p.us("plancache.decode_us", 1, 9, func() (err error) { decoded, err = plancache.Decode(encoded.Bytes()); return }); err != nil {
		return err
	}
	if err := p.us("plancache.build_caches_us", 1, 9, func() error {
		_, err := plancache.BuildCaches(decoded, env.Queries, env.Analyses)
		return err
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.pcache")
	if err := p.us("plancache.save_ms", ms, 5, func() error { return plancache.Save(path, snap) }); err != nil {
		return err
	}
	if err := p.us("plancache.load_us", 1, 9, func() error { _, err := plancache.Load(path, fp); return err }); err != nil {
		return err
	}
	values["plancache.snapshot_bytes"] = float64(encoded.Len())
	values["plancache.bytes_per_plan"] = float64(encoded.Len()) / float64(plans)

	// serve: publishing a static snapshot set.
	if err := p.us("serve.new_static_ms", ms, 5, func() error {
		srv, err := staticServer(env, slims)
		if err == nil {
			srv.Close()
		}
		return err
	}); err != nil {
		return err
	}
	values["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return nil
}

// wideChain times the ExportAll call on a 17-relation chain, past the
// packed plan keys, with only the chain's head indexed (indexing every
// relation makes the exported set exponential in any planner).
func (p *probeRun) wideChain() error {
	cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42})
	if err != nil {
		return err
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		return err
	}
	head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
	cfg := &query.Config{}
	for _, ix := range workload.ShapeAllOrdersConfig(cat, q).Indexes {
		if head[ix.Table] {
			cfg.Indexes = append(cfg.Indexes, ix)
		}
	}
	return p.us("optimizer.wide_chain17_ms", 1e3, 3, func() error {
		_, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true, ExportAll: true})
		return err
	})
}
