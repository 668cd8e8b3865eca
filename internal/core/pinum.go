// Package core implements PINUM, the paper's contribution: filling an INUM
// plan cache with just one optimizer call per nested-loop mode, by
// harvesting the intermediate plans a bottom-up optimizer builds anyway.
//
// Conventional INUM issues one optimizer call per interesting order
// combination (648 for TPC-H Q5). PINUM instead invokes the optimizer with
// what-if indexes covering *all* interesting orders and the join planner
// switched to subsumption pruning (§V-D): the top level of the dynamic
// program then holds the optimal plan for every useful combination, and all
// of them are exported to the cache. The first call runs with nested loops
// disabled and supplies the NLJ-free plans INUM tracks separately; the
// second enables them under the paper's pruning — exactly two calls per
// query.
//
// The two calls read nothing but the analysis and the all-orders
// configuration, so a build whose batch leaves it two cores plans them at
// once, each on a planner of its own (BuildAllWith's core budget), and
// otherwise one after the other; either way the cache is the same, bit for
// bit. A build allocates little beyond the cache it returns: every query a
// batch worker builds plans on one optimizer.Workspace (Builder), which
// dies with the one-shot build or the batch. The planner keeps plans as
// pointer-free records in arenas that grow by blocks, and a build reads
// each exported plan's summary straight off them (Workspace.Export): no
// Path tree is built, and no plan is dropped on the way. Once both calls
// have emitted, the build drops every entry that another entry of the query
// never costs more than under any configuration (inum.Cache.Compact),
// the second call's copies of plans the first exported included: the §V-D
// frontier keeps one antichain per output order, which the dynamic program
// needs, but a cached plan's cost does not depend on its output order.
package core

import (
	"runtime"
	"time"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
)

// BuildSlim fills a plan cache with two optimizer calls (one without and
// one with nested-loop joins), implementing §V-D with the paper's default,
// coarse treatment of nested-loop plans: every exported plan reaches the
// cache as its INUM decomposition, read off the planner's records. This is
// the construction the library, the persistent snapshot store and the
// serving layer use. Like BuildPrecise it is a batch of one on every core
// the process has: the two calls plan at once when GOMAXPROCS is at least 2.
func BuildSlim(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return oneShot(false)(a, ws)
}

// BuildPrecise is BuildSlim with the §V-D refinement enabled: nested-loop
// plans that differ in probe count are all retained, trading "a bigger plan
// cache and slower cost lookup" for exact nested-loop costing. The ablation
// benchmarks compare the two.
func BuildPrecise(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return oneShot(true)(a, ws)
}

// oneShot is the Builder of a batch of one whose core budget is GOMAXPROCS.
func oneShot(precise bool) BuildFunc {
	return Builder(precise, pairs(1, runtime.GOMAXPROCS(0)))
}

// Builder returns a BuildFunc for the given nested-loop mode that plans
// every query it is handed on one optimizer.Workspace of its own: call it
// once per worker, as BuildAllWith does, and the worker's later queries
// reuse the buffers its first ones grew. A paired Builder plans each
// query's two calls at once, on the caller and one helper goroutine, each
// on a planner of the workspace; an unpaired one plans them one after the
// other on one planner. BuildAllWith says which (pairs). Either way its
// caches get the workspace's export summaries.
func Builder(precise, paired bool) BuildFunc {
	wk := optimizer.NewWorkspace()
	var run optimizer.Runner
	if paired {
		run = pairCalls
	}
	return func(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
		return build(a, ws, wk, run, precise)
	}
}

// pairCalls is a paired build's optimizer.Runner: Fan on two goroutines, so
// a panic in either call surfaces on the caller once both have stopped.
func pairCalls(n int, call func(i int)) {
	Fan(n, 2, func() func(int) { return call })
}

// callOptions are a build's two optimizer calls. First call: nested loops
// off; the exported non-NLJ plan set is complete and exact under
// internal-cost subsumption pruning. Second call: nested loops on; unless
// the precise refinement is requested, the paper's literal total-cost
// pruning keeps the NLJ plan set small at the price of the small errors
// §VI-C reports.
func callOptions(precise bool) [2]optimizer.Options {
	return [2]optimizer.Options{
		{ExportAll: true, PreciseNLJ: precise},
		{EnableNestLoop: true, ExportAll: true, PreciseNLJ: precise, PaperPrune: !precise},
	}
}

func build(a *optimizer.Analysis, ws *whatif.Session, wk *optimizer.Workspace, run optimizer.Runner, precise bool) (*inum.Cache, error) {
	start := time.Now()
	c := inum.NewCache(a)
	c.Stats.CombosEnumerated = a.Q.ComboCount()
	cfg, err := inum.AllOrdersConfig(a, ws)
	if err != nil {
		return nil, err
	}
	opts := callOptions(precise)
	st, err := wk.Export(a, cfg, opts[:], run, c.AddSummary)
	if err != nil {
		return nil, err
	}
	c.Compact()
	c.Stats.OptimizerCalls += len(opts)
	c.Stats.Planner.Add(st)
	c.Stats.PlansSeen = st.PathsRetained
	c.Stats.Duration = time.Since(start)
	c.Stats.Mem = c.MemStats()
	return c, nil
}

// Build is the reference construction of BuildSlim's cache (BuildAll, of a
// batch in either mode): each of the two calls plans on a fresh planner
// through optimizer.Optimize, one after the other, and the cache is filled
// from the Path trees they export through Path.Signature (inum.PathSet),
// Summarize and LeafSlot (AddPath). It never calls Workspace.Export, so the
// equivalence suites and the benchmark's golden answers, which hold the
// library's caches to it bit for bit, share no construction code with what
// they check past the planner; keep it off Export. It keeps every exported
// plan (it does not compact), so the same comparisons, on costs, check the
// library's compaction too. The library never calls it.
func Build(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return reference(a, ws, false)
}

// reference is Build, and BuildAll's BuildFunc, in either nested-loop mode.
func reference(a *optimizer.Analysis, ws *whatif.Session, precise bool) (*inum.Cache, error) {
	start := time.Now()
	c := inum.NewCache(a)
	c.Stats.CombosEnumerated = a.Q.ComboCount()
	cfg, err := inum.AllOrdersConfig(a, ws)
	if err != nil {
		return nil, err
	}
	set := inum.NewPathSet(c)
	for _, opt := range callOptions(precise) {
		res, err := optimizer.Optimize(a, cfg, opt)
		if err != nil {
			return nil, err
		}
		c.Stats.OptimizerCalls++
		c.Stats.Planner.Add(res.Stats)
		for _, p := range res.Exported {
			set.Add(p)
		}
	}
	c.Stats.Duration = time.Since(start)
	c.Stats.Mem = c.MemStats()
	return c, nil
}

// CollectAccessCosts harvests the access costs of every candidate index
// with a single optimizer call, using the modified access path collector
// that keeps all index access paths instead of the cheapest per interesting
// order (§V-C).
func CollectAccessCosts(a *optimizer.Analysis, candidates []*catalog.Index) *inum.AccessCostTable {
	start := time.Now()
	t := &inum.AccessCostTable{ByIndex: make(map[string][]optimizer.IndexAccess)}
	cfg := whatif.Config(candidates...)
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{CollectAccessCosts: true})
	if err != nil {
		t.Errors = 1
	} else {
		t.Calls = 1
		for _, ia := range res.AccessCosts {
			t.ByIndex[ia.Index.Name] = append(t.ByIndex[ia.Index.Name], ia)
		}
	}
	t.Duration = time.Since(start)
	return t
}

// Redundancy reports the paper's §IV measurement for one query: how many
// interesting order combinations exist, how many unique plans INUM's
// per-combination optimizer calls actually return, and the fraction of
// those calls that were therefore redundant. (For TPC-H Q5 the paper finds
// 64 unique plans in 648 calls — 90 % redundant.)
type Redundancy struct {
	Query        string
	Combinations int
	UniquePlans  int
	// RedundantCallFraction is 1 − unique/combinations: the share of
	// INUM's per-combination calls that return an already-cached plan.
	RedundantCallFraction float64
}

// MeasureRedundancy performs the paper's §IV analysis: issue one
// conventional optimizer call per interesting order combination (nested
// loops disabled, as in INUM's primary plan set) and count how many
// distinct plans come back. The per-combination configurations use plain
// single-column indexes covering the orders — the realistic what-if
// question a designer asks — under which the optimizer routinely declines
// the offered orders, which is precisely the §IV redundancy.
func MeasureRedundancy(a *optimizer.Analysis, ws *whatif.Session) (Redundancy, error) {
	combos := a.Q.EnumerateCombos()
	unique := make(map[string]bool)
	for _, oc := range combos {
		cfg, err := ws.CoveringConfig(a.Q, oc)
		if err != nil {
			return Redundancy{}, err
		}
		res, err := optimizer.Optimize(a, cfg, optimizer.Options{})
		if err != nil {
			return Redundancy{}, err
		}
		unique[res.Best.Signature()] = true
	}
	frac := 0.0
	if len(combos) > 0 {
		frac = 1 - float64(len(unique))/float64(len(combos))
		if frac < 0 {
			frac = 0
		}
	}
	return Redundancy{
		Query:                 a.Q.Name,
		Combinations:          len(combos),
		UniquePlans:           len(unique),
		RedundantCallFraction: frac,
	}, nil
}
