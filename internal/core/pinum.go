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
// pointer-free records in arenas that grow by blocks; a slim build reads
// each exported plan's summary straight off them (Workspace.Export), and
// only a tree build has Path trees built for it.
package core

import (
	"runtime"
	"time"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
)

// Build fills an INUM-compatible plan cache with two optimizer calls (one
// without and one with nested-loop joins), implementing §V-D with the
// paper's default, coarse treatment of nested-loop plans. Like BuildPrecise
// and BuildSlim it is a batch of one on every core the process has: the two
// calls plan at once when GOMAXPROCS is at least 2.
func Build(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return oneShot(false, false)(a, ws)
}

// BuildPrecise fills the cache with the §V-D refinement enabled: nested-
// loop plans that differ in probe count are all retained, trading "a bigger
// plan cache and slower cost lookup" for exact nested-loop costing. The
// ablation benchmarks compare the two.
func BuildPrecise(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return oneShot(true, false)(a, ws)
}

// BuildSlim fills a slim cache: the same two optimizer calls, but every
// exported plan reaches the cache as its INUM decomposition, read off the
// planner's records, and no path tree is ever built. Cost results are
// bit-identical to Build's; the cache just cannot render EXPLAIN trees or
// feed the executor. This is the construction the persistent snapshot store
// and the serving layer use.
func BuildSlim(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
	return oneShot(false, true)(a, ws)
}

// oneShot is the Builder of a batch of one whose core budget is GOMAXPROCS.
func oneShot(precise, slim bool) BuildFunc {
	return Builder(precise, slim, pairs(1, runtime.GOMAXPROCS(0)))
}

// Builder returns a BuildFunc for the given mode flags that plans every
// query it is handed on one optimizer.Workspace of its own: call it once
// per worker, as BuildAllWith does, and the worker's later queries reuse
// the buffers its first ones grew. A paired Builder plans each query's two
// calls at once, on the caller and one helper goroutine, each on a planner
// of the workspace; an unpaired one plans them one after the other on one
// planner. BuildAllWith says which (pairs). A slim Builder hands its caches
// the workspace's export summaries; a tree Builder has the workspace build
// the exported plans' trees, which its caches keep.
func Builder(precise, slim, paired bool) BuildFunc {
	wk := optimizer.NewWorkspace()
	var run optimizer.Runner
	if paired {
		run = pairCalls
	}
	return func(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
		return build(a, ws, wk, run, precise, slim)
	}
}

// pairCalls is a paired build's optimizer.Runner: Fan on two goroutines, so
// a panic in either call surfaces on the caller once both have stopped.
func pairCalls(n int, call func(i int)) {
	Fan(n, 2, func() func(int) { return call })
}

func build(a *optimizer.Analysis, ws *whatif.Session, wk *optimizer.Workspace, run optimizer.Runner, precise, slim bool) (*inum.Cache, error) {
	start := time.Now()
	var c *inum.Cache
	if slim {
		c = inum.NewSlimCache(a)
	} else {
		c = inum.NewCache(a)
	}
	c.Stats.CombosEnumerated = a.Q.ComboCount()

	cfg, err := inum.AllOrdersConfig(a, ws)
	if err != nil {
		return nil, err
	}
	// First call: nested loops off; the exported non-NLJ plan set is
	// complete and exact under internal-cost subsumption pruning. Second
	// call: nested loops on; unless the precise refinement is requested,
	// the paper's literal total-cost pruning keeps the NLJ plan set small
	// at the price of the small errors §VI-C reports.
	opts := [2]optimizer.Options{
		{ExportAll: true, PreciseNLJ: precise},
		{EnableNestLoop: true, ExportAll: true, PreciseNLJ: precise, PaperPrune: !precise},
	}
	if slim {
		st, err := wk.Export(a, cfg, opts[:], run, c.AddSummary)
		if err != nil {
			return nil, err
		}
		c.Stats.OptimizerCalls += len(opts)
		c.Stats.Planner.Add(st)
		c.Stats.PlansSeen = st.PathsRetained
		c.Seal()
	} else {
		results, err := wk.OptimizeEach(a, cfg, opts[:], run)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			c.Stats.OptimizerCalls++
			c.Stats.Planner.Add(res.Stats)
			for _, p := range res.Exported {
				c.AddPath(p)
			}
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
