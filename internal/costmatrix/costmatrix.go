// Package costmatrix implements the incremental workload-cost engine the
// advisor's greedy search runs on: a shared cost matrix over (query, plan,
// relation) that turns each candidate evaluation from a full re-pricing of
// the workload into a delta computation.
//
// The INUM/CoPhy-style decomposition the engine exploits is that a cached
// plan's cost is Internal + Σ coef × accessCost(leaf, C), and accessCost is
// a min over the configuration's indexes per leaf identity — the query's
// leaf-slot table (optimizer.PriceLeafSlots). The engine keeps one table
// per query, priced under the applied set. Adding one candidate index only
// changes the blocks of relations on the candidate's table, and a slot's
// new value is min(current, cost through the candidate) — no other index
// in the configuration needs to be looked at again. A workload-level
// inverted index (table → queries) skips entirely the queries that never
// reference the candidate's table.
//
// The engine consumes only each cache's decomposition — the leaf arenas
// behind Cache.BestPlan — so it runs unchanged over built and
// snapshot-loaded caches (internal/plancache); the serving layer's
// /recommend endpoint relies on exactly that.
//
// The engine's results are bit-identical to pricing each configuration from
// scratch through inum.Cache.Cost: per-slot minimisation visits indexes in
// the same order (applied set in pick order, candidate last) with the same
// strict < rule, the plan fold is Cache.BestPlan itself, and workload totals
// sum weight × query cost in registration order.
package costmatrix

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
)

// Query is one workload entry: a built plan cache and its frequency weight
// (weights <= 0 count as 1, matching the advisor's normalisation).
type Query struct {
	Cache  *inum.Cache
	Weight float64
}

// Stats counts the pricing work an engine performed. The interesting ratio
// is QuerySkips : QueryEvals — how much of the workload the table→queries
// index pruned away without touching a single plan.
type Stats struct {
	// CandidateEvals is the number of EvaluateCandidate calls
	// (candidates × rounds in a greedy search).
	CandidateEvals int64
	// QueryEvals is the number of per-query delta evaluations performed —
	// the query referenced the candidate's table, so its plans were
	// re-summed.
	QueryEvals int64
	// QuerySkips is the number of per-query evaluations skipped because
	// the table index proved the candidate cannot affect the query.
	QuerySkips int64
	// PlanEvals is the number of per-plan cost recomputations inside the
	// performed query evaluations.
	PlanEvals int64
	// Applies is the number of committed picks.
	Applies int64
}

// queryState is the live state of one workload query.
type queryState struct {
	cache  *inum.Cache
	weight float64
	// relsOnTable maps a table name to the query's relation slots on that
	// table, ascending — several slots for self-joins.
	relsOnTable map[string][]int
	// slots is the query's leaf-slot table under the applied set,
	// maintained with exactly the minimisation PriceLeafSlots runs, one
	// applied index at a time, in pick order.
	slots []float64
	// best is the winning plan cost under the applied set (what
	// Cache.Cost would return for the equivalent configuration).
	best float64
}

// Engine prices a workload incrementally under a growing index set.
// EvaluateCandidate is safe for concurrent use (a greedy round fans
// candidates over a worker pool); New and Apply are not, and must not run
// concurrently with evaluations.
type Engine struct {
	queries []*queryState
	// byTable maps a table name to the queries referencing it, ascending.
	byTable map[string][]int
	// total is the weighted workload cost under the applied set, summed in
	// registration order.
	total float64

	candidateEvals atomic.Int64
	queryEvals     atomic.Int64
	querySkips     atomic.Int64
	planEvals      atomic.Int64
	applies        atomic.Int64
}

// New builds an engine over the workload, priced under the empty
// configuration. It fails if any query has no applicable cached plan (an
// empty cache), mirroring Cache.Cost's error.
func New(queries []Query) (*Engine, error) {
	e := &Engine{byTable: make(map[string][]int)}
	for qi, in := range queries {
		c := in.Cache
		if c == nil {
			return nil, fmt.Errorf("costmatrix: query %d has no plan cache", qi)
		}
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		qs := &queryState{cache: c, weight: w, relsOnTable: make(map[string][]int)}
		for rel, r := range c.Q.Rels {
			t := r.Table.Name
			qs.relsOnTable[t] = append(qs.relsOnTable[t], rel)
		}
		// Queries are processed in registration order, so each per-table
		// list stays ascending without sorting.
		//pinum:nondeterministic-ok per-table lists are disjoint: iteration order only interleaves appends to different e.byTable keys, never reorders within one
		for t := range qs.relsOnTable {
			e.byTable[t] = append(e.byTable[t], qi)
		}
		qs.slots = c.A.PriceLeafSlots(nil, nil)
		qs.best = qs.costWith(nil)
		if math.IsInf(qs.best, 1) {
			return nil, fmt.Errorf("costmatrix: no applicable cached plan for query %s under the empty configuration", c.Q.Name)
		}
		e.queries = append(e.queries, qs)
	}
	e.recomputeTotal()
	return e, nil
}

// costWith returns the query's best cached-plan cost under the applied set
// plus an optional extra candidate (nil = applied set only): the candidate
// folds into a stack copy of the table, in the blocks of its table's
// relations, exactly as an index appended last to the configuration would,
// and the plans are folded by Cache.BestPlan. +Inf means no applicable plan.
//
//pinum:hotpath
func (qs *queryState) costWith(extra *catalog.Index) float64 {
	slots := qs.slots
	if extra != nil {
		var buf [optimizer.LeafSlotsInline]float64
		slots = append(buf[:0], slots...)
		for _, rel := range qs.relsOnTable[extra.Table] {
			qs.cache.A.FoldLeafSlots(slots, rel, extra)
		}
	}
	best, _ := qs.cache.BestPlan(slots)
	return best
}

// recomputeTotal refreshes the workload total as the same in-order weighted
// sum EvaluateCandidate produces, so committed and evaluated totals agree
// bit-for-bit.
func (e *Engine) recomputeTotal() {
	total := 0.0
	for _, qs := range e.queries {
		//pinum:costarith-ok same in-order weighted sum as EvaluateCandidate and the advisor's full-repricing test oracle; pinned by advisor.TestRunMatchesReferenceStarWorkload
		total += qs.weight * qs.best
	}
	e.total = total
}

// TotalCost returns the weighted workload cost under the applied set.
func (e *Engine) TotalCost() float64 { return e.total }

// QueryCosts returns the current per-query costs under the applied set, in
// registration order (unweighted, as Cache.Cost reports them).
func (e *Engine) QueryCosts() []float64 {
	out := make([]float64, len(e.queries))
	for i, qs := range e.queries {
		out[i] = qs.best
	}
	return out
}

// EvaluateCandidate prices the workload under the applied set plus ix,
// without committing anything. Only queries referencing ix's table are
// re-priced — every other query contributes its stored cost — but the
// final weighted sum still visits queries in registration order, so the
// result is bit-identical to re-pricing the whole workload from scratch
// under the equivalent configuration. Safe for concurrent use.
//
//pinum:hotpath
func (e *Engine) EvaluateCandidate(ix *catalog.Index) float64 {
	affected := e.byTable[ix.Table]
	total := 0.0
	j := 0
	// Counters accumulate locally and flush once per call: parallel rounds
	// run many evaluations at once, and per-query atomic adds on shared
	// cache lines would make even the skip path contended.
	var evals, skips, plans int64
	for qi, qs := range e.queries {
		c := qs.best
		if j < len(affected) && affected[j] == qi {
			j++
			c = qs.costWith(ix)
			evals++
			plans += int64(len(qs.cache.Plans))
		} else {
			skips++
		}
		//pinum:costarith-ok the workload objective Σ wᵢ·cᵢ in query order, as the advisor's full-repricing test oracle sums it; pinned by advisor.TestRunMatchesReferenceStarWorkload
		total += qs.weight * c
	}
	e.candidateEvals.Add(1)
	e.queryEvals.Add(evals)
	e.querySkips.Add(skips)
	e.planEvals.Add(plans)
	return total
}

// Apply commits a pick: per affected query, the pick folds into the table's
// blocks on its table in place (the same min EvaluateCandidate computed on
// its copy), the query's winning cost is refreshed, and the workload total
// is re-summed. Unaffected queries are untouched. Not safe to run
// concurrently with evaluations.
func (e *Engine) Apply(pick *catalog.Index) {
	e.applies.Add(1)
	for _, qi := range e.byTable[pick.Table] {
		qs := e.queries[qi]
		for _, rel := range qs.relsOnTable[pick.Table] {
			qs.cache.A.FoldLeafSlots(qs.slots, rel, pick)
		}
		qs.best = qs.costWith(nil)
	}
	e.recomputeTotal()
}

// Stats snapshots the work counters.
func (e *Engine) Stats() Stats {
	return Stats{
		CandidateEvals: e.candidateEvals.Load(),
		QueryEvals:     e.queryEvals.Load(),
		QuerySkips:     e.querySkips.Load(),
		PlanEvals:      e.planEvals.Load(),
		Applies:        e.applies.Load(),
	}
}
