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
// Inside a query the engine re-prices only what moved. Slots only fall
// (the fold is a strict-< min), and every coefficient is non-negative —
// the planner emits them so, and inum.FromRows, which the snapshot
// decoder feeds, refuses anything else — so an entry's cost, an in-order
// sum of products of non-negative operands, never rises when a slot it
// reads falls and keeps every bit when none does. A candidate that lowers
// no slot therefore leaves the query's best cost as stored, and one that
// lowers some gives min(stored best, new cost of each entry reading a
// lowered slot): the entries it does not touch are already in the stored
// minimum, and a touched entry's old cost is never below its new one. This
// is the monotonicity Compact's soundness rests on. A slot → entries index
// per query, built by New, lists the entries to fold.
//
// The engine consumes only each cache's decomposition — the leaf arenas
// behind Cache.BestPlan and Cache.PlanCost — so it runs unchanged over
// built and snapshot-loaded caches (internal/plancache); the serving
// layer's /recommend endpoint relies on exactly that.
//
// The engine's results are bit-identical to pricing each configuration from
// scratch through inum.Cache.Cost: per-slot minimisation visits indexes in
// the same order (applied set in pick order, candidate last) with the same
// strict < rule, an entry is priced by the fold Cache.BestPlan runs
// (optimizer.FoldLeafRow), a minimum of positive costs does not depend on
// the order it is taken in, and workload totals sum weight × query cost in
// registration order.
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
	// the query referenced the candidate's table, so the candidate was
	// folded into its leaf-slot table.
	QueryEvals int64
	// QuerySkips is the number of per-query evaluations skipped because
	// the table index proved the candidate cannot affect the query.
	QuerySkips int64
	// PlanEvals is the number of entry folds (Cache.PlanCost) inside the
	// performed query evaluations: one per entry per slot the candidate
	// lowered that the entry reads. A query evaluation that lowers no slot
	// folds none.
	PlanEvals int64
	// Applies is the number of committed picks.
	Applies int64
}

// queryState is the live state of one workload query.
type queryState struct {
	cache  *inum.Cache
	weight float64
	// slots is the query's leaf-slot table under the applied set,
	// maintained with exactly the minimisation PriceLeafSlots runs, one
	// applied index at a time, in pick order.
	slots []float64
	// readStart and readers are the slot → entries index in CSR form: the
	// ordinals of the entries that read slot s are
	// readers[readStart[s]:readStart[s+1]], ascending. Both are views of
	// the engine's one index arena.
	readStart []int32
	readers   []int32
	// best is the winning plan cost under the applied set (what
	// Cache.Cost would return for the equivalent configuration).
	best float64
}

// tableUse is one query reading a table: the query's ordinal and its
// relations on the table, ascending — several for self-joins.
type tableUse struct {
	qi   int
	rels []relBlock
}

// relBlock is one relation of a query and its block of the query's
// leaf-slot table, slots [lo, hi).
type relBlock struct {
	rel, lo, hi int
}

// Engine prices a workload incrementally under a growing index set.
// EvaluateCandidate is safe for concurrent use (a greedy round fans
// candidates over a worker pool); New and Apply are not, and must not run
// concurrently with evaluations.
type Engine struct {
	queries []*queryState
	// byTable maps a table name to the queries referencing it, ascending.
	byTable map[string][]tableUse
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
// configuration, and each query's slot → entries index. It fails if any
// query has no applicable cached plan (an empty cache), mirroring
// Cache.Cost's error.
func New(queries []Query) (*Engine, error) {
	e := &Engine{byTable: make(map[string][]tableUse)}
	arena := 0
	for qi, in := range queries {
		c := in.Cache
		if c == nil {
			return nil, fmt.Errorf("costmatrix: query %d has no plan cache", qi)
		}
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		qs := &queryState{cache: c, weight: w}
		nslots := c.A.NumLeafSlots()
		// Queries and their relations are processed in order, so every
		// list stays ascending without sorting.
		for rel, r := range c.Q.Rels {
			// A relation's block starts at its AccessAny slot (the packed
			// identity 0), and the blocks lie in relation order.
			hi := nslots
			if rel+1 < len(c.Q.Rels) {
				hi = c.A.LeafSlot(rel+1, 0)
			}
			rb := relBlock{rel, c.A.LeafSlot(rel, 0), hi}
			uses := e.byTable[r.Table.Name]
			if n := len(uses); n > 0 && uses[n-1].qi == qi {
				uses[n-1].rels = append(uses[n-1].rels, rb)
			} else {
				e.byTable[r.Table.Name] = append(uses, tableUse{qi, []relBlock{rb}})
			}
		}
		qs.slots = c.A.PriceLeafSlots(nil, nil)
		qs.best, _ = c.BestPlan(qs.slots)
		if math.IsInf(qs.best, 1) {
			return nil, fmt.Errorf("costmatrix: no applicable cached plan for query %s under the empty configuration", c.Q.Name)
		}
		e.queries = append(e.queries, qs)
		arena += nslots + 1 + len(c.Plans)*len(c.Q.Rels)
	}
	buf := make([]int32, arena)
	for _, qs := range e.queries {
		buf = qs.indexReaders(buf)
	}
	e.recomputeTotal()
	return e, nil
}

// indexReaders builds the query's slot → entries index at the front of
// buf and returns the rest of buf. It is a counting sort of the entries'
// leaf rows by slot: per-slot counts, running ends, then each entry placed
// back to front, which keeps every slot's list ascending and leaves
// readStart at the lists' starts. An entry reads one slot per relation, in
// distinct blocks, so it is listed once per relation.
func (qs *queryState) indexReaders(buf []int32) []int32 {
	c := qs.cache
	nslots := len(qs.slots)
	qs.readStart, buf = buf[:nslots+1:nslots+1], buf[nslots+1:]
	n := len(c.Plans) * len(c.Q.Rels)
	qs.readers, buf = buf[:n:n], buf[n:]
	for i := range c.Plans {
		for _, s := range c.PlanSlots(i) {
			qs.readStart[s]++
		}
	}
	end := int32(0)
	for s, count := range qs.readStart[:nslots] {
		end += count
		qs.readStart[s] = end
	}
	qs.readStart[nslots] = end
	for i := len(c.Plans) - 1; i >= 0; i-- {
		for _, s := range c.PlanSlots(i) {
			qs.readStart[s]--
			qs.readers[qs.readStart[s]] = int32(i)
		}
	}
	return buf
}

// fold folds ix into slots, a copy of the query's table under the applied
// set, in the blocks of rels, the query's relations on ix's table, exactly
// as an index appended last to the configuration would. It returns the
// query's best cost over the result and the number of entry folds that
// took: only the entries reading a slot ix lowered are re-priced, and the
// minimum starts from the stored best, which the package comment shows is
// exact. A self-join's entry reading lowered slots in two blocks is folded
// twice, which the minimum absorbs.
//
//pinum:hotpath
func (qs *queryState) fold(slots []float64, rels []relBlock, ix *catalog.Index) (float64, int64) {
	for _, rb := range rels {
		qs.cache.A.FoldLeafSlots(slots, rb.rel, ix)
	}
	best, folds := qs.best, int64(0)
	for _, rb := range rels {
		for s := rb.lo; s < rb.hi; s++ {
			if slots[s] == qs.slots[s] {
				continue
			}
			lo, hi := qs.readStart[s], qs.readStart[s+1]
			for _, i := range qs.readers[lo:hi] {
				if cost, ok := qs.cache.PlanCost(int(i), slots); ok && cost < best {
					best = cost
				}
			}
			folds += int64(hi - lo)
		}
	}
	return best, folds
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
// re-priced — every other query contributes its stored cost — and inside
// one only the entries reading a slot ix lowered are folded (a query whose
// slots ix does not lower keeps its stored cost). Folding no other entry
// is exact because slots only fall and coefficients are non-negative —
// the monotonicity argument of the package comment, which on a decoded
// cache rests on FromRows' refusal of negative or non-finite operands.
// The final weighted sum
// still visits queries in registration order, so the result is
// bit-identical to re-pricing the whole workload from scratch under the
// equivalent configuration. Safe for concurrent use.
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
	var buf [optimizer.LeafSlotsInline]float64
	for qi, qs := range e.queries {
		c := qs.best
		if j < len(affected) && affected[j].qi == qi {
			var folds int64
			c, folds = qs.fold(append(buf[:0], qs.slots...), affected[j].rels, ix)
			j++
			evals++
			plans += folds
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

// Apply commits a pick: per affected query, the pick folds into a copy of
// the table exactly as EvaluateCandidate folds it, the query's winning
// cost becomes that fold's, and the copy replaces the table; then the
// workload total is re-summed. Unaffected queries are untouched. Not safe
// to run concurrently with evaluations.
func (e *Engine) Apply(pick *catalog.Index) {
	e.applies.Add(1)
	var buf [optimizer.LeafSlotsInline]float64
	for _, u := range e.byTable[pick.Table] {
		qs := e.queries[u.qi]
		slots := append(buf[:0], qs.slots...)
		qs.best, _ = qs.fold(slots, u.rels, pick)
		copy(qs.slots, slots)
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
