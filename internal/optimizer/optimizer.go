// Package optimizer implements a bottom-up, System-R / PostgreSQL-style
// query optimizer: an access path collector, a dynamic-programming join
// planner that tracks interesting orders as pathkeys, and a grouping
// planner that layers aggregation and ordering on top (paper §III).
//
// Three hooks reproduce PINUM's optimizer modifications (paper §V):
//
//   - Options.EnableNestLoop=false removes nested-loop joins entirely
//     (the enable_nestloop tweak of §V-B);
//   - Options.CollectAccessCosts keeps every index access path in the
//     collector and reports its cost (§V-C);
//   - Options.ExportAll switches the join planner's pruning to the
//     subsumption rule of §V-D and exports one optimal plan per useful
//     interesting order combination from a single call.
//
// One planner ships (fastplan.go): clause bitsets consulted once per split,
// connectivity-aware enumeration over a mask-indexed DP table, interned
// fixed-size plan keys, subsumption pruning at insertion time (frontier.go),
// and plans kept as fixed-size, pointer-free records (planRec) from which a
// Path tree is built only when a caller asks for one (path.go). Its oracle
// lives with the tests (reference_test.go): the original loop — map-keyed
// dense mask sweep, per-direction clause rescans, eager Path candidates,
// string plan keys, a sort-and-all-pairs pruning pass per finished relation
// — written apart from this code and sharing only the cost model, Path and
// the §V-D predicates; the equivalence suites hold the two bit-identical.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

// Options selects the optimizer mode for one call.
type Options struct {
	// EnableNestLoop permits nested-loop join paths. INUM/PINUM cache
	// construction makes one call with and one without them.
	EnableNestLoop bool
	// ExportAll replaces cheapest-total pruning with the paper's
	// subsumption pruning and exports one plan per useful interesting
	// order combination (the PINUM cache-construction hook).
	ExportAll bool
	// CollectAccessCosts reports the access cost of every configuration
	// index instead of only the surviving cheapest paths (the PINUM
	// access-cost hook).
	CollectAccessCosts bool
	// PreciseNLJ keeps nested-loop plans that differ only in probe count
	// apart during subsumption pruning (the paper's §V-D higher-accuracy
	// option: "a bigger plan cache and slower cost lookup"). Off by
	// default, matching the paper's coarse treatment of nested loops.
	PreciseNLJ bool
	// PaperPrune applies §V-D's pruning rule literally, comparing total
	// cost under the planning configuration ("Cost(SA) < Cost(SB)")
	// instead of the provably-safe internal cost. It prunes far more —
	// PINUM uses it for the nested-loop export call, accepting the small
	// cost-model errors the paper reports.
	PaperPrune bool
}

// IndexAccess reports the harvested access costs of one configuration index
// on one query relation (the §V-C batch lookup output).
type IndexAccess struct {
	Rel        int
	Index      *catalog.Index
	ScanCost   float64 // full/range scan through the index
	IndexOnly  bool    // scan avoids the heap entirely
	OrderCol   string  // interesting order the index covers, "" if none
	LookupCost float64 // per-probe nested-loop lookup on the lead column
}

// PlannerStats counts planner work, used by the experiments to show where
// INUM's repeated calls spend their time.
type PlannerStats struct {
	PathsConsidered int
	PathsRetained   int
	// PathsPruned counts candidates discarded by any pruning screen:
	// key-slot losses in ExportAll dedup, dominance rejections and
	// evictions in normal mode, and the keys the frontier leaves dead.
	PathsPruned int
	JoinRels    int
	// ClauseLookups counts join-clause set computations for DP splits: one
	// pass over the prebuilt clause bitsets per split.
	ClauseLookups int
	// EnumStates counts the DP split states the join enumeration visited:
	// the connected subgraph / connected-complement pairs of the join graph
	// (DPccp), or, when planFast falls back to the dense sweep, every split
	// of every relation subset (DenseSplits).
	EnumStates int
	// MasksSkipped counts the non-trivial relation subsets a dense sweep
	// visits that are disconnected and can never hold a plan. The
	// enumeration never touches them and reports the count arithmetically.
	MasksSkipped int
	// FrontierInserts / FrontierDrops / FrontierEvictions count the
	// insertion-time dominance frontier's work in ExportAll mode: keys that
	// entered the live frontier (first arrivals and revivals of previously
	// dominated keys), arrivals screened out as dominated on arrival, and
	// live keys evicted by a later-arriving dominator.
	// TestPlannerCountersGolden holds them to a record.
	FrontierInserts   int
	FrontierDrops     int
	FrontierEvictions int
}

// Add accumulates o into s (used by cache builders that aggregate the work
// of several optimizer calls).
func (s *PlannerStats) Add(o PlannerStats) {
	s.PathsConsidered += o.PathsConsidered
	s.PathsRetained += o.PathsRetained
	s.PathsPruned += o.PathsPruned
	s.JoinRels += o.JoinRels
	s.ClauseLookups += o.ClauseLookups
	s.EnumStates += o.EnumStates
	s.MasksSkipped += o.MasksSkipped
	s.FrontierInserts += o.FrontierInserts
	s.FrontierDrops += o.FrontierDrops
	s.FrontierEvictions += o.FrontierEvictions
}

// Result is the output of one optimizer call.
type Result struct {
	// Best is the cheapest complete plan under the given configuration.
	Best *Path
	// Exported holds, in ExportAll mode, the optimal plan for every
	// useful interesting order combination (after subsumption pruning).
	Exported []*Path
	// AccessCosts holds, in CollectAccessCosts mode, the harvested
	// per-index access costs.
	AccessCosts []IndexAccess
	Stats       PlannerStats
}

// Optimize plans the analysed query under the given index configuration.
// This function is "one optimizer call" in the paper's accounting.
func Optimize(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	return new(planner).optimize(a, cfg, opt)
}

func (p *planner) optimize(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	p.reset(a, cfg, opt)
	defer p.release()
	final, err := p.plan()
	if err != nil {
		return nil, err
	}
	return p.result(final), nil
}

// result is the Result of the call that planned final.
func (p *planner) result(final joinRel) *Result {
	res := &Result{}
	p.startTrees()
	best := final.lo
	for r := final.lo + 1; r < final.hi; r++ {
		if p.recs.at(r).cost < p.recs.at(best).cost {
			best = r
		}
	}
	res.Best = p.tree(best)
	if p.opt.ExportAll {
		res.Exported = make([]*Path, 0, final.hi-final.lo)
		for r := final.lo; r < final.hi; r++ {
			res.Exported = append(res.Exported, p.tree(r))
		}
	}
	if p.opt.CollectAccessCosts {
		res.AccessCosts = p.collectAccessCosts()
	}
	res.Stats = p.stats
	return res
}

// plan runs the join DP and the grouping planner and returns the relation
// of complete plans, its records in export order.
func (p *planner) plan() (joinRel, error) {
	if len(p.a.Rels) == 0 {
		return joinRel{}, fmt.Errorf("optimizer: query %s has no relations", p.a.Q.Name)
	}
	top, err := p.planFast()
	if err != nil {
		return joinRel{}, err
	}
	final := p.finalize(top)
	if final.lo == final.hi {
		return joinRel{}, fmt.Errorf("optimizer: query %s produced no complete plan", p.a.Q.Name)
	}
	return final, nil
}

// planner is one call's state and, behind a Workspace, the buffers the next
// call on it reuses (workspace.go): reset names every field that survives.
type planner struct {
	a     *Analysis
	opt   Options
	stats PlannerStats

	// ctx is the per-call plan context (fastplan.go); rels is the DP table.
	ctx  planCtx
	rels relTable

	// recs is the call's record arena: every plan a relation kept, and the
	// grouping planner's inner nodes, named by index. trees memoises the
	// Path built from each record when a caller asks for trees (path.go),
	// whose one-column orders are slices of treeCols, the call's own copy
	// of ctx.cols: trees outlive the call, the workspace's buffers do not.
	recs     arena[planRec]
	trees    []*Path
	treeCols []query.ColRef

	// ExportAll key-lane state for the join relation currently being
	// filled: where an arrival's frontier slot is found. The DP completes
	// one relation before starting the next, so one index serves the whole
	// call; finishRel drains and resets it per relation. cand is the
	// scratch both lanes leave the arrival's lookup in. The packed lane
	// (ctx.packed) finds 32-byte keys through slots and moves the kept
	// records' keys into keyArena (addressed by planRec.key; arenaCoefs is
	// its PreciseNLJ side array) where the joins built on top of a finished
	// relation read them. The wide lane finds appendPathKey bytes through
	// wideKeys and keeps each slot's leaf requirements — len(a.Rels) per
	// slot, over the relation set wideSet — in wideLeaves for the
	// subsumption test; a kept record's own requirements go to leafArena
	// (addressed by planRec.key), and leafBuf is where a join candidate's
	// are merged. keyBuf holds the key bytes.
	slots      keyTable
	cand       candScratch
	keyArena   arena[hashedKey]
	arenaCoefs arena[coefLanes]
	wideKeys   map[string]int32
	wideLeaves []LeafReq
	wideSet    RelSet
	leafArena  arena[LeafReq]
	keyBuf     []byte
	leafBuf    []LeafReq

	// cands holds the relation under construction's candidates until
	// finishRel keeps them as records: in normal mode its retained list, in
	// ExportAll mode the candidate that holds each frontier slot. The rest
	// is per-slot frontier state, shared by both lanes and indexed by slot
	// id (first-arrival order): the live bit, the pruning metric and the
	// dense output-order id. A slot that is not live is dead (dominated);
	// its metric stays recorded so later arrivals of the same key still
	// dedup, and a revival keeps the slot's original sequence number (the
	// first-insertion tie-break). slotWitness remembers the slot that
	// dominated a dead slot: domination between fixed keys is static, so
	// while the witness keeps metric ≤ the dead slot's (and, in live-only
	// mode, stays live) an improving dead slot stays dead without re-running
	// the frontier screen. buckets holds the live slots of each output order
	// in (metric, slot) order; idxBuf is the collection scratch in
	// finishRel.
	cands       arena[planRec]
	live        []bool
	slotMetric  []float64
	slotOrd     []int32
	slotWitness []int32
	buckets     [][]bucketEnt
	idxBuf      []int32
}

// planRec is one plan: a candidate while its relation is being filled, a
// record once the relation kept it (planner.recs, named by its index there).
// It is fixed-size and holds no pointer, so storing, copying and clearing a
// candidate moves plain words.
type planRec struct {
	cost, internal, leafCost, rows float64
	rels                           RelSet
	op                             Op
	// outer and inner are the children's records (-1: none); a sort's or an
	// aggregation's input is outer. An indexed nested loop's inner is its
	// probe, named by aux through the lookup memo.
	outer, inner int32
	// clause indexes a.Q.Joins (joins only).
	clause int32
	// order is the output order: 0 for none, a global column id g for the
	// one-column order on that interesting column (every order below the
	// grouping planner has one column), ordOrderBy or ordGroupBy for the
	// query's ORDER BY or GROUP BY list.
	order int32
	// key names the record's plan key in ExportAll mode, 1-based: its
	// keyArena entry (packed lane) or the first entry of its leafArena row
	// (wide lane). A sort or aggregation starts with its input's, whose
	// leaves it shares.
	key int32
	// aux is a scan's index — its position in ctx.perRel, -1 for a
	// sequential scan — or an indexed nested loop's probe column, a global
	// column id into ctx.lookups.
	aux int32
	// sorts marks the merge-join inputs that need a sort on the clause
	// column (sortOuter, sortInner).
	sorts uint8
}

// Order references past the one-column orders (planRec.order).
const (
	ordOrderBy = -1
	ordGroupBy = -2
)

// Merge-join sort enforcers (planRec.sorts).
const (
	sortOuter = 1 << iota
	sortInner
)

// isScan reports whether op reads a base relation.
func isScan(op Op) bool { return op <= OpIndexOnlyScan }

// joinRel is one relation set of the DP table: its row estimate and the
// range of records it kept. An absent relation is the zero value.
type joinRel struct {
	set    RelSet
	rows   float64
	lo, hi int32
}

// orderOf returns the order an order reference stands for.
//
//pinum:hotpath
func (p *planner) orderOf(ord int32) []query.ColRef {
	switch {
	case ord > 0:
		return p.ctx.cols[ord : ord+1 : ord+1]
	case ord == ordOrderBy:
		return p.a.Q.OrderBy
	case ord == ordGroupBy:
		return p.a.Q.GroupBy
	}
	return nil
}

// orderSat is OrderSatisfies on order references.
//
//pinum:hotpath
func (p *planner) orderSat(have, want int32) bool {
	return want == 0 || have == want || OrderSatisfies(p.orderOf(have), p.orderOf(want))
}

// scanPaths keeps the access paths for one base relation: a single
// cheapest "any order" access plus one ordered access per interesting order
// the configuration covers. Folding every physical alternative into these
// slots is exactly the INUM abstraction: the plan cache later re-prices the
// slots under other configurations.
//
// Each of the relation's configuration indexes is priced once, here, for
// both kinds of access and for the nested-loop probes planned later
// (planCtx.lookup).
func (p *planner) scanPaths(rel int) joinRel {
	ri := &p.a.Rels[rel]
	set := Single(rel)
	facts := p.ctx.perRel[rel]
	for k := range facts {
		f := &facts[k]
		lead, indexOnly := ri.resolve(f.ix, f.ix.OnTable(ri.Table))
		f.order, f.indexOnly, f.cost = indexOfOrdinal(ri.orders, lead), indexOnly, p.a.indexScanCost(ri, f.ix, lead, indexOnly)
	}

	// Any-order access: cheapest of a seq scan and every index scan.
	bestCost := p.a.SeqScanCost(rel)
	bestOp := OpSeqScan
	bestIx := int32(-1)
	for k := range facts {
		if f := &facts[k]; f.cost < bestCost {
			bestCost = f.cost
			bestIx = int32(k)
			bestOp = scanOp(f.indexOnly)
		}
	}
	// Even when the cheapest access is an index scan that happens to
	// deliver an order, the Any slot advertises no pathkeys: the cached
	// model re-prices this slot under other configurations, where the
	// cheapest access may be unordered.
	p.addPlan(set, &planRec{
		op: bestOp, rels: set, rows: ri.Rows, cost: bestCost, leafCost: bestCost,
		outer: -1, inner: -1, aux: bestIx,
	})

	// Ordered access per interesting order covered by the configuration.
	for k := range ri.Interesting {
		best := math.Inf(1)
		via := int32(-1)
		for x := range facts {
			if f := &facts[x]; f.order == k && f.cost < best {
				best = f.cost
				via = int32(x)
			}
		}
		if via < 0 {
			continue
		}
		p.addPlan(set, &planRec{
			op: scanOp(facts[via].indexOnly), rels: set, rows: ri.Rows, cost: best, leafCost: best,
			order: int32(p.a.ordBase[rel]) + int32(k) + 1, outer: -1, inner: -1, aux: via,
		})
	}
	return p.finishRel(set, ri.Rows)
}

// scanOp is the operator of a scan through an index.
func scanOp(indexOnly bool) Op {
	if indexOnly {
		return OpIndexOnlyScan
	}
	return OpIndexScan
}

// metric is the ExportAll pruning metric: the provably-safe internal cost by
// default, the paper's literal total cost under PaperPrune.
func (p *planner) metric(cost, internal float64) float64 {
	if p.opt.PaperPrune {
		return cost
	}
	return internal
}

// addPlan admits a candidate whose key no screen has probed: a base-relation
// scan or a grouping-planner plan.
func (p *planner) addPlan(set RelSet, c *planRec) {
	if p.opt.ExportAll && p.ctx.packed {
		p.candKey(c)
	}
	p.admit(set, c)
}

// admit is the one admission rule for a candidate of the relation set under
// construction. In normal mode dominance is cheaper-or-equal total cost
// (within a relative 1e-9) with a satisfying output order, applied against
// the retained list. In ExportAll mode the DP generates orders of magnitude
// more candidates: each runs through the dominance frontier (frontier.go).
// A candidate on the packed lane arrives with its key already probed
// (joinPaths' screen, addPlan's candKey); the wide lane keys it here.
//
//pinum:hotpath
func (p *planner) admit(set RelSet, c *planRec) {
	p.stats.PathsConsidered++
	if p.opt.ExportAll {
		if !p.ctx.packed {
			p.wideProbe(set, p.leavesOf(c), p.orderOf(c.order))
		}
		if slot, ok := p.frontierAdd(p.metric(c.cost, c.internal), c.order); ok {
			*p.cands.at(slot), p.live[slot] = *c, true
		}
		return
	}
	const fuzz = 1e-9
	for i := int32(0); i < p.cands.n; i++ {
		if old := p.cands.at(i); p.orderSat(old.order, c.order) && old.cost <= c.cost*(1+fuzz) {
			p.stats.PathsPruned++
			return
		}
	}
	kept := int32(0)
	for i := int32(0); i < p.cands.n; i++ {
		if old := p.cands.at(i); p.orderSat(c.order, old.order) && c.cost <= old.cost*(1+fuzz) {
			p.stats.PathsPruned++
			continue
		}
		*p.cands.at(kept) = *p.cands.at(i)
		kept++
	}
	p.cands.n = kept
	p.cands.push(*c)
}

// leavesOf returns a wide-lane candidate's leaf requirements: the row its
// input kept, for a sort or an aggregation, or merged into leafBuf.
//
//pinum:hotpath
func (p *planner) leavesOf(c *planRec) []LeafReq {
	if c.key > 0 {
		return p.row(c.key)
	}
	p.leavesInto(c, p.leafBuf)
	return p.leafBuf
}

// row is the leafArena row of wide-lane key k.
//
//pinum:hotpath
func (p *planner) row(k int32) []LeafReq {
	return p.leafArena.span(k-1, int32(len(p.a.Rels)))
}

// leavesInto writes a scan's or a join's leaf requirements, one per query
// relation, into dst: a scan's own over the all-AccessAny row; a join's
// outer row, overlaid with the inner's for the inner's members or with the
// nested-loop probe's.
//
//pinum:hotpath
func (p *planner) leavesInto(c *planRec, dst []LeafReq) {
	if isScan(c.op) {
		for i := range dst {
			dst[i] = LeafReq{Coef: 1}
		}
		if c.order > 0 {
			col := p.ctx.cols[c.order]
			dst[col.Rel] = LeafReq{Mode: AccessOrdered, Col: col.Column, Coef: 1}
		}
		return
	}
	outer := p.recs.at(c.outer)
	copy(dst, p.row(outer.key))
	if c.op == OpNestLoop {
		col := p.ctx.cols[c.aux]
		dst[col.Rel] = LeafReq{Mode: AccessLookup, Col: col.Column, Coef: outer.rows}
		return
	}
	inner := p.recs.at(c.inner)
	ir := p.row(inner.key)
	for rel := range dst {
		if inner.rels.Has(rel) {
			dst[rel] = ir[rel]
		}
	}
}

// appendPathKey appends the (leaf combo, output order) identity the wide
// lane deduplicates ExportAll arrivals on — of a path, or of a candidate
// from its merged leaves. It avoids fmt for speed: this runs once per
// arrival. The packed lane packs the same identity into a fixed-size
// comparable struct instead (fastplan.go).
//
//pinum:hotpath
func appendPathKey(b []byte, rels RelSet, leaves []LeafReq, order []query.ColRef, preciseNLJ, byColumn bool) []byte {
	for rel := 0; rel < len(leaves); rel++ {
		if !rels.Has(rel) {
			continue
		}
		req := leaves[rel]
		if req.Mode == AccessAny {
			continue
		}
		mode := byte("aol"[req.Mode])
		if byColumn {
			mode = 'c'
		}
		b = append(b, byte('0'+rel), mode)
		b = append(b, req.Col...)
		if req.Mode == AccessLookup && preciseNLJ {
			b = strconv.AppendFloat(b, req.Coef, 'g', -1, 64)
		}
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, c := range order {
		b = append(b, byte('0'+c.Rel), '.')
		b = append(b, c.Column...)
		b = append(b, ';')
	}
	return b
}

// clauseRef is a join clause oriented for a specific (outer, inner) pair:
// the global column ids of its outer and inner side, which are also the
// one-column orders a merge join enforces on each side.
type clauseRef struct {
	idx          int32 // index into a.Q.Joins
	outer, inner int32
}

// joinPaths emits hash, merge, and nested-loop candidates joining
// outer × inner over the oriented clause list of the split (planCtx's
// crossClauses computes both orientations in one bitset pass). The packed
// ExportAll lane screens each candidate (fastplan.go) before a planRec is
// assembled for it.
//
//pinum:hotpath
func (p *planner) joinPaths(jr, outer, inner *joinRel, clauses []clauseRef) {
	if len(clauses) == 0 {
		return
	}
	c := &p.a.Coster
	set := jr.set

	// Every plan of a join relation carries the relation's row count
	// (TestJoinRelPathsShareRows), so the operator and enforcing-sort costs
	// are constants of the pair: priced once, not per outer × inner × clause.
	oRows, iRows, outRows := outer.rows, inner.rows, jr.rows
	hc := c.HashJoinCost(oRows, iRows, outRows)
	mc := c.MergeJoinCost(oRows, iRows, outRows)
	nc := c.NestLoopCost(oRows, outRows)
	outerSort, innerSort := c.SortCost(oRows), c.SortCost(iRows)
	cheapestInner := int32(-1)
	for i := inner.lo; i < inner.hi; i++ {
		if cheapestInner < 0 || p.recs.at(i).cost < p.recs.at(cheapestInner).cost {
			cheapestInner = i
		}
	}
	ncMat := nc + (math.Max(oRows, 1)-1)*c.MaterialRescanCost(iRows) +
		oRows*iRows*c.P.CPUOperatorCost*float64(len(clauses))

	// The packed ExportAll lane screens a candidate on its key before
	// admitting it; the wide lane keys the candidate in admit.
	exportFast := p.opt.ExportAll && p.ctx.packed

	// Indexed nested loops need a single-base-relation inner; the relation
	// index is loop-invariant.
	nljInner := p.opt.EnableNestLoop && inner.set.Count() == 1
	nljRel := 0
	if nljInner {
		nljRel = bits.TrailingZeros64(uint64(inner.set))
	}

	for o := outer.lo; o < outer.hi; o++ {
		op := p.recs.at(o)
		// The outer's order trimmed to what can still matter above set, which
		// every nested-loop candidate below inherits.
		var opOrd int32
		if p.opt.EnableNestLoop {
			opOrd = p.useful(set, op.order)
		}
		var ok *hashedKey
		if exportFast {
			ok = p.keyArena.at(op.key - 1)
		}

		for i := inner.lo; i < inner.hi; i++ {
			ip := p.recs.at(i)
			if exportFast {
				p.candOf(op, ok, ip)
			}
			// Hash join: order-insensitive, destroys ordering.
			cost, internal := op.cost+ip.cost+hc, op.internal+ip.internal+hc
			if !exportFast || !p.screen(0, cost, internal) {
				p.admit(set, &planRec{
					op: OpHashJoin, rels: set, rows: outRows,
					cost: cost, internal: internal, leafCost: op.leafCost + ip.leafCost,
					outer: o, inner: i, clause: clauses[0].idx,
				})
			}

			// Merge join per clause: inputs must be sorted on the clause
			// columns; explicit sorts are internal enforcers.
			for ci := range clauses {
				cl := &clauses[ci]
				osCost, osInternal, osOrder := op.cost, op.internal, op.order
				var sorts uint8
				if op.order != cl.outer {
					sorts = sortOuter
					osCost += outerSort
					osInternal += outerSort
					osOrder = cl.outer
				}
				isCost, isInternal := ip.cost, ip.internal
				if ip.order != cl.inner {
					sorts |= sortInner
					isCost += innerSort
					isInternal += innerSort
				}
				mOrd := p.useful(set, osOrder)
				cost, internal := osCost+isCost+mc, osInternal+isInternal+mc
				if exportFast && p.screen(mOrd, cost, internal) {
					continue
				}
				p.admit(set, &planRec{
					op: OpMergeJoin, rels: set, rows: outRows,
					cost: cost, internal: internal, leafCost: op.leafCost + ip.leafCost,
					order: mOrd, outer: o, inner: i, clause: cl.idx, sorts: sorts,
				})
			}
		}

		if !p.opt.EnableNestLoop {
			continue
		}

		// Indexed nested loop: inner must be a single base relation with
		// a configuration index on the join column.
		if nljInner {
			for ci := range clauses {
				cl := &clauses[ci]
				m := p.ctx.lookup(p.a, cl.inner)
				if m.ix == nil {
					continue
				}
				coef := oRows
				cost, internal := op.cost+coef*m.cost+nc, op.internal+nc
				if exportFast {
					p.candOf(op, ok, nil)
					p.candLeaf(nljRel, AccessLookup, m.id, coef)
					if p.screen(opOrd, cost, internal) {
						continue
					}
				}
				p.admit(set, &planRec{
					op: OpNestLoop, rels: set, rows: outRows,
					cost: cost, internal: internal, leafCost: op.leafCost + coef*m.cost,
					order: opOrd, outer: o, inner: -1, clause: cl.idx, aux: cl.inner,
				})
			}
		}

		// Materialised nested loop: rescan a materialised inner per outer
		// row. Only the cheapest inner is considered (the rescan cost
		// depends only on the inner's cardinality).
		if i := cheapestInner; i >= 0 {
			ip := p.recs.at(i)
			cost, internal := op.cost+ip.cost+ncMat, op.internal+ip.internal+ncMat
			if exportFast {
				p.candOf(op, ok, ip)
				if p.screen(opOrd, cost, internal) {
					continue
				}
			}
			p.admit(set, &planRec{
				op: OpNestLoopMat, rels: set, rows: outRows,
				cost: cost, internal: internal, leafCost: op.leafCost + ip.leafCost,
				order: opOrd, outer: o, inner: i, clause: clauses[0].idx,
			})
		}
	}
}

// useful trims an order to what can still matter above this relation set: a
// future merge join on a clause crossing to the set's complement, or the
// query's grouping/ordering columns. This mirrors PostgreSQL's
// canonical-pathkey usefulness test and collapses otherwise-identical plans
// whose orders can never be exploited again. The verdict depends only on
// (set, leading column), so it is memoized per join relation (usefulMemo).
//
//pinum:hotpath
func (p *planner) useful(set RelSet, ord int32) int32 {
	if ord > 0 && p.usefulMemo(set, uint16(ord)) {
		return ord
	}
	return 0
}

func (p *planner) usefulLead(set RelSet, lead query.ColRef) bool {
	for _, g := range p.a.Q.GroupBy {
		if g == lead {
			return true
		}
	}
	for _, o := range p.a.Q.OrderBy {
		if o == lead {
			return true
		}
	}
	for _, j := range p.a.Q.Joins {
		if j.Left == lead && !set.Has(j.Right.Rel) {
			return true
		}
		if j.Right == lead && !set.Has(j.Left.Rel) {
			return true
		}
	}
	return false
}

// orderCoversGroup reports whether the path order's prefix is exactly the
// group-by column set (grouping is order-insensitive across its columns).
func orderCoversGroup(order []query.ColRef, group []query.ColRef) bool {
	if len(order) < len(group) {
		return false
	}
	want := make(map[query.ColRef]bool, len(group))
	for _, g := range group {
		want[g] = true
	}
	for i := 0; i < len(group); i++ {
		if !want[order[i]] {
			return false
		}
	}
	return true
}

// finalize runs the grouping planner (paper §III) over the top relation's
// records: aggregation for GROUP BY and a final sort for ORDER BY, producing
// the complete-plan candidates. An input a candidate sorts or aggregates is
// kept as a record first; the candidates become records when the relation
// of complete plans finishes.
func (p *planner) finalize(top joinRel) joinRel {
	q := p.a.Q
	c := &p.a.Coster
	set := top.set

	// The group count depends on the row count, which top plans share.
	groups, groupRows := 0.0, -1.0
	for r := top.lo; r < top.hi; r++ {
		in := *p.recs.at(r)
		if len(q.GroupBy) == 0 {
			p.finish(set, in)
			continue
		}
		if in.rows != groupRows {
			groups, groupRows = p.a.GroupCount(q.GroupBy, in.rows), in.rows
		}

		// Hash aggregation: no input-order requirement, output unordered.
		hc := c.HashAggCost(in.rows, groups, len(q.GroupBy))
		p.finish(set, planRec{
			op: OpHashAgg, rels: in.rels, rows: groups,
			cost: in.cost + hc, internal: in.internal + hc, leafCost: in.leafCost,
			outer: r, inner: -1, key: in.key,
		})

		// Sorted aggregation: requires group-column order, preserves it.
		ir := r
		if !orderCoversGroup(p.orderOf(in.order), q.GroupBy) {
			ir = p.keep(p.sortRec(r, ordGroupBy))
			in = *p.recs.at(ir)
		}
		gc := c.SortedAggCost(in.rows, groups, len(q.GroupBy))
		p.finish(set, planRec{
			op: OpSortedAgg, rels: in.rels, rows: groups,
			cost: in.cost + gc, internal: in.internal + gc, leafCost: in.leafCost,
			order: in.order, outer: ir, inner: -1, key: in.key,
		})
	}
	out := p.finishRel(set, 0)
	p.stats.PathsRetained = int(out.hi - out.lo)
	return out
}

// finish admits a complete-plan candidate, under a final sort when it does
// not deliver the ORDER BY.
func (p *planner) finish(set RelSet, c planRec) {
	if q := p.a.Q; len(q.OrderBy) > 0 && !OrderSatisfies(p.orderOf(c.order), q.OrderBy) {
		c = p.sortRec(p.keep(c), ordOrderBy)
	}
	p.addPlan(set, &c)
}

// sortRec is the sort that enforces order ord on record r.
func (p *planner) sortRec(r, ord int32) planRec {
	in := p.recs.at(r)
	sc := p.a.Coster.SortCost(in.rows)
	return planRec{
		op: OpSort, rels: in.rels, rows: in.rows,
		cost: in.cost + sc, internal: in.internal + sc, leafCost: in.leafCost,
		order: ord, outer: r, inner: -1, key: in.key,
	}
}

// keep appends a record outside any relation's range — an input the
// grouping planner sorts or aggregates — and returns it.
func (p *planner) keep(c planRec) int32 {
	return p.recs.push(c)
}

// collectAccessCosts implements the §V-C hook: report the access cost of
// every configuration index on every relation, instead of discarding all
// but the cheapest. It reads the prices every relation's scanPaths put in
// its scanFacts.
func (p *planner) collectAccessCosts() []IndexAccess {
	var out []IndexAccess
	for rel := range p.a.Rels {
		ri := &p.a.Rels[rel]
		for _, f := range p.ctx.perRel[rel] {
			ia := IndexAccess{
				Rel:       rel,
				Index:     f.ix,
				ScanCost:  f.cost,
				IndexOnly: f.indexOnly,
			}
			if f.order >= 0 {
				ia.OrderCol = ri.Interesting[f.order]
				ia.LookupCost = p.a.lookupCost(ri, f.ix, ri.orders[f.order].val, f.indexOnly)
			}
			out = append(out, ia)
		}
	}
	return out
}
