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
// and Path materialisation deferred until a candidate survives the cheap
// screens. Its oracle lives with the tests (reference_test.go): the original
// loop — map-keyed dense mask sweep, per-direction clause rescans, eager
// candidates, string plan keys, a sort-and-all-pairs pruning pass per
// finished relation — written apart from this code and sharing only the
// cost model, Path and the §V-D predicates; the equivalence suites hold the
// two bit-identical.
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
	// dominated keys), arrivals screened out as dominated before
	// materialisation, and live keys evicted by a later-arriving dominator.
	// TestPlannerCountersGolden holds them to a record. Drops are the
	// frontier's headline saving: each is a Path (and its merged leaf
	// slice) never allocated.
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
	if len(a.Rels) == 0 {
		return nil, fmt.Errorf("optimizer: query %s has no relations", a.Q.Name)
	}
	p.reset(a, cfg, opt)
	defer p.release()
	top, err := p.planFast()
	if err != nil {
		return nil, err
	}
	final := p.finalize(top.paths)
	if len(final) == 0 {
		return nil, fmt.Errorf("optimizer: query %s produced no complete plan", a.Q.Name)
	}
	best := final[0]
	for _, pt := range final[1:] {
		if pt.Cost < best.Cost {
			best = pt
		}
	}
	p.res.Best = best
	if opt.ExportAll {
		p.res.Exported = final
	}
	if opt.CollectAccessCosts {
		p.collectAccessCosts()
	}
	return p.res, nil
}

// planner is one call's state and, behind a Workspace, the buffers the next
// call on it reuses (workspace.go): reset names every field that survives.
type planner struct {
	a   *Analysis
	opt Options
	res *Result

	// ctx is the per-call plan context (fastplan.go); rels is the DP table.
	ctx  planCtx
	rels relTable

	// recycle makes newPath and newLeaves draw on the slabs (workspace.go).
	recycle bool
	paths   slab[Path]
	leaves  slab[LeafReq]

	// ExportAll key-lane state for the join relation currently being
	// filled: where an arrival's frontier slot is found. The DP completes
	// one relation before starting the next, so one index serves the whole
	// call; finishRel drains and resets it per relation. cand is the
	// scratch both lanes leave the arrival's lookup in. The packed lane (ctx.packed) finds 32-byte keys through slots and
	// moves the kept paths' keys into keyArena (addressed by Path.pkRef;
	// arenaCoefs is its PreciseNLJ side array) where the joins built on top
	// of a finished relation read them. The wide lane finds appendPathKey
	// bytes through wideKeys and keeps each slot's leaf requirements —
	// len(a.Rels) per slot, over the relation set wideSet — in wideLeaves
	// for the subsumption test; leafBuf is where a join candidate's leaves
	// are merged. keyBuf holds the key bytes.
	slots      keyTable
	cand       candScratch
	keyArena   []hashedKey
	arenaCoefs []coefLanes
	wideKeys   map[string]int32
	wideLeaves []LeafReq
	wideSet    RelSet
	keyBuf     []byte
	leafBuf    []LeafReq

	// Per-slot frontier state, shared by both lanes and indexed by slot id
	// (first-arrival order): the candidate that holds the slot, the live
	// bit, the pruning metric and the dense output-order id. A slot that is not live is dead (dominated); its
	// metric stays recorded so later arrivals of the same key still dedup,
	// and a revival keeps the slot's original sequence number (the
	// first-insertion tie-break). slotWitness remembers the
	// slot that dominated a dead slot: domination between fixed keys is
	// static, so while the witness keeps metric ≤ the dead slot's (and, in
	// live-only mode, stays live) an improving dead slot stays dead without
	// re-running the frontier screen. buckets holds the live slots of each
	// output order in (metric, slot) order; idxBuf is the collection
	// scratch in finishRel.
	cands       []joinCand
	live        []bool
	slotMetric  []float64
	slotOrd     []int32
	slotWitness []int32
	buckets     [][]bucketEnt
	idxBuf      []int32
}

type joinRel struct {
	set   RelSet
	rows  float64
	paths []*Path
}

// scanPaths builds the access paths for one base relation: a single
// cheapest "any order" access plus one ordered access per interesting order
// the configuration covers. Folding every physical alternative into these
// slots is exactly the INUM abstraction: the plan cache later re-prices the
// slots under other configurations.
func (p *planner) scanPaths(rel int) *joinRel {
	ri := &p.a.Rels[rel]
	jr := &joinRel{set: Single(rel), rows: ri.Rows}

	// Any-order access: cheapest of a seq scan and every index scan.
	bestCost := p.a.SeqScanCost(rel)
	bestOp := OpSeqScan
	var bestIx *catalog.Index
	for _, ix := range p.ctx.perRel[rel] {
		f := p.a.IndexScanCost(rel, ix)
		if f.Cost < bestCost {
			bestCost = f.Cost
			bestIx = ix
			if f.IndexOnly {
				bestOp = OpIndexOnlyScan
			} else {
				bestOp = OpIndexScan
			}
		}
	}
	// Even when the cheapest access is an index scan that happens to
	// deliver an order, the Any slot advertises no pathkeys: the cached
	// model re-prices this slot under other configurations, where the
	// cheapest access may be unordered.
	p.addPath(jr, p.newPath(Path{
		Op:       bestOp,
		Rels:     jr.set,
		Rows:     ri.Rows,
		Cost:     bestCost,
		Order:    nil,
		BaseRel:  rel,
		Index:    bestIx,
		Internal: 0,
		LeafCost: bestCost,
		Leaves:   p.leavesFor(rel, LeafReq{Mode: AccessAny, Coef: 1}),
	}))

	// Ordered access per interesting order covered by the configuration.
	for _, col := range ri.Interesting {
		best := math.Inf(1)
		var via *catalog.Index
		indexOnly := false
		for _, ix := range p.ctx.perRel[rel] {
			if !ix.Covers(col) {
				continue
			}
			f := p.a.IndexScanCost(rel, ix)
			if f.Cost < best {
				best = f.Cost
				via = ix
				indexOnly = f.IndexOnly
			}
		}
		if via == nil {
			continue
		}
		op := OpIndexScan
		if indexOnly {
			op = OpIndexOnlyScan
		}
		p.addPath(jr, p.newPath(Path{
			Op:       op,
			Rels:     jr.set,
			Rows:     ri.Rows,
			Cost:     best,
			Order:    []query.ColRef{{Rel: rel, Column: col}},
			BaseRel:  rel,
			Index:    via,
			Internal: 0,
			LeafCost: best,
			Leaves:   p.leavesFor(rel, LeafReq{Mode: AccessOrdered, Col: col, Coef: 1}),
		}))
	}
	return jr
}

// metric is the ExportAll pruning metric: the provably-safe internal cost by
// default, the paper's literal total cost under PaperPrune.
func (p *planner) metric(cost, internal float64) float64 {
	if p.opt.PaperPrune {
		return cost
	}
	return internal
}

// addPath admits an already-built path: a base-relation scan or a complete
// plan.
func (p *planner) addPath(jr *joinRel, np *Path) {
	p.admit(jr, &joinCand{cost: np.Cost, internal: np.Internal, order: np.Order, pre: np})
}

// admit is the one admission rule for a candidate of jr. In normal mode
// dominance is cheaper-or-equal total cost (within a relative 1e-9) with a
// satisfying output order, applied against the retained list, and only a
// survivor is materialised. In ExportAll mode the DP generates orders of
// magnitude more candidates: each runs through the dominance frontier
// (frontier.go), which keeps it unbuilt until its relation drains. A join
// candidate on the packed lane arrives with its key already probed by
// joinPaths' screen; everything else is keyed here.
//
//pinum:hotpath
func (p *planner) admit(jr *joinRel, c *joinCand) {
	p.res.Stats.PathsConsidered++
	if p.opt.ExportAll {
		switch {
		case !p.ctx.packed && c.pre != nil:
			p.wideProbe(jr.set, c.pre.Leaves, c.order)
		case !p.ctx.packed:
			p.leafBuf = c.leaves(p.leafBuf)
			p.wideProbe(jr.set, p.leafBuf, c.order)
		case c.pre != nil:
			p.candPath(c.pre)
		}
		if slot, ok := p.frontierAdd(p.metric(c.cost, c.internal), c.order); ok {
			p.cands[slot], p.live[slot] = *c, true
		}
		return
	}
	const fuzz = 1e-9
	for _, old := range jr.paths {
		if OrderSatisfies(old.Order, c.order) && old.Cost <= c.cost*(1+fuzz) {
			p.res.Stats.PathsPruned++
			return
		}
	}
	np := c.materialize(p, jr)
	keep := jr.paths[:0]
	for _, old := range jr.paths {
		if OrderSatisfies(np.Order, old.Order) && np.Cost <= old.Cost*(1+fuzz) {
			p.res.Stats.PathsPruned++
			continue
		}
		keep = append(keep, old)
	}
	jr.paths = append(keep, np)
}

// joinCand is a candidate before materialisation: every number the pruning
// screens need, but no Path, no merged leaf slice, no sort enforcer and no
// nested-loop inner node. A candidate is materialised only once it survives
// the screens (in ExportAll mode the frontier keeps each slot's winner by
// value and materialises it at drain).
type joinCand struct {
	op       Op
	cost     float64
	order    []query.ColRef
	outer    *Path
	inner    *Path // nil for OpNestLoop (inner is built at materialise time)
	clause   int   // index into a.Q.Joins
	internal float64
	leafCost float64

	// pre is set, beside cost, internal and order, for an already-built
	// path (a base-relation scan or a complete plan).
	pre *Path

	// Merge-join sort enforcers: non-nil when the corresponding side
	// needs an explicit sort on these keys.
	sortOuterKey, sortInnerKey []query.ColRef

	// OpNestLoop parameterized inner, built at materialise time.
	nljRel   int
	nljIndex *catalog.Index
	nljCol   string
	nljCoef  float64
	nljRows  float64
	nljCost  float64
}

// materialize builds the full Path for a surviving candidate of jr,
// reproducing exactly the tree the original planner built eagerly.
//
//pinum:hotpath
func (c *joinCand) materialize(p *planner, jr *joinRel) *Path {
	if c.pre != nil {
		return c.pre
	}
	op := c.outer
	if c.sortOuterKey != nil {
		op = p.sortPath(op, c.sortOuterKey)
	}
	ip := c.inner
	if c.sortInnerKey != nil {
		ip = p.sortPath(ip, c.sortInnerKey)
	}
	if c.op == OpNestLoop {
		ip = p.newPath(Path{
			Op:      OpIndexScan,
			Rels:    Single(c.nljRel),
			Rows:    c.nljRows,
			Cost:    c.nljCost,
			BaseRel: c.nljRel,
			Index:   c.nljIndex,
			Order:   nil,
			Leaves:  p.leavesFor(c.nljRel, LeafReq{Mode: AccessLookup, Col: c.nljCol, Coef: c.nljCoef}),
		})
	}
	return p.newPath(Path{
		Op:         c.op,
		Rels:       jr.set,
		Rows:       jr.rows,
		Cost:       c.cost,
		Order:      c.order,
		Outer:      op,
		Inner:      ip,
		JoinClause: p.a.Q.Joins[c.clause],
		Internal:   c.internal,
		LeafCost:   c.leafCost,
		Leaves:     c.leaves(p.newLeaves()),
	})
}

// leaves writes the candidate's merged leaf requirements over dst[:0]: the
// outer's entries, overlaid with the inner's for the inner's members or with
// the nested-loop probe's. materialize keeps them; the wide lane keys on them.
//
//pinum:hotpath
func (c *joinCand) leaves(dst []LeafReq) []LeafReq {
	dst = append(dst[:0], c.outer.Leaves...)
	if c.op == OpNestLoop {
		dst[c.nljRel] = LeafReq{Mode: AccessLookup, Col: c.nljCol, Coef: c.nljCoef}
		return dst
	}
	for rel := range dst {
		if c.inner.Rels.Has(rel) {
			dst[rel] = c.inner.Leaves[rel]
		}
	}
	return dst
}

// leavesFor builds a requirement slice with a single non-default entry.
func (p *planner) leavesFor(rel int, req LeafReq) []LeafReq {
	out := p.newLeaves()
	out[rel] = req
	return out
}

// appendPathKey appends the (leaf combo, output order) identity the wide
// lane deduplicates ExportAll arrivals on — of a path, or of a join
// candidate from its merged leaves. It avoids fmt for speed: this runs once
// per arrival. The packed lane packs the same identity into a fixed-size
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

// clauseRef is a join clause oriented for a specific (outer, inner) pair,
// with the single-column sort-key slices that enforce each side's clause
// order and their packed order forms, prebuilt once per call (planCtx.reset).
type clauseRef struct {
	idx          int // index into a.Q.Joins
	outer, inner query.ColRef
	outerKey     []query.ColRef // sort keys enforcing outer-side clause order
	innerKey     []query.ColRef // sort keys enforcing inner-side clause order
	outerPack    [2]uint64
	innerPack    [2]uint64
}

// joinPaths emits hash, merge, and nested-loop candidates joining
// outer × inner over the oriented clause list of the split (planCtx's
// crossClauses computes both orientations in one bitset pass). The packed
// ExportAll lane screens each candidate (fastplan.go) before a joinCand is
// assembled for it.
//
//pinum:hotpath
func (p *planner) joinPaths(jr *joinRel, outer, inner *joinRel, clauses []clauseRef) {
	if len(clauses) == 0 {
		return
	}
	c := &p.a.Coster

	// Every path of a join relation carries the relation's row count
	// (TestJoinRelPathsShareRows), so the operator and enforcing-sort costs
	// are constants of the pair: priced once, not per outer × inner × clause.
	oRows, iRows, outRows := outer.rows, inner.rows, jr.rows
	hc := c.HashJoinCost(oRows, iRows, outRows)
	mc := c.MergeJoinCost(oRows, iRows, outRows)
	nc := c.NestLoopCost(oRows, outRows)
	outerSort, innerSort := c.SortCost(oRows), c.SortCost(iRows)
	var cheapestInner *Path
	for _, ip := range inner.paths {
		if cheapestInner == nil || ip.Cost < cheapestInner.Cost {
			cheapestInner = ip
		}
	}
	ncMat := nc + (math.Max(oRows, 1)-1)*c.MaterialRescanCost(iRows) +
		oRows*iRows*c.P.CPUOperatorCost*float64(len(clauses))

	// The packed ExportAll lane threads packed output orders alongside the
	// slices so candidate keys never re-intern columns; the wide lane
	// screens on the assembled candidate and takes the plain branches.
	exportFast := p.opt.ExportAll && p.ctx.packed

	// Indexed nested loops need a single-base-relation inner; the relation
	// index is loop-invariant.
	nljInner := p.opt.EnableNestLoop && inner.set.Count() == 1
	nljRel := 0
	if nljInner {
		nljRel = bits.TrailingZeros64(uint64(inner.set))
	}

	for _, op := range outer.paths {
		// op.Order's pack (op0, op1), and the trimmed op.Order with its pack
		// (nl0, nl1), which feed every nested-loop candidate below. Packs
		// travel as words: an array by value goes through memory.
		var opOrd []query.ColRef
		var op0, op1, nl0, nl1 uint64
		if exportFast {
			k := p.keyOf(op)
			op0, op1 = k.order[0], k.order[1]
		}
		if p.opt.EnableNestLoop {
			if !exportFast {
				opOrd = p.usefulOrder(jr.set, op.Order)
			} else if p.usefulFast(jr.set, op.Order, op0) {
				opOrd, nl0, nl1 = op.Order, op0, op1
			}
		}

		for _, ip := range inner.paths {
			if exportFast {
				p.candOf(op, ip)
			}
			// Hash join: order-insensitive, destroys ordering.
			cost, internal := op.Cost+ip.Cost+hc, op.Internal+ip.Internal+hc
			if !exportFast || !p.screen(0, 0, cost, internal) {
				p.admit(jr, &joinCand{
					op:       OpHashJoin,
					cost:     cost,
					outer:    op,
					inner:    ip,
					clause:   clauses[0].idx,
					internal: internal,
					leafCost: op.LeafCost + ip.LeafCost,
				})
			}

			// Merge join per clause: inputs must be sorted on the clause
			// columns; explicit sorts are internal enforcers.
			for ci := range clauses {
				cl := &clauses[ci]
				osCost, osInternal, osOrder, os0, os1 := op.Cost, op.Internal, op.Order, op0, op1
				var sortOuter []query.ColRef
				if !(len(op.Order) > 0 && op.Order[0] == cl.outer) {
					sortOuter = cl.outerKey
					osCost += outerSort
					osInternal += outerSort
					osOrder = sortOuter
					os0, os1 = cl.outerPack[0], cl.outerPack[1]
				}
				isCost, isInternal := ip.Cost, ip.Internal
				var sortInner []query.ColRef
				if !(len(ip.Order) > 0 && ip.Order[0] == cl.inner) {
					sortInner = cl.innerKey
					isCost += innerSort
					isInternal += innerSort
				}
				mOrd := osOrder
				if !exportFast {
					mOrd = p.usefulOrder(jr.set, osOrder)
				} else if !p.usefulFast(jr.set, osOrder, os0) {
					mOrd, os0, os1 = nil, 0, 0
				}
				cost, internal := osCost+isCost+mc, osInternal+isInternal+mc
				if exportFast && p.screen(os0, os1, cost, internal) {
					continue
				}
				p.admit(jr, &joinCand{
					op:           OpMergeJoin,
					cost:         cost,
					order:        mOrd,
					outer:        op,
					inner:        ip,
					clause:       cl.idx,
					internal:     internal,
					leafCost:     op.LeafCost + ip.LeafCost,
					sortOuterKey: sortOuter,
					sortInnerKey: sortInner,
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
				m := p.ctx.lookup(p.a, nljRel, cl.inner.Column)
				if m.ix == nil {
					continue
				}
				coef := oRows
				cost, internal := op.Cost+coef*m.cost+nc, op.Internal+nc
				if exportFast {
					p.candOf(op, nil)
					p.candLeaf(nljRel, AccessLookup, m.id, coef)
					if p.screen(nl0, nl1, cost, internal) {
						continue
					}
				}
				p.admit(jr, &joinCand{
					op:       OpNestLoop,
					cost:     cost,
					order:    opOrd,
					outer:    op,
					clause:   cl.idx,
					internal: internal,
					leafCost: op.LeafCost + coef*m.cost,
					nljRel:   nljRel,
					nljIndex: m.ix,
					nljCol:   cl.inner.Column,
					nljCoef:  coef,
					nljRows:  m.rows,
					nljCost:  m.cost,
				})
			}
		}

		// Materialised nested loop: rescan a materialised inner per outer
		// row. Only the cheapest inner is considered (the rescan cost
		// depends only on the inner's cardinality).
		if ip := cheapestInner; ip != nil {
			cost, internal := op.Cost+ip.Cost+ncMat, op.Internal+ip.Internal+ncMat
			if exportFast {
				p.candOf(op, ip)
				if p.screen(nl0, nl1, cost, internal) {
					continue
				}
			}
			p.admit(jr, &joinCand{
				op:       OpNestLoopMat,
				cost:     cost,
				order:    opOrd,
				outer:    op,
				inner:    ip,
				clause:   clauses[0].idx,
				internal: internal,
				leafCost: op.LeafCost + ip.LeafCost,
			})
		}
	}
}

// usefulOrder trims a path's advertised sort order to orders that can still
// matter above this relation set: a future merge join on a clause crossing
// to the set's complement, or the query's grouping/ordering columns. This
// mirrors PostgreSQL's canonical-pathkey usefulness test and collapses
// otherwise-identical plans whose orders can never be exploited again. The
// verdict depends only on (set, leading column), so it is memoized per join
// relation (usefulMemo).
func (p *planner) usefulOrder(set RelSet, order []query.ColRef) []query.ColRef {
	if len(order) > 0 && p.usefulMemo(set, order[0], p.a.orderGID(order[0])) {
		return order
	}
	return nil
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

// sortPath enforces keys on child.
func (p *planner) sortPath(child *Path, keys []query.ColRef) *Path {
	sc := p.a.Coster.SortCost(child.Rows)
	return p.newPath(Path{
		Op:       OpSort,
		Rels:     child.Rels,
		Rows:     child.Rows,
		Cost:     child.Cost + sc,
		Order:    keys,
		Child:    child,
		SortKeys: keys,
		Internal: child.Internal + sc,
		LeafCost: child.LeafCost,
		Leaves:   child.Leaves,
	})
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

// finalize runs the grouping planner (paper §III): aggregation for GROUP BY
// and a final sort for ORDER BY, producing the complete-plan candidates.
func (p *planner) finalize(paths []*Path) []*Path {
	q := p.a.Q
	out := &joinRel{set: paths[0].Rels}
	c := &p.a.Coster

	finish := func(path *Path) {
		if len(q.OrderBy) > 0 && !OrderSatisfies(path.Order, q.OrderBy) {
			path = p.sortPath(path, q.OrderBy)
		}
		p.addPath(out, path)
	}

	// The group count depends on the row count, which top paths share.
	groups, groupRows := 0.0, -1.0
	for _, path := range paths {
		if len(q.GroupBy) == 0 {
			finish(path)
			continue
		}
		if path.Rows != groupRows {
			groups, groupRows = p.a.GroupCount(q.GroupBy, path.Rows), path.Rows
		}

		// Hash aggregation: no input-order requirement, output unordered.
		hc := c.HashAggCost(path.Rows, groups, len(q.GroupBy))
		finish(p.newPath(Path{
			Op:       OpHashAgg,
			Rels:     path.Rels,
			Rows:     groups,
			Cost:     path.Cost + hc,
			Order:    nil,
			Child:    path,
			Internal: path.Internal + hc,
			LeafCost: path.LeafCost,
			Leaves:   path.Leaves,
		}))

		// Sorted aggregation: requires group-column order, preserves it.
		in := path
		if !orderCoversGroup(in.Order, q.GroupBy) {
			in = p.sortPath(in, q.GroupBy)
		}
		gc := c.SortedAggCost(in.Rows, groups, len(q.GroupBy))
		finish(p.newPath(Path{
			Op:       OpSortedAgg,
			Rels:     in.Rels,
			Rows:     groups,
			Cost:     in.Cost + gc,
			Order:    in.Order,
			Child:    in,
			Internal: in.Internal + gc,
			LeafCost: in.LeafCost,
			Leaves:   in.Leaves,
		}))
	}
	p.finishRel(out)
	p.res.Stats.PathsRetained = len(out.paths)
	return out.paths
}

// collectAccessCosts implements the §V-C hook: report the access cost of
// every configuration index on every relation, instead of discarding all
// but the cheapest.
func (p *planner) collectAccessCosts() {
	for rel := range p.a.Rels {
		ri := &p.a.Rels[rel]
		interesting := make(map[string]bool, len(ri.Interesting))
		for _, col := range ri.Interesting {
			interesting[col] = true
		}
		for _, ix := range p.ctx.perRel[rel] {
			f := p.a.IndexScanCost(rel, ix)
			ia := IndexAccess{
				Rel:       rel,
				Index:     ix,
				ScanCost:  f.Cost,
				IndexOnly: f.IndexOnly,
			}
			if interesting[ix.LeadColumn()] {
				ia.OrderCol = ix.LeadColumn()
				ia.LookupCost = p.a.LookupCost(rel, ix, ix.LeadColumn())
			}
			p.res.AccessCosts = append(p.res.AccessCosts, ia)
		}
	}
}
