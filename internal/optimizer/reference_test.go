// The reference planner: the original DP loop, kept with the tests as the
// oracle the shipped planner is held bit-identical to (OptimizeReference in
// export_test.go; the equivalence, construction and fuzz suites).
//
// It is independent of the planner it checks. It calls no planner method and
// none of the shipped candidate generation (joinPaths, scanPaths, finalize),
// frontier (frontier*) or DP loops (planFast*), so it can disagree with any
// of them. It sweeps every submask split of every relation subset over a
// map-keyed table, rescans the clause list per split and direction, builds
// every candidate eagerly as a Path from its own scan, join and grouping
// code, deduplicates ExportAll candidates on appendPathKey strings, and
// prunes each finished relation with a sort and an all-pairs pass (§V-D's
// batch rule). What it shares with the shipped planner is the cost model
// (Coster and the Analysis's access, row and group functions), Path and
// LeafReq, and the §V-D predicates (OrderSatisfies, comboSubsumes,
// comboSubsumesByColumn, appendPathKey).
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

// refPlanner is one reference call's state.
type refPlanner struct {
	a   *Analysis
	cfg *query.Config
	opt Options
	res *Result
}

// refRel is one relation set of the reference DP table.
type refRel struct {
	set   RelSet
	rows  float64
	paths []*Path
	// byKey deduplicates ExportAll candidates by (leaf combo, output order);
	// keyOrder records first insertion, so the batch pass's tie-breaks do
	// not depend on map iteration order. batchPrune folds both into paths.
	byKey    map[string]*Path
	keyOrder []string
}

// refClause is a join clause oriented for one (outer, inner) pair.
type refClause struct {
	idx          int // index into a.Q.Joins
	outer, inner query.ColRef
}

// optimizeReference plans (a, cfg, opt) with the reference loop. It refuses
// what the planner refuses — an option set outside the nine, through the same
// check — and, past 16 relations, what the sweep cannot visit: 3^n splits.
func optimizeReference(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	n := len(a.Rels)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query %s has no relations", a.Q.Name)
	}
	if n > 16 {
		return nil, fmt.Errorf("optimizer: query %s joins %d relations; the reference planner supports at most 16", a.Q.Name, n)
	}
	r := &refPlanner{a: a, cfg: cfg, opt: opt, res: &Result{}}
	top, err := r.sweep()
	if err != nil {
		return nil, err
	}
	final := r.grouping(top.paths)
	if len(final) == 0 {
		return nil, fmt.Errorf("optimizer: query %s produced no complete plan", a.Q.Name)
	}
	best := final[0]
	for _, pt := range final[1:] {
		if pt.Cost < best.Cost {
			best = pt
		}
	}
	r.res.Best = best
	if opt.ExportAll {
		r.res.Exported = final
	}
	if opt.CollectAccessCosts {
		r.collectAccessCosts()
	}
	return r.res, nil
}

// sweep runs the dense DP and returns the top relation. ExportAll relations
// leave it already pruned by the batch pass (batchPrune).
func (r *refPlanner) sweep() (*refRel, error) {
	n := len(r.a.Rels)
	rels := make(map[RelSet]*refRel)
	for i := 0; i < n; i++ {
		jr := r.accessPaths(i)
		r.batchPrune(jr)
		if len(jr.paths) == 0 {
			return nil, fmt.Errorf("optimizer: no access path for relation %d", i)
		}
		rels[jr.set] = jr
	}
	if n == 1 {
		r.res.Stats.JoinRels = 1
		return rels[Single(0)], nil
	}
	full := RelSet(1<<uint(n)) - 1
	for mask := RelSet(3); mask <= full; mask++ {
		if mask.Count() < 2 {
			continue
		}
		var jr *refRel
		low := mask & -mask
		// Every proper submask holding the lowest member: each unordered
		// split once.
		for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
			if s1&low == 0 {
				continue
			}
			r.res.Stats.EnumStates++
			s2 := mask ^ s1
			left, lok := rels[s1]
			right, rok := rels[s2]
			if !lok || !rok {
				continue
			}
			if len(r.clausesBetween(s1, s2)) == 0 {
				continue
			}
			if jr == nil {
				jr = &refRel{set: mask, rows: r.a.JoinRows(mask)}
			}
			r.joinCandidates(jr, left, right, r.clausesBetween(s1, s2))
			r.joinCandidates(jr, right, left, r.clausesBetween(s2, s1))
		}
		if jr == nil {
			// A disconnected subset: every split came up empty.
			r.res.Stats.MasksSkipped++
			continue
		}
		r.batchPrune(jr)
		rels[mask] = jr
	}
	r.res.Stats.JoinRels = len(rels)
	top, ok := rels[full]
	if !ok || len(top.paths) == 0 {
		return nil, fmt.Errorf("optimizer: join graph of query %s is disconnected", r.a.Q.Name)
	}
	return top, nil
}

// clausesBetween rescans the query's clause list for the clauses joining
// outer to inner, oriented that way.
func (r *refPlanner) clausesBetween(outer, inner RelSet) []refClause {
	r.res.Stats.ClauseLookups++
	var out []refClause
	for i, j := range r.a.Q.Joins {
		switch {
		case outer.Has(j.Left.Rel) && inner.Has(j.Right.Rel):
			out = append(out, refClause{idx: i, outer: j.Left, inner: j.Right})
		case outer.Has(j.Right.Rel) && inner.Has(j.Left.Rel):
			out = append(out, refClause{idx: i, outer: j.Right, inner: j.Left})
		}
	}
	return out
}

// configIndexes filters the configuration for relation rel's table, afresh
// on every call.
func (r *refPlanner) configIndexes(rel int) []*catalog.Index {
	if r.cfg == nil {
		return nil
	}
	var out []*catalog.Index
	for _, ix := range r.cfg.Indexes {
		if ix.Table == r.a.Rels[rel].Table.Name {
			out = append(out, ix)
		}
	}
	return out
}

// anyLeaves returns an all-AccessAny requirement row.
func (r *refPlanner) anyLeaves() []LeafReq {
	out := make([]LeafReq, len(r.a.Rels))
	for i := range out {
		out[i].Coef = 1
	}
	return out
}

// leavesFor returns an all-AccessAny requirement row with req on rel.
func (r *refPlanner) leavesFor(rel int, req LeafReq) []LeafReq {
	out := r.anyLeaves()
	out[rel] = req
	return out
}

// mergeLeaves is a join's requirement row: each side's entries for its own
// relations.
func (r *refPlanner) mergeLeaves(outer, inner *Path) []LeafReq {
	out := r.anyLeaves()
	for rel := range out {
		switch {
		case outer.Rels.Has(rel):
			out[rel] = outer.Leaves[rel]
		case inner.Rels.Has(rel):
			out[rel] = inner.Leaves[rel]
		}
	}
	return out
}

// accessPaths builds a base relation's access paths: the cheapest any-order
// access (advertising no order), then per interesting order the cheapest
// covering index scan.
func (r *refPlanner) accessPaths(rel int) *refRel {
	ri := &r.a.Rels[rel]
	jr := &refRel{set: Single(rel), rows: ri.Rows}
	bestCost, bestOp := r.a.SeqScanCost(rel), OpSeqScan
	var bestIx *catalog.Index
	for _, ix := range r.configIndexes(rel) {
		if f := r.a.IndexScanCost(rel, ix); f.Cost < bestCost {
			bestCost, bestIx, bestOp = f.Cost, ix, OpIndexScan
			if f.IndexOnly {
				bestOp = OpIndexOnlyScan
			}
		}
	}
	r.insert(jr, &Path{
		Op: bestOp, Rels: jr.set, Rows: ri.Rows, Cost: bestCost, BaseRel: rel, Index: bestIx,
		LeafCost: bestCost, Leaves: r.leavesFor(rel, LeafReq{Mode: AccessAny, Coef: 1}),
	})
	for _, col := range ri.Interesting {
		best, op := math.Inf(1), OpIndexScan
		var via *catalog.Index
		for _, ix := range r.configIndexes(rel) {
			if !ix.Covers(col) {
				continue
			}
			if f := r.a.IndexScanCost(rel, ix); f.Cost < best {
				best, via, op = f.Cost, ix, OpIndexScan
				if f.IndexOnly {
					op = OpIndexOnlyScan
				}
			}
		}
		if via == nil {
			continue
		}
		r.insert(jr, &Path{
			Op: op, Rels: jr.set, Rows: ri.Rows, Cost: best, Order: []query.ColRef{{Rel: rel, Column: col}},
			BaseRel: rel, Index: via, LeafCost: best,
			Leaves: r.leavesFor(rel, LeafReq{Mode: AccessOrdered, Col: col, Coef: 1}),
		})
	}
	return jr
}

// sortPath enforces keys on child.
func (r *refPlanner) sortPath(child *Path, keys []query.ColRef) *Path {
	sc := r.a.Coster.SortCost(child.Rows)
	return &Path{
		Op: OpSort, Rels: child.Rels, Rows: child.Rows, Cost: child.Cost + sc, Order: keys,
		Child: child, SortKeys: keys, Internal: child.Internal + sc, LeafCost: child.LeafCost, Leaves: child.Leaves,
	}
}

// sorted returns path itself when it is already ordered on col, else path
// under a sort on col.
func (r *refPlanner) sorted(path *Path, col query.ColRef) *Path {
	want := []query.ColRef{col}
	if OrderSatisfies(path.Order, want) {
		return path
	}
	return r.sortPath(path, want)
}

// usefulOrder keeps an order only while its leading column can still matter
// above set: a grouping or ordering column, or one side of a clause whose
// other side is outside set.
func (r *refPlanner) usefulOrder(set RelSet, order []query.ColRef) []query.ColRef {
	if len(order) == 0 {
		return nil
	}
	lead := order[0]
	if slices.Contains(r.a.Q.GroupBy, lead) || slices.Contains(r.a.Q.OrderBy, lead) {
		return order
	}
	for _, j := range r.a.Q.Joins {
		if j.Left == lead && !set.Has(j.Right.Rel) || j.Right == lead && !set.Has(j.Left.Rel) {
			return order
		}
	}
	return nil
}

// joinCandidates builds every hash, merge and nested-loop candidate joining
// outer × inner over the oriented clauses, pricing each from its own inputs.
func (r *refPlanner) joinCandidates(jr, outer, inner *refRel, clauses []refClause) {
	c := &r.a.Coster
	outRows := jr.rows
	var cheapestInner *Path
	for _, ip := range inner.paths {
		if cheapestInner == nil || ip.Cost < cheapestInner.Cost {
			cheapestInner = ip
		}
	}
	for _, op := range outer.paths {
		for _, ip := range inner.paths {
			hc := c.HashJoinCost(op.Rows, ip.Rows, outRows)
			r.insert(jr, &Path{
				Op: OpHashJoin, Rels: jr.set, Rows: outRows, Cost: op.Cost + ip.Cost + hc,
				Outer: op, Inner: ip, JoinClause: r.a.Q.Joins[clauses[0].idx],
				Internal: op.Internal + ip.Internal + hc, LeafCost: op.LeafCost + ip.LeafCost,
				Leaves: r.mergeLeaves(op, ip),
			})
			for _, cl := range clauses {
				os, is := r.sorted(op, cl.outer), r.sorted(ip, cl.inner)
				mc := c.MergeJoinCost(os.Rows, is.Rows, outRows)
				r.insert(jr, &Path{
					Op: OpMergeJoin, Rels: jr.set, Rows: outRows, Cost: os.Cost + is.Cost + mc,
					Order: r.usefulOrder(jr.set, os.Order), Outer: os, Inner: is, JoinClause: r.a.Q.Joins[cl.idx],
					Internal: os.Internal + is.Internal + mc, LeafCost: os.LeafCost + is.LeafCost,
					Leaves: r.mergeLeaves(os, is),
				})
			}
		}
		if !r.opt.EnableNestLoop {
			continue
		}
		if inner.set.Count() == 1 {
			rel := bits.TrailingZeros64(uint64(inner.set))
			for _, cl := range clauses {
				best := math.Inf(1)
				var via *catalog.Index
				for _, ix := range r.configIndexes(rel) {
					if !ix.Covers(cl.inner.Column) {
						continue
					}
					if lc := r.a.LookupCost(rel, ix, cl.inner.Column); lc < best {
						best, via = lc, ix
					}
				}
				if via == nil {
					continue
				}
				coef := op.Rows
				nc := c.NestLoopCost(op.Rows, outRows)
				probe := &Path{
					Op: OpIndexScan, Rels: inner.set, Rows: r.a.LookupRows(rel, cl.inner.Column), Cost: best,
					BaseRel: rel, Index: via,
					Leaves: r.leavesFor(rel, LeafReq{Mode: AccessLookup, Col: cl.inner.Column, Coef: coef}),
				}
				r.insert(jr, &Path{
					Op: OpNestLoop, Rels: jr.set, Rows: outRows, Cost: op.Cost + coef*best + nc,
					Order: r.usefulOrder(jr.set, op.Order), Outer: op, Inner: probe, JoinClause: r.a.Q.Joins[cl.idx],
					Internal: op.Internal + nc, LeafCost: op.LeafCost + coef*best,
					Leaves: r.mergeLeaves(op, probe),
				})
			}
		}
		if ip := cheapestInner; ip != nil {
			rescan := (math.Max(op.Rows, 1) - 1) * c.MaterialRescanCost(ip.Rows)
			pairs := op.Rows * ip.Rows * c.P.CPUOperatorCost * float64(len(clauses))
			nc := c.NestLoopCost(op.Rows, outRows) + rescan + pairs
			r.insert(jr, &Path{
				Op: OpNestLoopMat, Rels: jr.set, Rows: outRows, Cost: op.Cost + ip.Cost + nc,
				Order: r.usefulOrder(jr.set, op.Order), Outer: op, Inner: ip, JoinClause: r.a.Q.Joins[clauses[0].idx],
				Internal: op.Internal + ip.Internal + nc, LeafCost: op.LeafCost + ip.LeafCost,
				Leaves: r.mergeLeaves(op, ip),
			})
		}
	}
}

// grouping runs the grouping planner over the top relation's paths: hash and
// sorted aggregation for GROUP BY, a final sort for ORDER BY.
func (r *refPlanner) grouping(paths []*Path) []*Path {
	q, c := r.a.Q, &r.a.Coster
	out := &refRel{set: paths[0].Rels}
	finish := func(path *Path) {
		if len(q.OrderBy) > 0 && !OrderSatisfies(path.Order, q.OrderBy) {
			path = r.sortPath(path, q.OrderBy)
		}
		r.insert(out, path)
	}
	for _, path := range paths {
		if len(q.GroupBy) == 0 {
			finish(path)
			continue
		}
		groups := r.a.GroupCount(q.GroupBy, path.Rows)
		hc := c.HashAggCost(path.Rows, groups, len(q.GroupBy))
		finish(&Path{
			Op: OpHashAgg, Rels: path.Rels, Rows: groups, Cost: path.Cost + hc, Child: path,
			Internal: path.Internal + hc, LeafCost: path.LeafCost, Leaves: path.Leaves,
		})
		in := path
		if !refCoversGroup(in.Order, q.GroupBy) {
			in = r.sortPath(in, q.GroupBy)
		}
		gc := c.SortedAggCost(in.Rows, groups, len(q.GroupBy))
		finish(&Path{
			Op: OpSortedAgg, Rels: in.Rels, Rows: groups, Cost: in.Cost + gc, Order: in.Order, Child: in,
			Internal: in.Internal + gc, LeafCost: in.LeafCost, Leaves: in.Leaves,
		})
	}
	r.batchPrune(out)
	r.res.Stats.PathsRetained = len(out.paths)
	return out.paths
}

// refCoversGroup reports whether order's prefix is exactly the grouping
// column set, in any order.
func refCoversGroup(order, group []query.ColRef) bool {
	if len(order) < len(group) {
		return false
	}
	for _, o := range order[:len(group)] {
		if !slices.Contains(group, o) {
			return false
		}
	}
	return true
}

// metric is the ExportAll pruning metric: internal cost, or total cost under
// PaperPrune.
func (r *refPlanner) metric(pt *Path) float64 {
	if r.opt.PaperPrune {
		return pt.Cost
	}
	return pt.Internal
}

// insert adds a built candidate to jr. Normal mode keeps the
// cheapest-or-equal total cost per satisfying order against the retained
// list. ExportAll mode only deduplicates equal (leaf combo, output order)
// keys by metric here; batchPrune prunes.
func (r *refPlanner) insert(jr *refRel, np *Path) {
	r.res.Stats.PathsConsidered++
	if r.opt.ExportAll {
		key := string(appendPathKey(nil, np.Rels, np.Leaves, np.Order, r.opt.PreciseNLJ, r.opt.PaperPrune))
		if jr.byKey == nil {
			jr.byKey = make(map[string]*Path)
		}
		old, ok := jr.byKey[key]
		switch {
		case !ok:
			jr.keyOrder = append(jr.keyOrder, key)
		case r.metric(old) <= r.metric(np):
			r.res.Stats.PathsPruned++
			return
		default:
			r.res.Stats.PathsPruned++ // the displaced incumbent
		}
		jr.byKey[key] = np
		return
	}
	const fuzz = 1e-9
	dominates := func(a, b *Path) bool {
		return OrderSatisfies(a.Order, b.Order) && a.Cost <= b.Cost*(1+fuzz)
	}
	for _, old := range jr.paths {
		if dominates(old, np) {
			r.res.Stats.PathsPruned++
			return
		}
	}
	keep := jr.paths[:0]
	for _, old := range jr.paths {
		if dominates(np, old) {
			r.res.Stats.PathsPruned++
			continue
		}
		keep = append(keep, old)
	}
	jr.paths = append(keep, np)
}

// batchPrune is the §V-D batch pass over a completed relation in ExportAll
// mode: drop path B when a path A with metric ≤ B's provides B's output
// order and its leaf combo subsumes B's.
func (r *refPlanner) batchPrune(jr *refRel) {
	if !r.opt.ExportAll {
		return
	}
	paths := make([]*Path, 0, len(jr.keyOrder))
	for _, k := range jr.keyOrder {
		paths = append(paths, jr.byKey[k])
	}
	subsumes := func(a, b *Path) bool { return comboSubsumes(a.Leaves, b.Leaves, jr.set, r.opt.PreciseNLJ) }
	if r.opt.PaperPrune {
		subsumes = func(a, b *Path) bool { return comboSubsumesByColumn(a.Leaves, b.Leaves, jr.set) }
	}
	// Ascending metric, ties in first-insertion order, so the dominator scan
	// stops at the first larger metric. A candidate is compared against every
	// path with metric ≤ its own, dominated ones included (domination is
	// transitive).
	sort.SliceStable(paths, func(i, j int) bool { return r.metric(paths[i]) < r.metric(paths[j]) })
	var kept []*Path
	for i, cand := range paths {
		dominated := false
		for j, a := range paths {
			if r.metric(a) > r.metric(cand) {
				break
			}
			if j != i && OrderSatisfies(a.Order, cand.Order) && subsumes(a, cand) {
				dominated = true
				break
			}
		}
		if dominated {
			r.res.Stats.PathsPruned++
			continue
		}
		kept = append(kept, cand)
	}
	jr.paths, jr.byKey, jr.keyOrder = kept, nil, nil
}

// collectAccessCosts reports the scan cost of every configuration index on
// every relation, and its lookup cost when it leads on an interesting order.
func (r *refPlanner) collectAccessCosts() {
	for rel := range r.a.Rels {
		for _, ix := range r.configIndexes(rel) {
			f := r.a.IndexScanCost(rel, ix)
			ia := IndexAccess{Rel: rel, Index: ix, ScanCost: f.Cost, IndexOnly: f.IndexOnly}
			if lead := ix.LeadColumn(); slices.Contains(r.a.Rels[rel].Interesting, lead) {
				ia.OrderCol, ia.LookupCost = lead, r.a.LookupCost(rel, ix, lead)
			}
			r.res.AccessCosts = append(r.res.AccessCosts, ia)
		}
	}
}
