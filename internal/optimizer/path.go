package optimizer

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

// RelSet is a bitset of base-relation indices within one query: the reason
// NewAnalysis refuses a query past MaxRels (64) relations.
type RelSet uint64

// Single returns the set containing only relation i.
func Single(i int) RelSet { return RelSet(1) << uint(i) }

// Has reports membership.
func (s RelSet) Has(i int) bool { return s&Single(i) != 0 }

// Count returns the cardinality.
func (s RelSet) Count() int { return bits.OnesCount64(uint64(s)) }

// NextSubset returns the next non-empty subset of s after cur in ascending
// numeric order, or 0 when cur was the last one (cur == s). Starting from
// cur == 0 and iterating until the return value is 0 therefore visits every
// non-empty subset of s exactly once, smallest first — the enumeration
// order DPccp's neighborhood expansion relies on (enumerate.go).
func (s RelSet) NextSubset(cur RelSet) RelSet { return (cur - s) & s }

// Members returns the member indices in ascending order.
func (s RelSet) Members() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// Op identifies a physical operator in a path/plan tree.
type Op uint8

const (
	OpSeqScan Op = iota
	OpIndexScan
	OpIndexOnlyScan
	OpSort
	OpHashJoin
	OpMergeJoin
	OpNestLoop    // nested loop with parameterized inner index lookup
	OpNestLoopMat // nested loop over a materialised inner
	OpHashAgg
	OpSortedAgg
)

// String returns the EXPLAIN name of the operator.
func (op Op) String() string {
	switch op {
	case OpSeqScan:
		return "Seq Scan"
	case OpIndexScan:
		return "Index Scan"
	case OpIndexOnlyScan:
		return "Index Only Scan"
	case OpSort:
		return "Sort"
	case OpHashJoin:
		return "Hash Join"
	case OpMergeJoin:
		return "Merge Join"
	case OpNestLoop:
		return "Nested Loop"
	case OpNestLoopMat:
		return "Nested Loop (materialized)"
	case OpHashAgg:
		return "HashAggregate"
	case OpSortedAgg:
		return "GroupAggregate"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// AccessMode describes how a cached plan's leaf reads a base relation at
// cost-model evaluation time.
type AccessMode int

const (
	// AccessAny reads the relation with whatever access path is cheapest
	// under the configuration (seq scan or any index).
	AccessAny AccessMode = iota
	// AccessOrdered reads the relation in the order of column Col; it
	// requires a configuration index whose leading column is Col.
	AccessOrdered
	// AccessLookup probes the relation by equality on Col once per outer
	// row (nested-loop inner); it requires an index leading on Col.
	AccessLookup
)

func (m AccessMode) String() string {
	switch m {
	case AccessAny:
		return "any"
	case AccessOrdered:
		return "ordered"
	case AccessLookup:
		return "lookup"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// LeafReq is a cached plan's requirement on one base relation: the access
// mode, the relevant column, and the multiplier applied to the access cost
// (1 for scans, the outer row count for nested-loop lookups).
type LeafReq struct {
	Mode AccessMode
	Col  string
	Coef float64
}

// Path is a node in the optimizer's path tree. Paths double as executable
// plans: the executor interprets them directly.
type Path struct {
	Op   Op
	Rels RelSet
	Rows float64
	Cost float64 // total cost under the planning-time configuration

	// Order is the sort order the path's output provides (pathkeys).
	Order []query.ColRef

	// Base scans.
	BaseRel int
	Index   *catalog.Index

	// Joins.
	Outer, Inner *Path
	JoinClause   query.Join // clause driving merge/NLJ pairing

	// Sort and aggregation.
	Child    *Path
	SortKeys []query.ColRef

	// INUM decomposition, maintained bottom-up:
	// Cost == Internal + Σ_i Leaves[i].Coef × leaf access cost_i, where
	// Internal covers joins, sorts and aggregation — everything that
	// depends only on row counts, not on access methods.
	Internal float64
	// LeafCost is Σ coef × access cost under the planning configuration.
	LeafCost float64
	// Leaves holds one requirement per query relation (len = number of
	// relations in the query); entries for relations outside Rels are
	// the zero requirement and must be ignored.
	Leaves []LeafReq
}

// tree returns the Path tree of record r. The planner keeps records, not
// Paths: a tree is built only for what a caller asks for — a Result's Best
// and, in ExportAll mode, its Exported plans — and memoised per record
// (p.trees), so plans share the subtree of every record they share, as the
// DP shares them. A merge join's enforcing sorts and a nested loop's probe
// are nodes of the join's own tree.
func (p *planner) tree(r int32) *Path {
	if t := p.trees[r]; t != nil {
		return t
	}
	c := p.recs.at(r)
	order := p.orderOf(c.order)
	if c.order > 0 {
		order = p.treeCols[c.order : c.order+1 : c.order+1]
	}
	t := &Path{
		Op: c.op, Rels: c.rels, Rows: c.rows, Cost: c.cost, Order: order,
		Internal: c.internal, LeafCost: c.leafCost,
	}
	n := len(p.a.Rels)
	switch {
	case isScan(c.op):
		col := p.treeCols[c.order]
		t.BaseRel = bits.TrailingZeros64(uint64(c.rels))
		if c.aux >= 0 {
			t.Index = p.ctx.perRel[t.BaseRel][c.aux].ix
		}
		t.Leaves = newLeaves(n)
		if c.order > 0 {
			t.Leaves[col.Rel] = LeafReq{Mode: AccessOrdered, Col: col.Column, Coef: 1}
		}
	case c.op == OpSort:
		t.Child = p.tree(c.outer)
		t.SortKeys, t.Leaves = t.Order, t.Child.Leaves
	case c.op == OpHashAgg || c.op == OpSortedAgg:
		t.Child = p.tree(c.outer)
		t.Leaves = t.Child.Leaves
	default:
		t.JoinClause = p.a.Q.Joins[c.clause]
		outerKey, innerKey := p.clauseSides(c)
		t.Outer = p.tree(c.outer)
		t.Leaves = make([]LeafReq, n)
		copy(t.Leaves, t.Outer.Leaves)
		if c.sorts&sortOuter != 0 {
			t.Outer = p.sortPath(t.Outer, outerKey)
		}
		if c.op == OpNestLoop {
			m, col := &p.ctx.lookups[c.aux], p.treeCols[c.aux]
			probe := LeafReq{Mode: AccessLookup, Col: col.Column, Coef: p.recs.at(c.outer).rows}
			t.Inner = &Path{
				Op: OpIndexScan, Rels: Single(col.Rel), Rows: m.rows, Cost: m.cost,
				BaseRel: col.Rel, Index: m.ix, Leaves: newLeaves(n),
			}
			t.Inner.Leaves[col.Rel], t.Leaves[col.Rel] = probe, probe
			break
		}
		t.Inner = p.tree(c.inner)
		for rel := range t.Leaves {
			if t.Inner.Rels.Has(rel) {
				t.Leaves[rel] = t.Inner.Leaves[rel]
			}
		}
		if c.sorts&sortInner != 0 {
			t.Inner = p.sortPath(t.Inner, innerKey)
		}
	}
	p.trees[r] = t
	return t
}

// startTrees readies the call for tree building.
func (p *planner) startTrees() {
	p.trees = fit(p.trees, int(p.recs.n))
	p.treeCols = slices.Clone(p.ctx.cols)
}

// clauseSides returns the global column ids of a join record's clause on
// its outer and its inner side: the one-column orders its merge-join sort
// enforcers impose.
func (p *planner) clauseSides(c *planRec) (outer, inner int32) {
	j := &p.a.Q.Joins[c.clause]
	l, r := int32(p.a.orderGID(j.Left)), int32(p.a.orderGID(j.Right))
	if p.recs.at(c.outer).rels.Has(j.Left.Rel) {
		return l, r
	}
	return r, l
}

// sortPath is the sort enforcing the one-column order on the column of
// global id g over child.
func (p *planner) sortPath(child *Path, g int32) *Path {
	keys := p.treeCols[g : g+1 : g+1]
	sc := p.a.Coster.SortCost(child.Rows)
	return &Path{
		Op: OpSort, Rels: child.Rels, Rows: child.Rows, Cost: child.Cost + sc, Order: keys,
		Child: child, SortKeys: keys, Internal: child.Internal + sc, LeafCost: child.LeafCost,
		Leaves: child.Leaves,
	}
}

// PlanSummary is the INUM decomposition of one complete plan's tree:
// exactly what the cached cost model (inum.Cache.Cost) consumes, read off
// a Path (inum.Cache.AddPath in the reference and INUM constructions,
// /explain). The library's builds never have a tree: Workspace.Export reads
// the same decomposition off the planner's records, already in a cache's
// leaf-slot form (Summary).
type PlanSummary struct {
	// Internal is the access-method-independent cost.
	Internal float64
	// Leaves holds one access requirement per query relation; one in
	// AccessLookup mode is a nested-loop probe.
	Leaves []LeafReq
}

// Summarize extracts the INUM decomposition of a complete plan over nRels
// relations. The leaf normalisation (AccessAny with coefficient 1 for
// every relation, overwritten by the plan's own requirements) is the one
// the plan cache has always applied, and the one Workspace.Export starts
// its summaries from: TestSlimExportsMatchTrees holds the two equal.
func Summarize(p *Path, nRels int) PlanSummary {
	leaves := newLeaves(nRels)
	copy(leaves, p.Leaves)
	return PlanSummary{Internal: p.Internal, Leaves: leaves}
}

// OrderSatisfies reports whether the order provided by `have` satisfies the
// requirement `want` (prefix semantics, as with PostgreSQL pathkeys).
func OrderSatisfies(have, want []query.ColRef) bool {
	if len(want) > len(have) {
		return false
	}
	for i := range want {
		if have[i] != want[i] {
			return false
		}
	}
	return true
}

// Signature returns a canonical structural identity for the path tree,
// excluding costs. Two paths with equal signatures are the same plan; the
// paper's §IV redundancy analysis counts unique signatures.
func (p *Path) Signature() string {
	var b strings.Builder
	b.Grow(256)
	p.writeSig(&b)
	return b.String()
}

func (p *Path) writeSig(b *strings.Builder) {
	switch p.Op {
	case OpSeqScan, OpIndexScan, OpIndexOnlyScan:
		// Identify base accesses by their INUM slot (mode + column), not
		// by operator or index name: under the cached model a leaf is an
		// access requirement, and interchangeable physical accesses are
		// the same plan.
		req := p.Leaves[p.BaseRel]
		b.WriteString([...]string{"any(", "ord(", "lookup("}[req.Mode])
		b.WriteString(strconv.Itoa(p.BaseRel))
		if req.Mode != AccessAny {
			b.WriteByte(':')
			b.WriteString(req.Col)
		}
		b.WriteByte(')')
	case OpSort:
		b.WriteString("sort[")
		for i, k := range p.SortKeys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('r') // k.String(), without fmt
			b.WriteString(strconv.Itoa(k.Rel))
			b.WriteByte('.')
			b.WriteString(k.Column)
		}
		b.WriteString("](")
		p.Child.writeSig(b)
		b.WriteString(")")
	case OpHashJoin, OpMergeJoin, OpNestLoop, OpNestLoopMat:
		switch p.Op {
		case OpHashJoin:
			b.WriteString("hj(")
		case OpMergeJoin:
			b.WriteString("mj(")
		case OpNestLoop:
			b.WriteString("nl(")
		default:
			b.WriteString("nlm(")
		}
		p.Outer.writeSig(b)
		b.WriteByte(',')
		p.Inner.writeSig(b)
		b.WriteString(")")
	case OpHashAgg:
		b.WriteString("hagg(")
		p.Child.writeSig(b)
		b.WriteString(")")
	case OpSortedAgg:
		b.WriteString("gagg(")
		p.Child.writeSig(b)
		b.WriteString(")")
	}
}

// newLeaves returns a fresh all-AccessAny requirement slice for n
// relations.
func newLeaves(n int) []LeafReq {
	out := make([]LeafReq, n)
	for i := range out {
		out[i].Coef = 1
	}
	return out
}

// comboSubsumes reports whether plan a's leaf requirements are dominated by
// plan b's in the paper's §V-D sense: under every configuration where b is
// applicable, a is applicable and a's total leaf access charge is no larger.
// Concretely, per relation of the (shared) relation set:
//
//   - b requires Ordered: a may require Any (an unordered access is never
//     costlier than an ordered one under the same configuration) or the
//     identical Ordered column;
//   - b requires Lookup: a must require a Lookup on the same column; with
//     preciseNLJ, a's probe count must additionally be no larger than b's
//     (the paper's §V-D "higher accuracy, bigger plan cache" refinement —
//     without it, nested-loop plans differing only in probe count collapse,
//     which is the paper's default, approximate treatment of NLJ);
//   - b requires Any: a must also require Any (a more demanding a cannot be
//     shown cheaper).
func comboSubsumes(a, b []LeafReq, rels RelSet, preciseNLJ bool) bool {
	for rel := 0; rel < len(a); rel++ {
		if !rels.Has(rel) {
			continue
		}
		ra, rb := a[rel], b[rel]
		switch rb.Mode {
		case AccessOrdered:
			if ra.Mode == AccessAny {
				continue
			}
			if ra.Mode != AccessOrdered || ra.Col != rb.Col {
				return false
			}
		case AccessLookup:
			if ra.Mode != AccessLookup || ra.Col != rb.Col {
				return false
			}
			if preciseNLJ && ra.Coef > rb.Coef {
				return false
			}
		default: // AccessAny
			if ra.Mode != AccessAny {
				return false
			}
		}
	}
	return true
}

// comboSubsumesByColumn is the paper's coarser §V-D subsumption: a
// combination slot is only the column an index must lead on; whether the
// plan consumes it as an ordered scan or a nested-loop probe is not
// distinguished. Plan a subsumes b when every a slot is Φ or names the
// same column as b's slot.
func comboSubsumesByColumn(a, b []LeafReq, rels RelSet) bool {
	for rel := 0; rel < len(a); rel++ {
		if !rels.Has(rel) {
			continue
		}
		ra, rb := a[rel], b[rel]
		if ra.Mode == AccessAny {
			continue
		}
		if rb.Mode == AccessAny || ra.Col != rb.Col {
			return false
		}
	}
	return true
}
