// Connectivity-aware join enumeration for the planner, in the spirit
// of DPccp (Moerkotte & Neumann, VLDB 2006): instead of sweeping every
// relation subset and every submask split — discovering disconnected
// subproblems only through empty DP slots — the planner builds the query's
// join graph once per analysis from its join clauses and emits only
// csg-cmp pairs: (connected subgraph, connected complement) pairs with at
// least one join clause crossing them. Chain and snowflake queries thus
// enumerate O(#connected pairs) states instead of O(3^n) splits.
//
// The emitted pairs are re-sorted per union mask into the dense sweep's
// split order (the half containing the union's lowest relation, descending
// numerically), so the DP inserts candidates in exactly the dense sweep's
// sequence and every insertion-order tie-break — and therefore
// every exported plan sequence — stays byte-identical. The equivalence
// suite pins this across shapes, options, and configurations.
package optimizer

import (
	"math/bits"
	"sort"
)

// joinGraph is the query's join graph as one neighbor bitset per relation.
type joinGraph struct {
	n   int
	adj []RelSet
}

func newJoinGraph(a *Analysis) *joinGraph {
	g := &joinGraph{n: len(a.Rels), adj: make([]RelSet, len(a.Rels))}
	for _, j := range a.Q.Joins {
		g.adj[j.Left.Rel] |= Single(j.Right.Rel)
		g.adj[j.Right.Rel] |= Single(j.Left.Rel)
	}
	return g
}

// neighbors returns the neighborhood of s: every relation adjacent to a
// member of s, minus s itself.
func (g *joinGraph) neighbors(s RelSet) RelSet {
	var nb RelSet
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		v &^= 1 << uint(i)
		nb |= g.adj[i]
	}
	return nb &^ s
}

// csgCmpPair is one emitted DP state: sub is the connected half containing
// the lowest relation of the union mask, mask^sub the connected complement.
type csgCmpPair struct {
	mask RelSet
	sub  RelSet
}

// enumPairCap bounds the number of csg-cmp pairs the planner materialises.
// On dense graphs near the 16-relation cap the pair count approaches the
// dense sweep's 3^n split count — hundreds of MB of pairs on a 16-clique —
// while DPccp saves nothing there; past the cap planFast falls back to the
// allocation-free dense mask sweep. Sparse graphs (where DPccp matters)
// stay far below it: a 16-chain has 680 pairs. Variable so tests can
// exercise the fallback without a pathological query.
var enumPairCap = 1 << 21

// csgCmpPairs enumerates every csg-cmp pair of the graph exactly once via
// neighborhood expansion, then sorts them into DP order: union masks
// ascending (every proper submask of a union is numerically smaller, so
// both halves are always planned before the union), and within one union
// the csg half descending, reproducing the dense sweep's submask walk.
// The boolean is false when the pair count exceeded maxPairs and the
// (partial) enumeration was abandoned.
func (g *joinGraph) csgCmpPairs(maxPairs int) ([]csgCmpPair, bool) {
	c := &ccpCollector{g: g, max: maxPairs}
	for i := g.n - 1; i >= 0; i-- {
		v := Single(i)
		c.emitCsg(v)
		c.enumCsgRec(v, v|(v-1))
		if c.overflow {
			return nil, false
		}
	}
	out := c.pairs
	sort.Slice(out, func(i, j int) bool {
		if out[i].mask != out[j].mask {
			return out[i].mask < out[j].mask
		}
		return out[i].sub > out[j].sub
	})
	return out, true
}

// ccpCollector accumulates emitted pairs up to the cap; once overflow is
// set the recursion unwinds without emitting further.
type ccpCollector struct {
	g        *joinGraph
	pairs    []csgCmpPair
	max      int
	overflow bool
}

func (c *ccpCollector) emit(mask, sub RelSet) {
	if len(c.pairs) >= c.max {
		c.overflow = true
		return
	}
	c.pairs = append(c.pairs, csgCmpPair{mask: mask, sub: sub})
}

// emitCsg emits every pair whose connected subgraph is s1: one seed
// complement per neighbor above min(s1), taken in descending order, each
// expanded through enumCmpRec. Excluding the relations at or below min(s1)
// keeps the csg the canonical (lowest-relation) half of every pair;
// excluding the seed's lower co-neighbors leaves those complements to their
// own seeds, so no pair is emitted twice.
func (c *ccpCollector) emitCsg(s1 RelSet) {
	low := s1 & -s1
	x := s1 | (low - 1)
	nb := c.g.neighbors(s1) &^ x
	for v := nb; v != 0 && !c.overflow; {
		i := 63 - bits.LeadingZeros64(uint64(v))
		seed := Single(i)
		v &^= seed
		c.emit(s1|seed, s1)
		c.enumCmpRec(s1, seed, x|(nb&(seed|(seed-1))))
	}
}

// enumCmpRec grows the complement s2 by every subset of its neighborhood
// outside x, emitting each grown complement as a pair with s1, then
// recursing with the whole neighborhood excluded (the standard DPccp
// duplicate-avoidance protocol).
func (c *ccpCollector) enumCmpRec(s1, s2, x RelSet) {
	nb := c.g.neighbors(s2) &^ x
	if nb == 0 {
		return
	}
	for sub := nb.NextSubset(0); sub != 0 && !c.overflow; sub = nb.NextSubset(sub) {
		c.emit(s1|s2|sub, s1)
	}
	for sub := nb.NextSubset(0); sub != 0 && !c.overflow; sub = nb.NextSubset(sub) {
		c.enumCmpRec(s1, s2|sub, x|nb)
	}
}

// enumCsgRec grows the connected subgraph s1 by every subset of its
// neighborhood outside x, emitting the complements of each grown subgraph,
// then recursing with the neighborhood excluded.
func (c *ccpCollector) enumCsgRec(s1, x RelSet) {
	nb := c.g.neighbors(s1) &^ x
	if nb == 0 {
		return
	}
	for sub := nb.NextSubset(0); sub != 0 && !c.overflow; sub = nb.NextSubset(sub) {
		c.emitCsg(s1 | sub)
	}
	for sub := nb.NextSubset(0); sub != 0 && !c.overflow; sub = nb.NextSubset(sub) {
		c.enumCsgRec(s1|sub, x|nb)
	}
}
