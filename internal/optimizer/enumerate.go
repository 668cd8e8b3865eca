// Connectivity-aware join enumeration for the planner, in the spirit
// of DPccp (Moerkotte & Neumann, VLDB 2006): instead of sweeping every
// relation subset and every submask split — discovering disconnected
// subproblems only through empty DP slots — the planner builds the query's
// join graph once per analysis from its join clauses and emits only
// csg-cmp pairs: (connected subgraph, connected complement) pairs with at
// least one join clause crossing them. Chain and snowflake queries thus
// enumerate O(#connected pairs) states instead of O(3^n) splits.
//
// The emitted pairs are re-sorted per union mask into a dense sweep's
// split order (the half containing the union's lowest relation, descending
// numerically), so the DP inserts candidates in exactly the sequence of
// the test oracle, a dense sweep (reference_test.go), and every
// insertion-order tie-break — and therefore every exported plan sequence —
// stays byte-identical. The equivalence suite pins this across shapes,
// options, and configurations. This is the planner's only enumerator: a
// graph with more than enumPairCap pairs is refused, not swept.
package optimizer

import (
	"errors"
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

// enumPairCap bounds the number of csg-cmp pairs the planner enumerates.
// It is the planner's one admission rule for join graphs: a graph with more
// pairs is refused (ErrTooDense) at any relation count, as PostgreSQL's
// geqo_threshold refuses exhaustive DP. Sparse graphs, where DPccp matters,
// stay far below it (a 16-chain has 680 pairs); cliques reach it first: a
// 13-clique has 788 970 pairs and fits, a 14-clique has 2 375 101.
const enumPairCap = 1 << 21

// ErrTooDense is wrapped by the error a planner call returns for a query
// whose join graph has more than enumPairCap csg-cmp pairs; the message
// names the relation count and the cap. It is the caller's input that is
// refused, so servers answer it as a bad request.
var ErrTooDense = errors.New("join graph too dense to enumerate")

// csgCmpPairs enumerates every csg-cmp pair of the graph exactly once via
// neighborhood expansion, then sorts them into DP order: union masks
// ascending (every proper submask of a union is numerically smaller, so
// both halves are always planned before the union), and within one union
// the csg half descending, reproducing the dense sweep's submask walk.
// A first pass only counts, abandoning the walk once the count passes
// enumPairCap, so an overflow is detected without allocating; the boolean
// is then false. A graph that fits is walked again into a slice of exact
// size.
func (g *joinGraph) csgCmpPairs() ([]csgCmpPair, bool) {
	c := &ccpCollector{g: g}
	if c.walk(); c.n > enumPairCap {
		return nil, false
	}
	c.pairs = make([]csgCmpPair, c.n)
	c.walk()
	out := c.pairs
	sort.Slice(out, func(i, j int) bool {
		if out[i].mask != out[j].mask {
			return out[i].mask < out[j].mask
		}
		return out[i].sub > out[j].sub
	})
	return out, true
}

// ccpCollector counts emitted pairs in n, storing each while n is below
// len(pairs): the counting pass has no slice, the collecting pass one of
// exactly the counted size. Once n passes enumPairCap the recursion
// unwinds without emitting further.
type ccpCollector struct {
	g     *joinGraph
	pairs []csgCmpPair
	n     int
}

// walk restarts the count and emits every pair, seeding one connected
// subgraph per relation from the highest down.
func (c *ccpCollector) walk() {
	c.n = 0
	for i := c.g.n - 1; i >= 0 && c.n <= enumPairCap; i-- {
		v := Single(i)
		c.emitCsg(v)
		c.enumCsgRec(v, v|(v-1))
	}
}

func (c *ccpCollector) emit(mask, sub RelSet) {
	if c.n < len(c.pairs) {
		c.pairs[c.n] = csgCmpPair{mask: mask, sub: sub}
	}
	c.n++
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
	for v := nb; v != 0 && c.n <= enumPairCap; {
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
	for sub := nb.NextSubset(0); sub != 0 && c.n <= enumPairCap; sub = nb.NextSubset(sub) {
		c.emit(s1|s2|sub, s1)
	}
	for sub := nb.NextSubset(0); sub != 0 && c.n <= enumPairCap; sub = nb.NextSubset(sub) {
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
	for sub := nb.NextSubset(0); sub != 0 && c.n <= enumPairCap; sub = nb.NextSubset(sub) {
		c.emitCsg(s1 | sub)
	}
	for sub := nb.NextSubset(0); sub != 0 && c.n <= enumPairCap; sub = nb.NextSubset(sub) {
		c.enumCsgRec(s1|sub, x|nb)
	}
}
