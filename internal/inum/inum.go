// Package inum implements the INUM plan cache and its linear cost model
// (Papadomanolakis, Dash, Ailamaki, VLDB'07), the baseline the paper builds
// PINUM on.
//
// A cache holds, per interesting order combination, an optimal internal
// plan: the join/sort/aggregation skeleton whose cost does not depend on
// how the leaves access their tables. Estimating a query's cost under an
// index configuration then requires no optimizer call: it is
//
//	min over cached plans p applicable under C of
//	    internal(p) + Σ_leaves coef × accessCost(leaf, C)
//
// accessCost depends only on (relation, leaf identity, C), and a relation
// with k interesting orders has 1 + 2k identities, so Cost prices C once
// into the query's leaf-slot table (optimizer.PriceLeafSlots, a few dozen
// floats on the caller's stack) and every plan reads it as an array: the
// cache's leaf arena holds, per plan and relation, the index of the leaf's
// slot in that table. Pricing groups C by table first
// (optimizer.ConfigByTable), so each relation folds only the indexes that
// can apply to it; the fold order that changes is immaterial, since a slot
// is a minimum and costs are positive. A caller pricing many queries under
// one configuration groups it once (CostByTable). A cache holds no memo
// and no lock: once built it is never written, which is what lets a cache
// bound from snapshot rows (FromRows) keep the caller's arrays as its own.
//
// Package core builds the same cache with just one optimizer call per
// nested-loop mode (the paper's contribution); this package provides the
// cache structure, the cost model, and the conventional one-call-per-
// combination construction used as the baseline. A PINUM build ends with
// Compact, which drops every entry that can never be the unique cheapest
// because another entry of the cache is never dearer under any
// configuration; that changes no cost. Cost returns the first cheapest
// entry in cache order.
package inum

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
)

// BuildStats records what cache construction cost.
type BuildStats struct {
	// OptimizerCalls is the number of full optimizer invocations.
	OptimizerCalls int
	// CombosEnumerated is the number of interesting order combinations
	// the constructor iterated.
	CombosEnumerated int
	// PlansSeen is the number of (not necessarily distinct) plans
	// returned by the optimizer.
	PlansSeen int
	// PlansCached is the number of plans retained.
	PlansCached int
	// PlansDominated is the number of plans Compact dropped because another
	// entry is never dearer (PlansCached excludes them). In a PINUM build it
	// includes each exact duplicate of an earlier call's plan, so there
	// PlansCached + PlansDominated = PlansSeen.
	PlansDominated int
	// Duration is the wall-clock construction time.
	Duration time.Duration
	// Planner aggregates the per-call planner work counters across every
	// optimizer invocation of the build, making the planner's work
	// (paths pruned, clause-set lookups, DP states visited by
	// the connectivity-aware enumeration, disconnected masks skipped)
	// observable per query, not just timed.
	Planner optimizer.PlannerStats
	// Mem snapshots the cache's retained memory at the end of the build
	// (entries and their approximate bytes).
	Mem MemStats
}

// MemStats reports a cache's retained memory: how many entries it holds
// and their approximate heap bytes.
type MemStats struct {
	// Entries is the number of cached plans.
	Entries int
	// EntryBytes approximates the cache's entries: the internal costs and
	// the leaf arenas.
	EntryBytes int64
}

// String renders the stats compactly.
func (m MemStats) String() string {
	return fmt.Sprintf("%d entries, ~%.1f KB", m.Entries, float64(m.EntryBytes)/1024)
}

// Cache is an INUM plan cache for one query. Cost and BestPlan only read
// it, so any number of goroutines may price configurations at once;
// construction (AddPath, AddSummary, Compact) is single-threaded.
// A cache holds its plans' INUM decompositions and no construction state.
// A PINUM build adds every plan the planner exported and drops duplicates
// with the dominated entries (Compact); the constructions that feed Path
// trees deduplicate before they add (PathSet).
type Cache struct {
	Q *query.Query
	A *optimizer.Analysis
	// Plans holds one entry per cached plan, in cache order: its internal
	// cost, the access-method-independent part (joins, sorts,
	// aggregation). The rest of the plan's INUM decomposition, its leaf
	// requirements, lives in the leaf arenas at the entry's ordinal, so an
	// entry is 8 bytes and Cache.Leaf reconstructs one requirement without
	// allocating. A leaf in AccessLookup mode is a nested-loop probe; an
	// entry carries no other flag.
	Plans []float64
	Stats BuildStats

	// Leaf arenas: entry idx's requirement on relation rel lives at index
	// idx×len(Q.Rels)+rel — the leaf's slot in A's leaf-slot table
	// (A.LeafSlot of its packed identity, computed once at insertion; it
	// fits two bytes because NewAnalysis admits no query past
	// optimizer.MaxLeafSlots, and A.LeafOfSlot recovers the identity) and
	// the float64 coefficient. Storing rows here instead of a []LeafReq per
	// entry is what keeps entries small (~3x fewer entry bytes); MemStats
	// measures it.
	leafSlot []uint16
	leafCoef []float64
}

// NewCache returns an empty cache over the analysed query.
func NewCache(a *optimizer.Analysis) *Cache {
	return &Cache{Q: a.Q, A: a}
}

// FromRows builds a cache over the analysed query from entries in the
// snapshot codec's form (Rows): per entry, its internal cost, and per entry
// and relation, entry-major, its packed leaf (optimizer.PackLeaf) and
// coefficient. It is the one validator of entries from outside a build
// (the snapshot may be foreign bytes): the query must have an entry, the
// lengths must agree, every internal cost and coefficient must be finite
// and non-negative, as pricing and Compact assume, and every packed leaf
// must name an identity of the analysis's interning
// (Analysis.CheckPackedLeaf). The cache keeps internal and coefs as its
// arenas, neither copied nor written (a later append reallocates); only the
// leaf-slot arena is new. Entry order, internal-cost bits and leaf
// requirements are kept exactly, and Cost answers match the cache the rows
// came from bit for bit.
func FromRows(a *optimizer.Analysis, internal []float64, packed []uint16, coefs []float64) (*Cache, error) {
	n, r := len(internal), len(a.Q.Rels)
	if n == 0 {
		return nil, fmt.Errorf("inum: query %s has no entries", a.Q.Name)
	}
	if len(packed) != n*r || len(coefs) != n*r {
		return nil, fmt.Errorf("inum: %d entries with %d packed leaves and %d coefficients for %d relations",
			n, len(packed), len(coefs), r)
	}
	slots := make([]uint16, n*r)
	for i, cost := range internal {
		if !(cost >= 0 && cost <= math.MaxFloat64) {
			return nil, fmt.Errorf("inum: query %s entry %d: internal cost %v is not finite and non-negative",
				a.Q.Name, i, cost)
		}
		for rel := 0; rel < r; rel++ {
			k := i*r + rel
			if !(coefs[k] >= 0 && coefs[k] <= math.MaxFloat64) {
				return nil, fmt.Errorf("inum: query %s entry %d: coefficient %v of relation %d is not finite and non-negative",
					a.Q.Name, i, coefs[k], rel)
			}
			if err := a.CheckPackedLeaf(rel, packed[k]); err != nil {
				return nil, err
			}
			slots[k] = uint16(a.LeafSlot(rel, packed[k]))
		}
	}
	c := &Cache{Q: a.Q, A: a, Plans: internal[:n:n], leafSlot: slots, leafCoef: coefs[: n*r : n*r]}
	c.Stats.PlansSeen, c.Stats.PlansCached = n, n
	c.Stats.Mem = c.MemStats()
	return c, nil
}

// Rows returns the cache's entries in the snapshot codec's form, entry-major
// in cache order: a view of the internal costs, the packed leaves
// (optimizer.PackLeaf, recovered from the arena's slot indexes) and a view
// of the coefficients, one leaf and one coefficient per relation per entry.
// FromRows inverts it. Callers must not mutate the views.
func (c *Cache) Rows() (internal []float64, packed []uint16, coefs []float64) {
	r := len(c.Q.Rels)
	packed = make([]uint16, len(c.leafSlot))
	for k, s := range c.leafSlot {
		packed[k] = c.A.LeafOfSlot(k%r, int(s))
	}
	return c.Plans[:len(c.Plans):len(c.Plans)], packed, c.leafCoef[:len(c.leafCoef):len(c.leafCoef)]
}

// Leaf reconstructs entry i's requirement on one relation from the arenas.
// It allocates nothing: the column string is the analysis's interned
// instance.
//
//pinum:hotpath
func (c *Cache) Leaf(i, rel int) optimizer.LeafReq {
	k := i*len(c.Q.Rels) + rel
	return c.A.UnpackLeaf(rel, c.A.LeafOfSlot(rel, int(c.leafSlot[k])), c.leafCoef[k])
}

// Combo derives the interesting order combination entry i requires (one
// entry per relation, "" for Φ). It allocates; hot paths use Leaf.
func (c *Cache) Combo(i int) query.OrderCombo {
	combo := make(query.OrderCombo, len(c.Q.Rels))
	for rel := range combo {
		if req := c.Leaf(i, rel); req.Mode != optimizer.AccessAny {
			combo[rel] = req.Col
		}
	}
	return combo
}

// AddPath appends one entry from an optimizer path tree: its summary
// (optimizer.Summarize) with each leaf packed (Analysis.PackLeaf) into the
// arenas' form. The cache keeps nothing of the tree and does not
// deduplicate; PathSet does, for the constructions that feed trees. Like
// AddSummary it counts the plan cached, and its caller the plans it saw.
func (c *Cache) AddPath(p *optimizer.Path) {
	s := optimizer.Summarize(p, len(c.Q.Rels))
	c.Plans = append(c.Plans, s.Internal)
	for rel, req := range s.Leaves {
		pk, err := c.A.PackLeaf(rel, req)
		if err != nil {
			// Planner-produced requirements always intern; anything else is
			// a programming error, not a recoverable input.
			panic(err)
		}
		c.leafSlot = append(c.leafSlot, uint16(c.A.LeafSlot(rel, pk)))
		c.leafCoef = append(c.leafCoef, req.Coef)
	}
	c.Stats.PlansCached++
}

// A PathSet adds plans to a cache from their Path trees, each distinct plan
// once, with Path.Signature as the plan identity. It is the deduplication
// of the two constructions that fill a cache from trees — Build, the INUM
// baseline, and core's reference construction — and lives beside the
// cache, not in it.
type PathSet struct {
	c    *Cache
	seen map[string]bool
}

// NewPathSet returns an empty set that adds to c.
func NewPathSet(c *Cache) *PathSet {
	return &PathSet{c: c, seen: make(map[string]bool)}
}

// Add counts p as a plan seen (BuildStats.PlansSeen) and adds it to the
// cache (AddPath) unless an earlier Add saw its signature. It reports
// whether p was new. The signature is computed before the (allocating)
// summary, so duplicate-heavy ExportAll streams pay only the string per
// duplicate.
func (s *PathSet) Add(p *optimizer.Path) bool {
	s.c.Stats.PlansSeen++
	sig := p.Signature()
	if s.seen[sig] {
		return false
	}
	s.seen[sig] = true
	s.c.AddPath(p)
	return true
}

// AddSummary appends one entry from a plan summary the planner exported
// (optimizer.Workspace.Export), already in the arenas' form: it copies the
// internal cost and the leaf-slot and coefficient rows, and
// keeps nothing of the summary. It does not deduplicate; Compact drops a
// later duplicate. Its caller counts the plans it saw (BuildStats.PlansSeen)
// from the planner.
func (c *Cache) AddSummary(s *optimizer.Summary) {
	c.Plans = append(c.Plans, s.Internal)
	c.leafSlot = append(c.leafSlot, s.Slots...)
	c.leafCoef = append(c.leafCoef, s.Coefs...)
	c.Stats.PlansCached++
}

// Compact drops every entry that another entry of the cache dominates, and
// reallocates the entry list and the leaf arenas at their exact size.
//
// Entry A dominates entry B when A's internal cost is ≤ B's and, on every
// relation, A's coefficient is ≤ B's and A's leaf is B's leaf, or A's leaf
// is the relation's AccessAny identity where B's is an AccessOrdered one.
// B is dropped when some other entry A dominates it and either B does not
// dominate A or A comes first in cache order; the kept entries keep their
// order. Cost never changes, bit for bit: a priced table's AccessAny slot
// is never above an AccessOrdered slot of its relation and always finite
// (PriceLeafSlots starts it at the sequential scan and folds every index
// scan into it), and FoldLeafRow's in-order sums and products of
// non-negative operands are monotone in each of them, so a dominating
// entry is applicable wherever its victim is and never dearer. Only the
// returned plan can change, and only on an exact tie. Lookup leaves must
// match exactly.
//
// A dominator shares its victim's row with every AccessOrdered leaf
// projected to its relation's AccessAny slot, and its ordered relations
// are a subset of the victim's. So the pass groups the entries into buckets
// by projected row and sorts each bucket by the number and the set of its
// entries' ordered relations, then internal cost, coefficient row and cache
// order: an order in which every entry comes after each entry that drops
// it. An entry is then dropped exactly when an entry of its bucket kept
// before it dominates it, and the kept entries are checked in runs of one
// ordered-relation set.
func (c *Cache) Compact() {
	n, r := len(c.Plans), len(c.Q.Rels)
	if n == 0 {
		return
	}
	// The sweep moves the kept keys to the front of keys, so keys[lo:kept]
	// are the current bucket's kept entries. A bucket's first entry is
	// always kept, so the last kept key tells where a new bucket starts.
	keys := c.compactOrder()
	keep := make([]bool, n)
	var runs []int // where each run of one ordered-relation set starts in keys[lo:kept]
	kept, lo := 0, 0
	for _, k := range keys {
		if kept > 0 && k.bucket != keys[kept-1].bucket {
			lo, runs = kept, runs[:0]
		}
		if !c.dominated(k, keys[lo:kept], runs) {
			if kept == lo || keys[kept-1].ordered != k.ordered {
				runs = append(runs, kept-lo)
			}
			keys[kept] = k
			keep[k.i] = true
			kept++
		}
	}

	plans := make([]float64, 0, kept)
	slots, coefs := make([]uint16, 0, kept*r), make([]float64, 0, kept*r)
	for i, internal := range c.Plans {
		if !keep[i] {
			continue
		}
		plans = append(plans, internal)
		slots = append(slots, c.leafSlot[i*r:i*r+r]...)
		coefs = append(coefs, c.leafCoef[i*r:i*r+r]...)
	}
	c.Plans, c.leafSlot, c.leafCoef = plans, slots, coefs
	c.Stats.PlansDominated += n - kept
	c.Stats.PlansCached -= n - kept
}

// compactKey is what Compact orders an entry by: its bucket (the ordinal of
// its projected row), then the number and the set of relations it reads in
// an order, then its internal cost, then its coefficient row and its
// ordinal i.
type compactKey struct {
	ordered   uint64 // bit rel: the entry's leaf on rel is AccessOrdered
	internal  float64
	bucket, i int32
}

// compactOrder returns every entry's key in Compact's order. A bucket is
// numbered by one map keyed by the bytes of its projected row, in order of
// first appearance; one sort then orders the keys.
func (c *Cache) compactOrder() []compactKey {
	n, r := len(c.Plans), len(c.Q.Rels)
	proj := c.slotProjection()
	// Every entry's projected row, two bytes a slot, in one string: a
	// bucket's map key is a substring of it and allocates nothing.
	var rows strings.Builder
	rows.Grow(2 * n * r)
	for _, s := range c.leafSlot {
		rows.WriteByte(byte(proj[s]))
		rows.WriteByte(byte(proj[s] >> 8))
	}
	all := rows.String()
	bucketOf := make(map[string]int32, n)
	keys := make([]compactKey, n)
	for i, internal := range c.Plans {
		var ordered uint64
		for rel, s := range c.leafSlot[i*r : i*r+r] {
			if proj[s] != s {
				ordered |= 1 << uint(rel)
			}
		}
		row := all[2*i*r : 2*(i+1)*r]
		b, ok := bucketOf[row]
		if !ok {
			b = int32(len(bucketOf))
			bucketOf[row] = b
		}
		keys[i] = compactKey{ordered, internal, b, int32(i)}
	}
	slices.SortFunc(keys, func(x, y compactKey) int {
		if x.bucket != y.bucket {
			return cmp.Compare(x.bucket, y.bucket)
		}
		if x.ordered != y.ordered {
			if d := bits.OnesCount64(x.ordered) - bits.OnesCount64(y.ordered); d != 0 {
				return d
			}
			return cmp.Compare(x.ordered, y.ordered)
		}
		if x.internal != y.internal {
			return cmp.Compare(x.internal, y.internal)
		}
		yc := c.leafCoef[int(y.i)*r:][:r]
		for rel, xc := range c.leafCoef[int(x.i)*r:][:r] {
			if xc != yc[rel] {
				return cmp.Compare(xc, yc[rel])
			}
		}
		return cmp.Compare(x.i, y.i)
	})
	return keys
}

// slotProjection maps every index of the query's leaf-slot table to itself,
// except an AccessOrdered identity's, which it maps to its relation's
// AccessAny slot.
func (c *Cache) slotProjection() []uint16 {
	proj := make([]uint16, c.A.NumLeafSlots())
	for s := range proj {
		proj[s] = uint16(s)
	}
	for rel := range c.Q.Rels {
		anyPk, _ := c.A.PackLeaf(rel, optimizer.LeafReq{Mode: optimizer.AccessAny})
		anySlot := uint16(c.A.LeafSlot(rel, anyPk))
		for _, col := range c.A.Rels[rel].Interesting {
			pk, err := c.A.PackLeaf(rel, optimizer.LeafReq{Mode: optimizer.AccessOrdered, Col: col})
			if err != nil {
				panic(err) // every interesting order is interned
			}
			proj[c.A.LeafSlot(rel, pk)] = anySlot
		}
	}
	return proj
}

// dominated reports whether one of the entries of bucket dominates entry b
// (Compact's rule), given that they all share b's projected row. The bucket
// comes in runs of one ordered-relation set, starting at runs: a run's set
// must be among b's relations, and an entry of it must read b's slots on
// them and have an internal cost and coefficients ≤ b's.
func (c *Cache) dominated(b compactKey, bucket []compactKey, runs []int) bool {
	r := len(c.Q.Rels)
	bs, bc := c.leafSlot[int(b.i)*r:][:r], c.leafCoef[int(b.i)*r:][:r]
	for ri, lo := range runs {
		ord := bucket[lo].ordered
		if ord&^b.ordered != 0 {
			continue
		}
		hi := len(bucket)
		if ri+1 < len(runs) {
			hi = runs[ri+1]
		}
	next:
		for _, a := range bucket[lo:hi] {
			if a.internal > b.internal {
				break // a run is in ascending internal cost
			}
			as, ac := c.leafSlot[int(a.i)*r:][:r], c.leafCoef[int(a.i)*r:][:r]
			for rel, cf := range ac {
				if cf > bc[rel] || ord&(1<<uint(rel)) != 0 && as[rel] != bs[rel] {
					continue next
				}
			}
			return true
		}
	}
	return false
}

// MemStats reports the cache's retained memory: the internal costs and the
// leaf arenas.
func (c *Cache) MemStats() MemStats {
	return MemStats{
		Entries:    len(c.Plans),
		EntryBytes: int64(len(c.Plans))*8 + int64(cap(c.leafSlot))*2 + int64(cap(c.leafCoef))*8,
	}
}

// Cost estimates the query's optimal cost under the configuration using
// only cached information — the operation that replaces an optimizer call.
// It returns the winning plan's ordinal: the first cheapest in cache order. On a
// compacted cache (every PINUM build's) that plan can differ from the
// uncompacted cache's only on an exact tie, and the cost never does. An
// error is returned only when no cached plan is applicable (an empty
// cache). The configuration (nil = empty) is grouped by table and priced
// once into the leaf-slot table; costs are bit-identical to folding
// Analysis.AccessCost per plan leaf. Grouping folds a relation's indexes
// in another order than the configuration's, which changes no slot
// (optimizer.ConfigByTable).
//
//pinum:hotpath
func (c *Cache) Cost(cfg *query.Config) (float64, int, error) {
	var buf [optimizer.LeafSlotsInline]float64
	return c.cost(c.A.PriceLeafSlots(buf[:0], cfg), cfg)
}

// CostByTable is Cost under a configuration grouped once for many
// queries (optimizer.GroupByTable): the same table, the same cost, the
// same plan ordinal.
//
//pinum:allocfree prices into a stack table; pinned by TestCostByTableAllocFree
func (c *Cache) CostByTable(g *optimizer.ConfigByTable) (float64, int, error) {
	var buf [optimizer.LeafSlotsInline]float64
	return c.cost(c.A.PriceLeafSlotsByTable(buf[:0], g), g.Config())
}

// cost picks the winning plan over a priced table.
func (c *Cache) cost(slots []float64, cfg *query.Config) (float64, int, error) {
	best, i := c.BestPlan(slots)
	if i < 0 {
		return 0, -1, fmt.Errorf("inum: no applicable cached plan for configuration %s", cfg)
	}
	return best, i, nil
}

// BestPlan runs the INUM fold over a priced leaf-slot table: per plan,
// internal + Σ coef × slot in relation order (optimizer.FoldLeafRow),
// first strictly better plan in cache order wins, so the winner is the
// first cheapest. It returns the winning cost and plan ordinal, or
// (+Inf, -1) when no plan is applicable. A PINUM build's cache holds no
// plan another plan is never dearer than (Compact). This is the one
// whole-cache loop: Cost and CostByTable differ only in how they obtain
// the table, and costmatrix prices the base table through it before it
// folds single entries (PlanCost).
//
//pinum:allocfree reads the arenas and the caller's table only; pinned by TestCostAllocFree
func (c *Cache) BestPlan(slots []float64) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	n := len(c.Q.Rels)
	for i, internal := range c.Plans {
		lo := i * n
		cost, ok := optimizer.FoldLeafRow(internal, c.leafSlot[lo:lo+n], c.leafCoef[lo:lo+n], slots)
		if ok && cost < best {
			best, bestIdx = cost, i
		}
	}
	return best, bestIdx
}

// PlanCost prices entry i alone over a priced leaf-slot table, by the
// fold BestPlan runs per entry (optimizer.FoldLeafRow). It reports false
// when the table cannot satisfy one of the entry's leaves.
//
//pinum:hotpath
func (c *Cache) PlanCost(i int, slots []float64) (float64, bool) {
	n := len(c.Q.Rels)
	lo := i * n
	return optimizer.FoldLeafRow(c.Plans[i], c.leafSlot[lo:lo+n], c.leafCoef[lo:lo+n], slots)
}

// PlanSlots returns a view of entry i's leaf row: per relation, the index
// of the slot the entry reads in the query's leaf-slot table. Callers must
// not mutate it.
func (c *Cache) PlanSlots(i int) []uint16 {
	n := len(c.Q.Rels)
	lo := i * n
	return c.leafSlot[lo : lo+n : lo+n]
}

// CoveringConfig builds the what-if configuration INUM optimizes under for
// one combination: per non-Φ slot, a covering index leading on the order
// column and including every other column the query needs from that
// relation, so that the optimizer actually exploits the order. The
// configuration is atomic for queries without self-joins; when the same
// table appears in two slots with *different* orders, one index per
// distinct (table, order) pair is emitted, since each relation occurrence
// picks its own access path.
func CoveringConfig(a *optimizer.Analysis, ws *whatif.Session, oc query.OrderCombo) (*query.Config, error) {
	cfg := &query.Config{}
	done := make(map[string]bool)
	for i, col := range oc {
		if col == "" {
			continue
		}
		table := a.Rels[i].Table.Name
		key := table + ":" + col
		if done[key] {
			continue
		}
		done[key] = true
		// Every slot sharing this (table, order) pair is served by the
		// same index, so cover the union of their needed columns.
		var occ uint64
		for j, cj := range oc {
			if cj == col && a.Rels[j].Table.Name == table {
				occ |= 1 << uint(j)
			}
		}
		ix, err := ws.CreateIndex(table, coveringColumns(col, neededColumns(a, occ))...)
		if err != nil {
			return nil, err
		}
		cfg.Indexes = append(cfg.Indexes, ix)
	}
	return cfg, nil
}

// AllOrdersConfig builds the configuration PINUM optimizes under: for every
// relation and every one of its interesting orders, a covering index
// leading on that order. The index of a (table, order) pair covers the
// union of the needed columns over every occurrence of the table for which
// the order is interesting, so self-join occurrences share one truly
// covering index; the first such occurrence makes it.
func AllOrdersConfig(a *optimizer.Analysis, ws *whatif.Session) (*query.Config, error) {
	cfg := &query.Config{}
	for i := range a.Rels {
		table := a.Rels[i].Table.Name
		for _, col := range a.Rels[i].Interesting {
			var occ uint64 // bit j: col is an interesting order of occurrence j
			for j := range a.Rels {
				if a.Rels[j].Table.Name != table {
					continue
				}
				if _, ok := slices.BinarySearch(a.Rels[j].Interesting, col); ok {
					occ |= 1 << uint(j)
				}
			}
			if occ&(1<<uint(i)-1) != 0 {
				continue // an earlier occurrence made this pair's index
			}
			ix, err := ws.CreateIndex(table, coveringColumns(col, neededColumns(a, occ))...)
			if err != nil {
				return nil, err
			}
			cfg.Indexes = append(cfg.Indexes, ix)
		}
	}
	return cfg, nil
}

// neededColumns is the sorted union of the columns the query needs from the
// relation occurrences in occ (bit j: relation j). A lone occurrence's is
// its Needed list, already sorted and distinct.
func neededColumns(a *optimizer.Analysis, occ uint64) []string {
	if occ&(occ-1) == 0 {
		return a.Rels[bits.TrailingZeros64(occ)].Needed
	}
	need := make(map[string]bool)
	for v := occ; v != 0; v &= v - 1 {
		for _, col := range a.Rels[bits.TrailingZeros64(v)].Needed {
			need[col] = true
		}
	}
	cols := make([]string, 0, len(need))
	for col := range need {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return cols
}

// coveringColumns returns lead followed by every other column of need, the
// sorted columns the index's relation occurrences need: the key of the one
// index built per (table, order) pair, which covers each of them.
func coveringColumns(lead string, need []string) []string {
	cols := make([]string, 1, len(need)+1)
	cols[0] = lead
	for _, col := range need {
		if col != lead {
			cols = append(cols, col)
		}
	}
	return cols
}

// Build constructs the cache the conventional INUM way: enumerate every
// interesting order combination and invoke the optimizer once per
// combination and nested-loop mode (2 × |combos| calls), caching each
// returned optimal plan.
func Build(a *optimizer.Analysis, ws *whatif.Session) (*Cache, error) {
	//pinum:nondeterministic-ok wall-clock feeds only Stats.Duration, never a plan or cost
	start := time.Now()
	c := NewCache(a)
	set := NewPathSet(c)
	combos := a.Q.EnumerateCombos()
	c.Stats.CombosEnumerated = len(combos)
	for _, oc := range combos {
		cfg, err := CoveringConfig(a, ws, oc)
		if err != nil {
			return nil, err
		}
		for _, nlj := range []bool{false, true} {
			res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: nlj})
			if err != nil {
				return nil, err
			}
			c.Stats.OptimizerCalls++
			c.Stats.Planner.Add(res.Stats)
			set.Add(res.Best)
		}
	}
	//pinum:nondeterministic-ok wall-clock feeds only Stats.Duration, never a plan or cost
	c.Stats.Duration = time.Since(start)
	c.Stats.Mem = c.MemStats()
	return c, nil
}

// AccessCostTable holds harvested per-index access costs, keyed by index
// name, as the physical designer consumes them.
type AccessCostTable struct {
	ByIndex map[string][]optimizer.IndexAccess
	// Calls is the number of optimizer invocations that completed
	// successfully while building the table.
	Calls int
	// Errors counts optimizer invocations that failed; the corresponding
	// candidates have no ByIndex entry. Callers deciding whether the table
	// is complete should check this instead of assuming silence means
	// success.
	Errors   int
	Duration time.Duration
}

// CollectAccessCostsNaive measures index access costs the way INUM must
// without optimizer hooks: one optimizer call per candidate index,
// extracting that index's access cost from the returned information
// (§V-C's "relatively inefficient" baseline). Optimizer failures are
// recorded in the table's Errors counter rather than dropped.
func CollectAccessCostsNaive(a *optimizer.Analysis, candidates []*catalog.Index) *AccessCostTable {
	//pinum:nondeterministic-ok wall-clock feeds only the table's Duration stat, never a cost
	start := time.Now()
	t := &AccessCostTable{ByIndex: make(map[string][]optimizer.IndexAccess)}
	for _, ix := range candidates {
		cfg := whatif.Config(ix)
		res, err := optimizer.Optimize(a, cfg, optimizer.Options{CollectAccessCosts: true})
		if err != nil {
			t.Errors++
			continue
		}
		t.Calls++
		for _, ia := range res.AccessCosts {
			if ia.Index.Name == ix.Name {
				t.ByIndex[ix.Name] = append(t.ByIndex[ix.Name], ia)
			}
		}
	}
	//pinum:nondeterministic-ok wall-clock feeds only the table's Duration stat, never a cost
	t.Duration = time.Since(start)
	return t
}
