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
// slot in that table. A cache holds no memo and no lock: once built it is
// never written.
//
// Package core builds the same cache with just one optimizer call per
// nested-loop mode (the paper's contribution); this package provides the
// cache structure, the cost model, and the conventional one-call-per-
// combination construction used as the baseline.
package inum

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
	"unsafe"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
)

// CachedPlan is one entry of the plan cache: an internal plan plus its leaf
// access requirements. The requirements live in the owning cache's leaf
// arenas (the two-byte index of the leaf's slot in the query's leaf-slot
// table plus the float64 coefficient per relation) rather than as a
// []LeafReq per entry; the entry itself holds only the arena ordinal. Leaf
// reconstructs a LeafReq on demand without allocating.
type CachedPlan struct {
	// Internal is the access-method-independent cost (joins, sorts,
	// aggregation).
	Internal float64
	// NLJ marks plans containing nested-loop joins; INUM tracks them
	// separately because their cost is only piecewise linear in access
	// costs.
	NLJ bool
	// Sig is the canonical structural signature (plan identity). Slim
	// entries drop it (dedup already happened at construction); it is ""
	// for them and for entries decoded from snapshots.
	Sig string
	// Path is the originating path tree, kept for EXPLAIN and execution.
	// Slim cache entries store nil: Cost never reads it, and dropping it
	// releases the DP planner's retained trees — the
	// dominant share of cache memory on wide ExportAll queries.
	Path *optimizer.Path

	// c is the owning cache; idx is this entry's ordinal, striding into
	// the cache's packed leaf arenas (every entry stores exactly one leaf
	// per query relation).
	c   *Cache
	idx int32
}

// NumRels is the number of leaf requirements (one per query relation).
func (cp *CachedPlan) NumRels() int { return len(cp.c.A.Q.Rels) }

// Leaf reconstructs the plan's requirement on one relation from the
// arenas. It allocates nothing: the column string is the analysis's
// interned instance.
//
//pinum:hotpath
func (cp *CachedPlan) Leaf(rel int) optimizer.LeafReq {
	c := cp.c
	i := int(cp.idx)*len(c.A.Q.Rels) + rel
	return c.A.UnpackLeaf(rel, c.A.LeafOfSlot(rel, int(c.leafSlot[i])), c.leafCoef[i])
}

// Combo derives the interesting order combination the plan requires (one
// entry per relation, "" for Φ). It allocates; hot paths use Leaf.
func (cp *CachedPlan) Combo() query.OrderCombo {
	n := cp.NumRels()
	combo := make(query.OrderCombo, n)
	for rel := 0; rel < n; rel++ {
		if req := cp.Leaf(rel); req.Mode != optimizer.AccessAny {
			combo[rel] = req.Col
		}
	}
	return combo
}

// PackedLeaves returns the entry's requirement row in the form the
// snapshot codec stores: the packed interned identities (optimizer.PackLeaf,
// converted from the arena's slot indexes into a fresh slice) and a view of
// the coefficients, one per relation. Callers must not mutate the view.
func (cp *CachedPlan) PackedLeaves() ([]uint16, []float64) {
	c := cp.c
	n := len(c.A.Q.Rels)
	lo := int(cp.idx) * n
	packed := make([]uint16, n)
	for rel := range packed {
		packed[rel] = c.A.LeafOfSlot(rel, int(c.leafSlot[lo+rel]))
	}
	return packed, c.leafCoef[lo : lo+n : lo+n]
}

// String renders the plan entry compactly.
func (cp *CachedPlan) String() string {
	return fmt.Sprintf("%s internal=%.2f nlj=%v", cp.Combo(), cp.Internal, cp.NLJ)
}

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
	// PlansCached is the number of unique plans retained.
	PlansCached int
	// Duration is the wall-clock construction time.
	Duration time.Duration
	// Planner aggregates the per-call planner work counters across every
	// optimizer invocation of the build, making the planner's work
	// (paths pruned, clause-set lookups, DP states visited by
	// the connectivity-aware enumeration, disconnected masks skipped)
	// observable per query, not just timed.
	Planner optimizer.PlannerStats
	// Mem snapshots the cache's retained memory at the end of the build
	// (entries, retained path-tree nodes, approximate bytes), so the
	// slim-cache saving is measurable per query.
	Mem MemStats
}

// MemStats reports a cache's retained memory: how many entries it holds,
// how many path-tree nodes those entries pin (0 for slim caches), and the
// approximate heap bytes of each part.
type MemStats struct {
	// Entries is the number of cached plans.
	Entries int
	// RetainedPathNodes counts the distinct Path nodes reachable from the
	// entries (shared subtrees counted once).
	RetainedPathNodes int
	// EntryBytes approximates the slim side of the cache: CachedPlan
	// structs, leaf-requirement slices, combos and signatures.
	EntryBytes int64
	// PathBytes approximates the retained path trees (0 for slim caches).
	PathBytes int64
}

// TotalBytes is the cache's whole approximate footprint.
func (m MemStats) TotalBytes() int64 { return m.EntryBytes + m.PathBytes }

// String renders the stats compactly.
func (m MemStats) String() string {
	return fmt.Sprintf("%d entries, %d path nodes, ~%.1f KB (%.1f KB entries + %.1f KB paths)",
		m.Entries, m.RetainedPathNodes,
		float64(m.TotalBytes())/1024, float64(m.EntryBytes)/1024, float64(m.PathBytes)/1024)
}

// Cache is an INUM plan cache for one query. Cost and BestPlan only read
// it, so any number of goroutines may price configurations at once;
// construction (AddPath, AddSummary, AddSlim, Seal) is single-threaded.
type Cache struct {
	Q     *query.Query
	A     *optimizer.Analysis
	Plans []*CachedPlan
	Stats BuildStats

	// slim caches hold no path tree or signature: their entries arrive as
	// summaries (AddSummary, from the planner) or snapshot rows (AddSlim),
	// deduplicated before they get here.
	slim bool

	// Leaf arenas: entry idx's requirement on relation rel lives at index
	// idx×len(Q.Rels)+rel — the leaf's slot in A's leaf-slot table
	// (A.LeafSlot of its packed identity, computed once at insertion; it
	// fits two bytes because NewAnalysis admits no query past
	// optimizer.MaxLeafSlots, and A.LeafOfSlot recovers the identity) and
	// the float64 coefficient. Storing rows here instead of a []LeafReq per
	// entry is what makes slim entries slim (~3x fewer entry bytes);
	// MemStats measures it.
	leafSlot []uint16
	leafCoef []float64

	sigs map[string]bool
}

// NewCache returns an empty tree-backed cache over the analysed query,
// filled by AddPath.
func NewCache(a *optimizer.Analysis) *Cache {
	return &Cache{Q: a.Q, A: a, sigs: make(map[string]bool)}
}

// NewSlimCache returns an empty slim cache over the analysed query, for
// entries that are only a plan's INUM decomposition (internal cost,
// per-relation leaf requirements) with no path tree or signature string:
// AddSummary's — the planner's exports, which Workspace.Export
// deduplicates — or AddSlim's from a snapshot. Cost results are
// bit-identical to a tree-backed cache built from the same plans: it reads
// neither. A slim cache has no signature map, so AddPath on one keeps the
// tree it is given without deduplication.
func NewSlimCache(a *optimizer.Analysis) *Cache {
	return &Cache{Q: a.Q, A: a, slim: true}
}

// Slim reports whether the cache was built to hold no path trees.
func (c *Cache) Slim() bool { return c.slim }

// AddPath converts an optimizer path into a cache entry that keeps the
// path tree and its signature, deduplicating by the signature. It reports
// whether the plan was new. On a sealed or slim cache there is no dedup map,
// so every path is admitted (as Seal documents); the signature is computed
// before the (allocating) summary so duplicate-heavy ExportAll streams pay
// only the string per duplicate.
func (c *Cache) AddPath(p *optimizer.Path) bool {
	c.Stats.PlansSeen++
	sig := p.Signature()
	if c.sigs != nil {
		if c.sigs[sig] {
			return false
		}
		c.sigs[sig] = true
	}
	s := optimizer.Summarize(p, len(c.Q.Rels))
	cp := c.appendEntry(s.Internal, s.NLJ)
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
	cp.Sig, cp.Path = sig, p
	c.Stats.PlansCached++
	return true
}

// AddSummary appends one entry from a plan summary the planner exported
// (optimizer.Workspace.Export), already deduplicated and already in the
// arenas' form: it copies the internal cost, the NLJ flag and the leaf-slot
// and coefficient rows, and keeps nothing of the summary. A slim build's
// caller counts the plans it saw (BuildStats.PlansSeen) from the planner.
func (c *Cache) AddSummary(s *optimizer.Summary) {
	c.appendEntry(s.Internal, s.NLJ)
	c.leafSlot = append(c.leafSlot, s.Slots...)
	c.leafCoef = append(c.leafCoef, s.Coefs...)
	c.Stats.PlansCached++
}

// appendEntry allocates the next entry and its arena row ordinal.
func (c *Cache) appendEntry(internal float64, nlj bool) *CachedPlan {
	cp := &CachedPlan{Internal: internal, NLJ: nlj, c: c, idx: int32(len(c.Plans))}
	c.Plans = append(c.Plans, cp)
	return cp
}

// AddSlim appends one slim entry from its stored packed decomposition —
// the snapshot decode path (internal/plancache), where dedup already
// happened at original construction time and no path tree exists. Each
// packed leaf is validated against the analysis's interning (the snapshot
// may be foreign bytes); the NLJ flag is re-derived from the packed modes
// exactly as Summarize derives it from a complete plan's requirements.
func (c *Cache) AddSlim(internal float64, packed []uint16, coefs []float64) (*CachedPlan, error) {
	if len(packed) != len(c.Q.Rels) || len(coefs) != len(c.Q.Rels) {
		return nil, fmt.Errorf("inum: slim entry with %d packed leaves and %d coefficients for %d relations",
			len(packed), len(coefs), len(c.Q.Rels))
	}
	nlj := false
	for rel, pk := range packed {
		if err := c.A.CheckPackedLeaf(rel, pk); err != nil {
			return nil, err
		}
		if optimizer.PackedNLJ(pk) {
			nlj = true
		}
	}
	cp := c.appendEntry(internal, nlj)
	for rel, pk := range packed {
		c.leafSlot = append(c.leafSlot, uint16(c.A.LeafSlot(rel, pk)))
	}
	c.leafCoef = append(c.leafCoef, coefs...)
	c.Stats.PlansSeen++
	c.Stats.PlansCached++
	return cp, nil
}

// Seal marks construction finished: the signature dedup map is dropped so
// its strings can be collected. Builders call it once every AddPath is
// done. A sealed cache is immutable — Cost writes nothing to it — though
// further AddPath calls would be admitted without deduplication.
func (c *Cache) Seal() {
	c.sigs = nil
}

// MemStats walks the cache and reports its retained memory: slim entry
// structures and, for tree-backed caches, the distinct path nodes the
// entries pin (shared DP subtrees counted once).
func (c *Cache) MemStats() MemStats {
	m := MemStats{Entries: len(c.Plans)}
	m.EntryBytes += int64(cap(c.leafSlot)) * 2
	m.EntryBytes += int64(cap(c.leafCoef)) * 8
	seen := make(map[*optimizer.Path]bool)
	for _, cp := range c.Plans {
		m.EntryBytes += int64(unsafe.Sizeof(*cp))
		m.EntryBytes += int64(len(cp.Sig))
		nodes, bytes := cp.Path.Footprint(seen)
		m.RetainedPathNodes += nodes
		m.PathBytes += bytes
	}
	return m
}

// Cost estimates the query's optimal cost under the configuration using
// only cached information — the operation that replaces an optimizer call.
// It returns the winning plan. An error is returned only when no cached
// plan is applicable (an empty cache). The configuration (nil = empty) is
// priced once into the leaf-slot table; costs are bit-identical to folding
// Analysis.AccessCost per plan leaf.
//
//pinum:hotpath
func (c *Cache) Cost(cfg *query.Config) (float64, *CachedPlan, error) {
	var buf [optimizer.LeafSlotsInline]float64
	best, i := c.BestPlan(c.A.PriceLeafSlots(buf[:0], cfg))
	if i < 0 {
		return 0, nil, fmt.Errorf("inum: no applicable cached plan for configuration %s", cfg)
	}
	return best, c.Plans[i], nil
}

// BestPlan runs the INUM fold over a priced leaf-slot table: per plan,
// internal + Σ coef × slot in relation order (optimizer.FoldLeafRow),
// first strictly better plan in cache order wins. It returns the winning
// cost and plan ordinal, or (+Inf, -1) when no plan is applicable. This is
// the one plan loop: Cost and costmatrix differ only in how they obtain
// the table.
//
//pinum:allocfree reads the arenas and the caller's table only; pinned by TestCostAllocFree and costmatrix.TestEvaluateCandidateAllocFree
func (c *Cache) BestPlan(slots []float64) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	n := len(c.Q.Rels)
	for i, cp := range c.Plans {
		lo := i * n
		cost, ok := optimizer.FoldLeafRow(cp.Internal, c.leafSlot[lo:lo+n], c.leafCoef[lo:lo+n], slots)
		if ok && cost < best {
			best, bestIdx = cost, i
		}
	}
	return best, bestIdx
}

// UniqueCombos returns the number of distinct order combinations among the
// cached plans (the paper's "useful plans" count).
func (c *Cache) UniqueCombos() int {
	seen := make(map[string]bool)
	for _, cp := range c.Plans {
		seen[cp.Combo().Key()] = true
	}
	return len(seen)
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
			c.AddPath(res.Best)
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
