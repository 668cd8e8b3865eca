package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
)

// RelInfo is the per-relation planning state derived once per query:
// applied filters, their combined selectivity, the columns the query
// touches, the relation's interesting orders, and every pricing fact that
// depends on the table and the statistics alone.
//
// Immutability is required, not merely observed: NewAnalysis reads
// Table.RowCount, Table.Pages, the column widths and the statistics once
// and the pricing calls below never look at them again, so a table or a
// statistics store must not change under a live analysis. Loaders and
// reloads build a fresh catalog, store and analysis per environment.
type RelInfo struct {
	Rel     int
	Table   *catalog.Table
	Filters []query.Filter
	// Sel is the combined selectivity of all filters.
	Sel float64
	// Rows is Table.RowCount × Sel.
	Rows float64
	// Needed lists every column of this relation the query references,
	// sorted.
	Needed []string
	// Interesting lists this relation's interesting orders, sorted.
	Interesting []string

	// The names above resolved to Table's column ordinals, once, so pricing
	// a bound index (catalog.Index.Bind) compares no string: Needed as a
	// bitset (meaningful up to 64 columns — no index binds to a wider
	// table); each filtered column with the combined selectivity of the
	// filters on it, which is what an index range scan leading on that
	// column applies (a relation filters 0–3 columns: a short list,
	// scanned); and each interesting order, aligned with Interesting, with
	// its LookupRows.
	neededMask uint64
	filtered   []colValue
	orders     []colValue

	// The configuration-independent pricing facts, fixed at NewAnalysis:
	// the sequential-scan cost and the heap's page count and tuples per
	// page (what an index scan's heap visits are charged on).
	seqScan     float64
	heapPages   int64
	heapPerPage int64
}

// colValue is one column of a relation's table, by ordinal, with the one
// number pricing reads off it.
type colValue struct {
	ord int
	val float64
}

// indexOfOrdinal returns the position of column ord in the short list, or -1.
func indexOfOrdinal(list []colValue, ord int) int {
	for i := range list {
		if list[i].ord == ord {
			return i
		}
	}
	return -1
}

// Analysis bundles everything cost evaluation needs about a query. It is
// shared by the optimizer proper and by the INUM/PINUM cost model, which is
// what guarantees the two cost identical plans identically.
//
// An Analysis is read-only once NewAnalysis returns — the one state it
// builds later, the join enumeration, is built once under a sync.Once — so
// any number of planners, on any goroutines, may plan one analysis at once,
// as a build's paired calls do, and pricing may read it meanwhile.
type Analysis struct {
	Q      *query.Query
	Stats  *stats.Store
	Coster Coster

	Rels []RelInfo
	// JoinSel caches the selectivity of each join clause, index-aligned
	// with Q.Joins.
	JoinSel []float64

	// Interesting-order interning, built once per analysis: the fast
	// planner identifies leaf requirements and pathkeys through these
	// 1-based per-relation ids; ordBase offsets them into a dense global
	// id space shared by all relations (one sentinel entry past the last
	// relation holds the total); ordTotal is the highest global id. packed
	// reports whether the query additionally fits the fixed-size planKey
	// invariants (≤16 relations, ≤63 interesting orders per relation,
	// grouping/ordering ≤8 columns) — inside them ids pack into planKey
	// bytes, outside them the planner spills plan identities to the
	// variable-width string-key lane (frontier.go).
	ordIDs   []map[string]uint16
	ordBase  []uint16
	ordTotal int
	packed   bool

	// The connectivity-aware enumeration state (joinEnum), built by the
	// first planner call that needs it and shared by every later one.
	enumOnce sync.Once
	enum     joinEnum
}

// joinEnum is a query's join enumeration: whether its join graph is
// connected and, if so, the csg-cmp pairs in DP order, or fits false when
// they overflow enumPairCap and the planner refuses the query. It depends
// only on the query's join clauses, never on the configuration or options,
// so it is built once per analysis and reused across the repeated calls
// cache construction and the experiments make.
type joinEnum struct {
	connected bool
	pairs     []csgCmpPair
	fits      bool
}

// joinEnum returns the analysis's join enumeration, building it on first
// use. The connectivity check is the query package's shared reachability
// test, so a cross-product query fails before any join enumeration instead
// of at the full mask.
func (a *Analysis) joinEnum() *joinEnum {
	a.enumOnce.Do(func() {
		e := &a.enum
		if e.connected = a.Q.JoinGraphConnected(); e.connected {
			e.pairs, e.fits = newJoinGraph(a).csgCmpPairs()
		}
	})
	return &a.enum
}

// PlanWork estimates the work of planning a, deterministically and without
// planning: (csg-cmp pairs + 1) × NumLeafSlots(). The pairs are the join
// enumeration's, built here if no planner has built it yet and reused by
// every later one; a query the planner refuses right after its base
// relations — a disconnected join graph, or one with more than enumPairCap
// pairs — weighs NumLeafSlots() alone. A batch build claims its queries
// largest estimate first (core.BuildAllWith), so only the ranking matters:
// on the paper's star query sets and the design shapes it picks the query
// whose build considers the most paths and ranks the rest with a Spearman
// correlation of at least 0.95 against PathsConsidered (core's
// TestPlanWorkRanksPlannerWork).
func (a *Analysis) PlanWork() int {
	return (len(a.joinEnum().pairs) + 1) * a.NumLeafSlots()
}

// orderGID returns the dense global id (≥1) of an interned interesting-
// order column. Every column a planner-generated leaf requirement or
// output order can name is an interesting order of its relation (join,
// group-by and order-by columns all are, by construction), so the lookup
// never misses on planner inputs.
func (a *Analysis) orderGID(c query.ColRef) uint16 {
	return a.ordBase[c.Rel] + a.ordIDs[c.Rel][c.Column]
}

// MaxLeafSlots is the longest leaf-slot table an analysis may have
// (NumLeafSlots: relations + 2 × interesting orders, so roughly 32 K
// interesting orders per query): plan caches and their snapshots store a
// leaf as its 16-bit slot index.
const MaxLeafSlots = math.MaxUint16

// MaxRels is the most relations a query may join: a plan names its
// relation set as a RelSet, one bit per relation.
const MaxRels = 64

// NewAnalysis derives the planning state for q. The statistics store may be
// nil, in which case column metadata defaults drive selectivity. It fails
// on an invalid query and on one past MaxRels or MaxLeafSlots — the
// planner's two hard capacities.
func NewAnalysis(q *query.Query, st *stats.Store, params CostParams) (*Analysis, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Rels) > MaxRels {
		return nil, fmt.Errorf("optimizer: query %s joins %d relations; a plan names at most %d", q.Name, len(q.Rels), MaxRels)
	}
	a := &Analysis{
		Q:      q,
		Stats:  st,
		Coster: Coster{P: params},
	}
	needed := q.ColumnsNeeded()
	ios := q.InterestingOrders()
	slots := len(q.Rels)
	for _, cols := range ios {
		slots += 2 * len(cols)
	}
	if slots > MaxLeafSlots {
		return nil, fmt.Errorf("optimizer: query %s needs %d leaf slots (relations + 2 × interesting orders); a plan cache addresses at most %d",
			q.Name, slots, MaxLeafSlots)
	}
	for i, r := range q.Rels {
		ri := RelInfo{
			Rel:         i,
			Table:       r.Table,
			Needed:      sortedColumns(needed[i]),
			Interesting: ios[i],
			Sel:         1,
		}
		for _, col := range ri.Needed {
			// Past bit 63 the shift yields 0: the mask of a table wider than
			// 64 columns is never read (see the field's comment).
			ri.neededMask |= 1 << uint(r.Table.ColumnOrdinal(col))
		}
		for _, f := range q.Filters {
			if f.Col.Rel != i {
				continue
			}
			ri.Filters = append(ri.Filters, f)
			s := a.filterSelectivity(r.Table, f)
			ri.Sel *= s
			ord := r.Table.ColumnOrdinal(f.Col.Column)
			if k := indexOfOrdinal(ri.filtered, ord); k >= 0 {
				ri.filtered[k].val *= s
			} else {
				ri.filtered = append(ri.filtered, colValue{ord, s})
			}
		}
		ri.Rows = float64(r.Table.RowCount) * ri.Sel
		if ri.Rows < 1 {
			ri.Rows = 1
		}
		ri.heapPages, ri.heapPerPage = heapShape(r.Table)
		ri.seqScan = a.Coster.SeqScanCost(ri.heapPages, r.Table.RowCount, len(ri.Filters))
		ri.orders = make([]colValue, len(ri.Interesting))
		for k, col := range ri.Interesting {
			ri.orders[k] = colValue{r.Table.ColumnOrdinal(col), a.lookupRows(r.Table, col)}
		}
		a.Rels = append(a.Rels, ri)
	}
	for _, j := range q.Joins {
		a.JoinSel = append(a.JoinSel, a.joinSelectivity(j))
	}

	// Intern the interesting orders for the planner. Every order is
	// interned regardless of width — the lookup and usefulness memos key
	// on global ids in both lanes; packed only decides whether plan keys
	// fit the fixed-size planKey or spill to the string-key lane.
	a.ordIDs = make([]map[string]uint16, len(a.Rels))
	a.ordBase = make([]uint16, len(a.Rels)+1)
	packed := len(a.Rels) <= 16 && len(q.GroupBy) <= 8 && len(q.OrderBy) <= 8
	total := 0
	for i := range a.Rels {
		cols := a.Rels[i].Interesting
		if len(cols) > 63 {
			packed = false
		}
		m := make(map[string]uint16, len(cols))
		for k, col := range cols {
			m[col] = uint16(k + 1)
		}
		a.ordIDs[i] = m
		a.ordBase[i] = uint16(total)
		total += len(m)
	}
	// The 16-bit global id space (clause-order packs and the memo tables
	// index by gid) is inside MaxLeafSlots.
	a.ordBase[len(a.Rels)] = uint16(total)
	a.ordTotal = total
	a.packed = packed
	return a, nil
}

// colStats returns the statistics for a column, synthesising them from the
// column metadata when the store has none.
func (a *Analysis) colStats(t *catalog.Table, col string) *stats.ColumnStats {
	if a.Stats != nil {
		if s := a.Stats.Get(t.Name, col); s != nil {
			return s
		}
	}
	c := t.Column(col)
	if c == nil {
		return nil
	}
	ndv := c.NDV
	if ndv <= 0 {
		ndv = t.RowCount
	}
	return &stats.ColumnStats{
		Rows:     t.RowCount,
		Distinct: ndv,
		Min:      c.Min,
		Max:      c.Max,
	}
}

// NDV returns the distinct-value count of a column, at least 1.
func (a *Analysis) NDV(t *catalog.Table, col string) float64 {
	s := a.colStats(t, col)
	if s == nil || s.Distinct <= 0 {
		return math.Max(1, float64(t.RowCount))
	}
	return float64(s.Distinct)
}

func (a *Analysis) filterSelectivity(t *catalog.Table, f query.Filter) float64 {
	s := a.colStats(t, f.Col.Column)
	switch f.Op {
	case query.Eq:
		return s.EqSelectivity(f.Value)
	case query.Lt:
		return s.LTSelectivity(f.Value)
	case query.Le:
		return s.LTSelectivity(f.Value + 1)
	case query.Gt:
		return clamp01(1 - s.LTSelectivity(f.Value+1))
	case query.Ge:
		return clamp01(1 - s.LTSelectivity(f.Value))
	case query.Between:
		return s.RangeSelectivity(f.Value, f.Value2)
	default:
		return stats.DefaultRangeSel
	}
}

func (a *Analysis) joinSelectivity(j query.Join) float64 {
	lt := a.Q.Rels[j.Left.Rel].Table
	rt := a.Q.Rels[j.Right.Rel].Table
	nl := a.NDV(lt, j.Left.Column)
	nr := a.NDV(rt, j.Right.Column)
	d := math.Max(nl, nr)
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// JoinRows estimates the cardinality of the join of the relations in set s:
// the product of filtered base cardinalities, in relation order, times the
// selectivity of every join clause internal to s, in clause order. The
// planner asks once per join relation and keeps the answer in its DP table.
func (a *Analysis) JoinRows(s RelSet) float64 {
	rows := 1.0
	for v := uint64(s); v != 0; v &= v - 1 {
		rows *= a.Rels[bits.TrailingZeros64(v)].Rows
	}
	for k, j := range a.Q.Joins {
		if s.Has(j.Left.Rel) && s.Has(j.Right.Rel) {
			rows *= a.JoinSel[k]
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// GroupCount estimates the number of groups produced by grouping on cols,
// given input cardinality rows.
func (a *Analysis) GroupCount(cols []query.ColRef, rows float64) float64 {
	if len(cols) == 0 {
		return 1
	}
	g := 1.0
	for _, c := range cols {
		g *= a.NDV(a.Q.Rels[c.Rel].Table, c.Column)
		if g > rows {
			return math.Max(1, rows)
		}
	}
	return math.Max(1, math.Min(g, rows))
}

// indexScanFacts describes one concrete index access option for a relation.
type indexScanFacts struct {
	Cost      float64
	IndexOnly bool
	// Ordered reports whether the scan delivers rows in lead-column order
	// usable as a pathkey (always true for B-tree scans here).
	LeadCol string
}

// indexOnly reports whether ix holds every column the query needs from the
// relation, so a scan through it never visits the heap.
func (ri *RelInfo) indexOnly(ix *catalog.Index) bool {
	if len(ix.Columns) < len(ri.Needed) {
		return false // Needed holds distinct columns
	}
	for _, col := range ri.Needed {
		if !ix.HasColumn(col) {
			return false
		}
	}
	return true
}

// IndexScanCost costs a scan of relation rel through index ix: the index
// applies any filters on its leading column as the range condition, fetches
// the heap unless the index covers all needed columns, and applies the
// remaining filters as quals.
func (a *Analysis) IndexScanCost(rel int, ix *catalog.Index) indexScanFacts {
	ri := &a.Rels[rel]
	indexOnly := ri.indexOnly(ix)
	lead := ri.Table.ColumnOrdinal(ix.LeadColumn())
	return indexScanFacts{Cost: a.indexScanCost(ri, ix, lead, indexOnly), IndexOnly: indexOnly, LeadCol: ix.LeadColumn()}
}

// indexScanCost is the one scan-cost expression: lead is the ordinal of the
// index's lead column in ri.Table (-1 when the table has no such column),
// however the caller resolved it.
func (a *Analysis) indexScanCost(ri *RelInfo, ix *catalog.Index, lead int, indexOnly bool) float64 {
	scanSel := 1.0
	nQuals := len(ri.Filters)
	if k := indexOfOrdinal(ri.filtered, lead); k >= 0 {
		scanSel = ri.filtered[k].val
		nQuals-- // the lead-column filter is the index condition
		if nQuals < 0 {
			nQuals = 0
		}
	}
	return a.Coster.IndexScanCostOn(ri.Table.RowCount, ri.heapPages, ri.heapPerPage, ix, scanSel, indexOnly, nQuals)
}

// SeqScanCost costs a full scan of relation rel.
func (a *Analysis) SeqScanCost(rel int) float64 { return a.Rels[rel].seqScan }

// LookupRows is the expected number of heap matches per equality probe on
// col (before the relation's other filters are applied).
func (a *Analysis) LookupRows(rel int, col string) float64 {
	if id := a.ordIDs[rel][col]; id > 0 {
		return a.Rels[rel].orders[id-1].val
	}
	return a.lookupRows(a.Rels[rel].Table, col)
}

func (a *Analysis) lookupRows(t *catalog.Table, col string) float64 {
	m := float64(t.RowCount) / a.NDV(t, col)
	if m < 1 {
		m = 1
	}
	return m
}

// LookupCost costs one nested-loop probe of relation rel through index ix
// on column col, remaining filters applied as quals.
func (a *Analysis) LookupCost(rel int, ix *catalog.Index, col string) float64 {
	ri := &a.Rels[rel]
	return a.lookupCost(ri, ix, a.LookupRows(rel, col), ri.indexOnly(ix))
}

func (a *Analysis) lookupCost(ri *RelInfo, ix *catalog.Index, match float64, indexOnly bool) float64 {
	cost := a.Coster.LookupCost(ri.Table, ix, match, indexOnly)
	cost += match * float64(len(ri.Filters)) * a.Coster.P.CPUOperatorCost
	return cost
}

// LeafApplicable reports whether an index can possibly satisfy a leaf
// requirement on the given table: it must live on that table and, for
// ordered and lookup accesses, cover the required column. This is the one
// authoritative applicability rule of the per-leaf reference path;
// foldLeafBlock applies the same two tests (table, lead column) block-wise,
// and the every-shape property tests hold the two equal.
func LeafApplicable(table string, req LeafReq, ix *catalog.Index) bool {
	if ix.Table != table {
		return false
	}
	switch req.Mode {
	case AccessAny:
		return true
	case AccessOrdered, AccessLookup:
		return ix.Covers(req.Col)
	default:
		return false
	}
}

// IndexLeafCost costs satisfying one cached-plan leaf requirement through a
// single index, or reports that the index cannot satisfy it (LeafApplicable).
// It is the per-index unit AccessCost minimises over.
func (a *Analysis) IndexLeafCost(rel int, req LeafReq, ix *catalog.Index) (float64, bool) {
	if !LeafApplicable(a.Rels[rel].Table.Name, req, ix) {
		return 0, false
	}
	switch req.Mode {
	case AccessAny, AccessOrdered:
		return a.IndexScanCost(rel, ix).Cost, true
	case AccessLookup:
		return a.LookupCost(rel, ix, req.Col), true
	default:
		return 0, false
	}
}

// AccessCost evaluates the access cost of one cached-plan leaf requirement
// under an arbitrary index configuration, considering exactly the access
// paths the optimizer itself would consider: the minimisation starts from
// the sequential scan (AccessAny) or +Inf (ordered and lookup leaves need an
// index) and folds the configuration's indexes in, in configuration order,
// with strict <. It returns false when the configuration cannot satisfy the
// requirement. This is the live per-leaf reference (/explain, tests); the
// cached cost model prices through the leaf-slot table below, which runs
// the same minimisation for every identity of a relation at once.
func (a *Analysis) AccessCost(rel int, req LeafReq, cfg *query.Config) (float64, bool) {
	best := math.Inf(1)
	if req.Mode == AccessAny {
		best = a.SeqScanCost(rel)
	}
	if cfg != nil {
		for _, ix := range cfg.Indexes {
			if c, ok := a.IndexLeafCost(rel, req, ix); ok && c < best {
				best = c
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// The leaf-slot table: a query's whole configuration-dependent state. The
// access cost of a leaf depends only on (relation, leaf identity,
// configuration), and a relation with k interesting orders has just 1 + 2k
// identities, so one float64 per identity prices every cached plan of the
// query. Relation rel owns the block starting at rel + 2×ordBase[rel]
// (LeafBlock): slot 0 is AccessAny, slots 1..k AccessOrdered by interned
// order id, slots k+1..2k AccessLookup by order id; +Inf marks an identity
// the configuration cannot satisfy. A plan cache and its snapshot store
// each leaf as its index into this table (LeafSlot, inverted by
// LeafOfSlot), which NewAnalysis keeps within 16 bits (MaxLeafSlots); the
// layout is this file's alone.
//
// Pricing the table compares no name when it does not have to. The query's
// side was resolved to column ordinals by NewAnalysis, an index's side by
// its constructor (catalog.Index.Bind), and catalog.Index.OnTable says
// which pairs may rely on that: an index bound to the relation's own table
// descriptor is priced on ordinals and a bitset; one the rule cannot place
// (a literal descriptor, a same-named table of another catalog) is priced
// through the name-keyed reference functions above, on the same
// expressions.

// LeafSlotsInline is the table length callers keep a stack buffer for:
// twice the widest query of the paper's star workload (7 relations, 33
// slots). PriceLeafSlots falls back to the heap past it.
const LeafSlotsInline = 64

// NumLeafSlots is the length of the query's leaf-slot table.
func (a *Analysis) NumLeafSlots() int { return len(a.Rels) + 2*a.ordTotal }

// LeafBlock returns the bounds [lo, hi) of relation rel's block of the
// table. The blocks tile the table in relation order, every index of a
// block is an identity of its relation, and lo is its AccessAny identity.
func (a *Analysis) LeafBlock(rel int) (lo, hi int) {
	return rel + 2*int(a.ordBase[rel]), rel + 1 + 2*int(a.ordBase[rel+1])
}

// slot is the table index of the identity on rel in mode on the relation's
// 1-based interned order id (0 for AccessAny).
func (a *Analysis) slot(rel int, mode AccessMode, id uint16) int {
	s := rel + 2*int(a.ordBase[rel]) + int(id)
	if mode == AccessLookup {
		s += int(a.ordBase[rel+1] - a.ordBase[rel])
	}
	return s
}

// LeafSlot returns the table index of leaf requirement req on rel, the
// form a plan cache stores a leaf in. It fails on a mode the table has no
// identity for, and on a column that is not one of the relation's interned
// interesting orders or that the mode does not take — planner-produced
// requirements never do; anything else is a corrupt or foreign input.
func (a *Analysis) LeafSlot(rel int, req LeafReq) (int, error) {
	if req.Mode < AccessAny || req.Mode > AccessLookup {
		return 0, fmt.Errorf("optimizer: invalid access mode %d on relation %d", req.Mode, rel)
	}
	var id uint16
	if req.Col != "" {
		if id = a.ordIDs[rel][req.Col]; id == 0 {
			return 0, fmt.Errorf("optimizer: column %s is not an interned interesting order of relation %d", req.Col, rel)
		}
	}
	if (req.Mode == AccessAny) != (id == 0) {
		return 0, fmt.Errorf("optimizer: %v leaf requirement on relation %d with column %q", req.Mode, rel, req.Col)
	}
	return a.slot(rel, req.Mode, id), nil
}

// LeafOfSlot is LeafSlot's inverse: the requirement that table index slot,
// inside relation rel's block, stands for, with coefficient coef. The
// column string is the analysis's interned instance, so it allocates
// nothing.
//
//pinum:hotpath
func (a *Analysis) LeafOfSlot(rel, slot int, coef float64) LeafReq {
	lo, _ := a.LeafBlock(rel)
	off, k := slot-lo, int(a.ordBase[rel+1]-a.ordBase[rel])
	switch {
	case off == 0:
		return LeafReq{Mode: AccessAny, Coef: coef}
	case off <= k:
		return LeafReq{Mode: AccessOrdered, Col: a.Rels[rel].Interesting[off-1], Coef: coef}
	default:
		return LeafReq{Mode: AccessLookup, Col: a.Rels[rel].Interesting[off-k-1], Coef: coef}
	}
}

// leafSlotBlock returns relation rel's block of the table.
func (a *Analysis) leafSlotBlock(slots []float64, rel int) []float64 {
	lo, hi := a.LeafBlock(rel)
	return slots[lo:hi]
}

// ConfigByTable is a configuration grouped by table for one catalog name
// space: built once (GroupByTable) and read by any number of queries'
// PriceLeafSlotsByTable, concurrently. An index bound to a table of the
// name space sits in that table's group; every other index — an unbound
// literal, an index on a table of more than 64 columns (Bind declines
// those), a descriptor bound to another catalog — sits in one residual
// list. A relation whose table is in the name space folds its table's
// group and the residual list, and no other index can match it: one bound
// to another position of the name space is on another table
// (catalog.Index.OrdinalIn). A relation whose table is not in the name
// space folds the whole configuration, as an ungrouped table would.
//
// Grouping changes the order indexes are folded in, and that is free: a
// slot is the minimum of its base and the costs of the indexes that apply
// to it, kept with strict <, and a minimum does not depend on the order
// its operands arrive in — the only values strict < could tell apart by
// order are +0 and −0, and costs are positive. So the table, every Cost
// and every winning plan are bit-identical to folding in configuration
// order (TestBoundPricingMatchesNames shuffles the order to hold that).
type ConfigByTable struct {
	cfg    *query.Config
	names  *catalog.NameSpace
	tables int
	// bounds[t] is where group t starts in pos and bounds[tables] where
	// the residual list does; pos holds configuration positions, grouped.
	bounds []int32
	pos    []int32
}

// groupInline is the grouping buffer a grouping keeps inline, on the
// stack in PriceLeafSlots: table bounds plus configuration positions, for
// a catalog of up to ~100 tables under a request-sized configuration.
const groupInline = 128

// GroupByTable groups cfg (nil = empty) by the tables of name space names
// (nil groups nothing: every relation folds the whole configuration). It
// makes one allocation, the grouping and its buffer together, when the
// name space's tables plus cfg's indexes are within groupInline, and one
// more past it. The grouping reads cfg rather than copying it: cfg must
// not change while the grouping is in use.
//
//pinum:hotpath
func GroupByTable(names *catalog.NameSpace, cfg *query.Config) *ConfigByTable {
	b := new(struct {
		g   ConfigByTable
		buf [groupInline]int32
	})
	b.g = groupByTable(b.buf[:0], names, cfg)
	return &b.g
}

// groupByTable is GroupByTable into buf, reallocating only when buf's
// capacity is too small. It is a counting sort: group sizes, running
// ends, then each position placed back to front, which keeps every group
// in configuration order and leaves bounds at the groups' starts.
//
//pinum:hotpath
func groupByTable(buf []int32, names *catalog.NameSpace, cfg *query.Config) ConfigByTable {
	g := ConfigByTable{cfg: cfg, names: names}
	if names != nil {
		g.tables = names.Tables()
	}
	var ixs []*catalog.Index
	if cfg != nil {
		ixs = cfg.Indexes
	}
	if n := g.tables + 1 + len(ixs); cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	g.bounds, g.pos = buf[:g.tables+1], buf[g.tables+1:]
	clear(g.bounds)
	for _, ix := range ixs {
		g.bounds[g.groupOf(ix)]++
	}
	end := int32(0)
	for t, size := range g.bounds {
		end += size
		g.bounds[t] = end
	}
	for i := len(ixs) - 1; i >= 0; i-- {
		t := g.groupOf(ixs[i])
		g.bounds[t]--
		g.pos[g.bounds[t]] = int32(i)
	}
	return g
}

// groupOf is the group ix belongs to: its bound table's position in the
// name space, or tables for the residual list.
//
//pinum:hotpath
func (g *ConfigByTable) groupOf(ix *catalog.Index) int {
	if t := ix.OrdinalIn(g.names); t >= 0 && t < g.tables {
		return t
	}
	return g.tables
}

// Config is the configuration the grouping was built from.
func (g *ConfigByTable) Config() *query.Config { return g.cfg }

// lists returns the configuration positions a relation on table t folds:
// its table's group and the residual list, or the whole configuration
// when t is not in the grouping's name space.
//
//pinum:hotpath
func (g *ConfigByTable) lists(t *catalog.Table) (own, rest []int32) {
	if o := t.OrdinalIn(g.names); o >= 0 && o < g.tables {
		return g.pos[g.bounds[o]:g.bounds[o+1]], g.pos[g.bounds[g.tables]:]
	}
	return g.pos, nil
}

// PriceLeafSlots prices the whole table under cfg (nil = empty) into dst,
// reallocating only when dst's capacity is too small, and returns it. It
// groups cfg by the tables of the query's catalog in a stack buffer and
// prices through PriceLeafSlotsByTable; a caller pricing many queries
// under one configuration groups it once and calls that directly. A
// catalog too large for the buffer is not grouped, and a configuration
// too large for it groups on the heap.
//
//pinum:hotpath
func (a *Analysis) PriceLeafSlots(dst []float64, cfg *query.Config) []float64 {
	var buf [groupInline]int32
	var names *catalog.NameSpace
	if cfg != nil && len(cfg.Indexes) > 0 {
		names = a.Rels[0].Table.NameSpace()
		if names != nil && names.Tables()+1+len(cfg.Indexes) > len(buf) {
			names = nil
		}
	}
	g := groupByTable(buf[:0], names, cfg)
	return a.PriceLeafSlotsByTable(dst, &g)
}

// PriceLeafSlotsByTable prices the whole table under a grouped
// configuration into dst, reallocating only when dst's capacity is too
// small, and returns it. Per slot the result is bit-identical to
// AccessCost on that identity: the same base, the same applicable
// indexes, the same strict < (in another order, which ConfigByTable says
// is free). Each relation asks OnTable only of its own table's group and
// the residual list, to pick the bound or the by-name fold.
//
//pinum:hotpath
func (a *Analysis) PriceLeafSlotsByTable(dst []float64, g *ConfigByTable) []float64 {
	if n := a.NumLeafSlots(); cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for rel := range a.Rels {
		ri := &a.Rels[rel]
		block := a.leafSlotBlock(dst, rel)
		block[0] = ri.seqScan
		for i := 1; i < len(block); i++ {
			block[i] = math.Inf(1)
		}
		own, rest := g.lists(ri.Table)
		for _, list := range [2][]int32{own, rest} {
			for _, p := range list {
				ix := g.cfg.Indexes[p]
				if m := ix.OnTable(ri.Table); m != catalog.OffTable {
					a.foldLeafBlock(block, ri, ix, m)
				}
			}
		}
	}
	return dst
}

// FoldLeafSlots folds one more index into relation rel's block, as if it
// were appended to the configuration the table was priced under.
//
//pinum:hotpath
func (a *Analysis) FoldLeafSlots(slots []float64, rel int, ix *catalog.Index) {
	ri := &a.Rels[rel]
	if m := ix.OnTable(ri.Table); m != catalog.OffTable {
		a.foldLeafBlock(a.leafSlotBlock(slots, rel), ri, ix, m)
	}
}

// foldLeafBlock folds an index on ri's table (m says how it matched) into
// the relation's block. The scan cost is evaluated once and the lookup cost
// once, for the one interesting order the index covers, if any. The two
// matches differ only in how the lead column's ordinal and index-onlyness
// are found — read off the bound form, or resolved by name as the per-leaf
// reference does; the cost expressions and their operands are the same.
// (RelInfo.resolve is the same rule for the planner; it is spelled out here
// because a call would not inline, and this runs per request.)
//
//pinum:hotpath
func (a *Analysis) foldLeafBlock(block []float64, ri *RelInfo, ix *catalog.Index, m catalog.TableMatch) {
	var lead int
	var indexOnly bool
	if m == catalog.OnTableBound {
		lead, indexOnly = ix.LeadOrdinal(), ri.neededMask&^ix.ColumnMask() == 0
	} else {
		lead, indexOnly = ri.Table.ColumnOrdinal(ix.LeadColumn()), ri.indexOnly(ix)
	}
	scan := a.indexScanCost(ri, ix, lead, indexOnly)
	if scan < block[0] {
		block[0] = scan
	}
	i := indexOfOrdinal(ri.orders, lead)
	if i < 0 {
		return
	}
	if scan < block[1+i] {
		block[1+i] = scan
	}
	k := len(ri.orders)
	if c := a.lookupCost(ri, ix, ri.orders[i].val, indexOnly); c < block[1+k+i] {
		block[1+k+i] = c
	}
}

// resolve finds what pricing an index on ri's table (m says how it
// matched) needs of it, by foldLeafBlock's rule: its lead column's ordinal
// in the table and whether a scan through it is index-only. The planner's
// scans (scanPaths) resolve each configuration index through it once per
// call.
func (ri *RelInfo) resolve(ix *catalog.Index, m catalog.TableMatch) (lead int, indexOnly bool) {
	if m == catalog.OnTableBound {
		return ix.LeadOrdinal(), ri.neededMask&^ix.ColumnMask() == 0
	}
	return ri.Table.ColumnOrdinal(ix.LeadColumn()), ri.indexOnly(ix)
}

// FoldLeafRow prices one cached plan against a priced table: internal +
// Σ coef × slot, accumulated in relation order, over the plan's requirement
// row (one slot index and one coefficient per relation). It stops at the
// first identity the table cannot satisfy and reports false.
//
//pinum:hotpath
func FoldLeafRow(internal float64, leaves []uint16, coefs []float64, slots []float64) (float64, bool) {
	cost := internal
	coefs = coefs[:len(leaves)]
	for rel, s := range leaves {
		access := slots[s]
		if math.IsInf(access, 1) {
			return 0, false
		}
		cost += coefs[rel] * access
	}
	return cost, true
}

// sortedColumns lists a column set in sorted order.
func sortedColumns(set map[string]bool) []string {
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// String summarises the analysis (handy in debug output and tests).
func (a *Analysis) String() string {
	return fmt.Sprintf("analysis(%s: %d rels, %d joins)", a.Q.Name, len(a.Rels), len(a.Q.Joins))
}
