package optimizer

import (
	"math/bits"
	"slices"

	"github.com/pinumdb/pinum/internal/query"
)

// A Workspace owns what one planner call after another can share: the
// planner's record arena and scratch (the frontier's slot arrays and
// buckets, the key table and arenas, the DP table, the plan context), grown
// by a worker's first queries and reused by the rest. It is not safe for
// concurrent use: give each worker its own. Every call starts by resetting
// it — the last may have planned another query, lane or option set, or
// failed midway — and ends by dropping its analysis and configuration.
//
// The planner keeps plans as records, not trees. Optimize builds Path trees
// from them for its Result (on the heap: a tree build's cache keeps them),
// equal to the package Optimize's bit for bit. Export builds none: it reads
// each exported plan's summary straight off the records, which is all a
// slim cache keeps.
type Workspace struct {
	p planner

	// Export's state: the structural identities interned by the calls of
	// one Export (ids; seen marks the exported ones), the identity of each
	// record of the current call (memo, 0 until computed), and the summary
	// handed to emit.
	ids  map[sigNode]int32
	seen []bool
	memo []int32
	sum  Summary
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{ids: make(map[sigNode]int32)}
}

// Optimize is the package's Optimize on this workspace's buffers.
func (w *Workspace) Optimize(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	return w.p.optimize(a, cfg, opt)
}

// Summary is one exported plan in the form a slim plan cache stores it
// (inum.Cache.AddSummary): the internal cost, per query relation the index
// of the leaf's identity in the leaf-slot table (Analysis.LeafSlot) and its
// coefficient, and whether the plan holds a nested-loop probe. It is what
// Summarize and PackLeaf make of the plan's tree, without the tree.
type Summary struct {
	Internal float64
	Slots    []uint16
	Coefs    []float64
	NLJ      bool
}

// Export plans a under cfg once per option set, in order, each an ExportAll
// call, and hands emit the summary of every exported plan no earlier one of
// these calls exported with the same structure — the identity
// Path.Signature names, computed over the records (identity) — in export
// order. The summary and its slices belong to the workspace and are valid
// only during the emit call. It returns the calls' summed planner counters.
func (w *Workspace) Export(a *Analysis, cfg *query.Config, opts []Options, emit func(*Summary)) (PlannerStats, error) {
	var st PlannerStats
	clear(w.ids)
	w.seen = w.seen[:0]
	for _, opt := range opts {
		opt.ExportAll = true
		if err := w.export(a, cfg, opt, emit, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

func (w *Workspace) export(a *Analysis, cfg *query.Config, opt Options, emit func(*Summary), st *PlannerStats) error {
	p := &w.p
	p.reset(a, cfg, opt)
	defer p.release()
	final, err := p.plan()
	if err != nil {
		return err
	}
	st.Add(p.stats)
	w.summaries(final, emit)
	return nil
}

// summaries hands emit the summary of each plan of the final relation whose
// identity the Export has not yet seen.
func (w *Workspace) summaries(final joinRel, emit func(*Summary)) {
	p, s := &w.p, &w.sum
	n := len(p.a.Rels)
	w.memo = fit(w.memo, len(p.recs))
	s.Slots, s.Coefs = fit(s.Slots, n), fit(s.Coefs, n)
	for r := final.lo; r < final.hi; r++ {
		id := w.identity(r)
		for int(id) >= len(w.seen) {
			w.seen = append(w.seen, false)
		}
		if w.seen[id] {
			continue
		}
		w.seen[id] = true
		s.Internal, s.NLJ = p.recs[r].internal, false
		for rel := range s.Slots {
			s.Slots[rel], s.Coefs[rel] = uint16(p.a.LeafSlot(rel, 0)), 1
		}
		w.leaves(r)
		emit(s)
	}
}

// leaves writes the leaf requirements of record r's plan into the summary:
// each scan's and each nested-loop probe's on its own relation, over the
// all-AccessAny row export starts from.
func (w *Workspace) leaves(r int32) {
	p, s := &w.p, &w.sum
	c := &p.recs[r]
	switch {
	case isScan(c.op):
		if c.order > 0 {
			rel := p.ctx.cols[c.order].Rel
			s.Slots[rel] = p.leafSlot(rel, AccessOrdered, c.order)
		}
	case c.op == OpNestLoop:
		w.leaves(c.outer)
		rel := p.ctx.cols[c.aux].Rel
		s.Slots[rel], s.Coefs[rel], s.NLJ = p.leafSlot(rel, AccessLookup, c.aux), p.recs[c.outer].rows, true
	case c.inner >= 0:
		w.leaves(c.outer)
		w.leaves(c.inner)
	default:
		w.leaves(c.outer)
	}
}

// leafSlot is the leaf-slot table index of a leaf on rel in mode on the
// interesting column of global id g.
func (p *planner) leafSlot(rel int, mode AccessMode, g int32) uint16 {
	return uint16(p.a.LeafSlot(rel, uint16(mode)<<packedLeafModeShift|(uint16(g)-p.a.ordBase[rel])))
}

// sigNode is one node of a plan's structure as Path.Signature spells it:
// a leaf is (−1 − access mode, relation, global column id or 0), a sort
// (OpSort, key list, input), an aggregation (op, input, 0) and a join (op,
// outer, inner), where inputs are node ids.
type sigNode struct{ kind, a, b int32 }

// identity returns the structural identity of record r's plan: the id of its
// root node, interned with its children's ids (hash-consing), so two plans
// share an id exactly when their Signature strings are equal. Ids are
// memoised per record and interned across the calls of one Export.
func (w *Workspace) identity(r int32) int32 {
	if id := w.memo[r]; id != 0 {
		return id
	}
	p := &w.p
	c := &p.recs[r]
	var n sigNode
	switch {
	case isScan(c.op):
		rel := int32(bits.TrailingZeros64(uint64(c.rels)))
		if c.order == 0 {
			n = sigNode{-1 - int32(AccessAny), rel, 0}
		} else {
			n = sigNode{-1 - int32(AccessOrdered), rel, c.order}
		}
	case c.op == OpSort:
		n = sigNode{int32(OpSort), w.keysID(c.order), w.identity(c.outer)}
	case c.op == OpHashAgg || c.op == OpSortedAgg:
		n = sigNode{int32(c.op), w.identity(c.outer), 0}
	default:
		outerKey, innerKey := p.clauseSides(c)
		o := w.identity(c.outer)
		if c.sorts&sortOuter != 0 {
			o = w.intern(sigNode{int32(OpSort), outerKey, o})
		}
		var i int32
		if c.op == OpNestLoop {
			i = w.intern(sigNode{-1 - int32(AccessLookup), int32(p.ctx.cols[c.aux].Rel), c.aux})
		} else {
			i = w.identity(c.inner)
			if c.sorts&sortInner != 0 {
				i = w.intern(sigNode{int32(OpSort), innerKey, i})
			}
		}
		n = sigNode{int32(c.op), o, i}
	}
	id := w.intern(n)
	w.memo[r] = id
	return id
}

// intern returns the id of node n, 1-based, creating it on first sight.
func (w *Workspace) intern(n sigNode) int32 {
	if id, ok := w.ids[n]; ok {
		return id
	}
	id := int32(len(w.ids) + 1)
	w.ids[n] = id
	return id
}

// keysID names a sort's key list by its content, as the signature spells
// it: a one-column list by its global column id, the query's ORDER BY list
// by −1 and its GROUP BY list by −2 unless it equals the ORDER BY list.
func (w *Workspace) keysID(ord int32) int32 {
	a := w.p.a
	keys := w.p.orderOf(ord)
	switch {
	case len(keys) == 1:
		return int32(a.orderGID(keys[0]))
	case ord == ordOrderBy || slices.Equal(keys, a.Q.OrderBy):
		return -1
	}
	return -2
}

// reset starts a call. Whatever the last left — records and slots of a
// relation it failed in, the other lane's keys, PreciseNLJ's side arrays,
// buckets of a longer order registry — is truncated or cleared; a field not
// named starts zero.
func (p *planner) reset(a *Analysis, cfg *query.Config, opt Options) {
	*p = planner{
		a: a, opt: opt,
		ctx: p.ctx, rels: p.rels, recs: p.recs[:0], trees: p.trees[:0],
		slots:    keyTable{precise: opt.PreciseNLJ, index: p.slots.index, keys: p.slots.keys[:0], coefs: p.slots.coefs[:0]},
		keyArena: p.keyArena[:0], arenaCoefs: p.arenaCoefs[:0],
		wideKeys: p.wideKeys, wideLeaves: p.wideLeaves[:0], leafArena: p.leafArena[:0],
		keyBuf: p.keyBuf[:0], leafBuf: fit(p.leafBuf, len(a.Rels)),
		cands: p.cands[:0], live: p.live[:0], slotMetric: p.slotMetric[:0],
		slotOrd: p.slotOrd[:0], slotWitness: p.slotWitness[:0], buckets: p.buckets[:0], idxBuf: p.idxBuf[:0],
	}
	p.ctx.reset(a, cfg)
	if opt.ExportAll && p.slots.index == nil {
		p.slots.index, p.wideKeys = make([]int32, 64), make(map[string]int32)
	}
	clear(p.slots.index)
	clear(p.wideKeys)
}

// release ends a call: the workspace keeps buffers, not the analysis, the
// configuration or the trees built for the Result.
func (p *planner) release() {
	clear(p.trees)
	p.treeCols = nil
	clear(p.ctx.cols)
	clear(p.ctx.ixBuf)
	clear(p.ctx.lookups)
	clear(p.ctx.orderRefs)
	p.a, p.ctx.a = nil, nil
}

// fit returns s resized to n zeroed elements, reallocating only to grow.
func fit[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// reserve makes room in *s for n more elements, at least doubling its
// capacity when it must reallocate. The arenas grow a relation's records or
// a slot at a time, and append's growth past 256 elements — a quarter —
// would have a one-shot build allocate about five times an arena's final
// size; doubling holds that to two. The slice header is stored back only
// when it moves: appending in place then writes the length alone, which
// needs no write barrier.
//
//pinum:hotpath
func reserve[T any](s *[]T, n int) {
	if cap(*s)-len(*s) < n {
		grown := make([]T, len(*s), max(len(*s)+n, 2*cap(*s)))
		copy(grown, *s)
		*s = grown
	}
}

// addRow extends rows by one empty row: on the buffer of the row the last
// call left at that index, when there is one.
func addRow[T any](rows [][]T) [][]T {
	if n := len(rows); n < cap(rows) {
		rows = rows[:n+1]
		rows[n] = rows[n][:0]
		return rows
	}
	return append(rows, nil)
}
