package optimizer

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/pinumdb/pinum/internal/query"
)

// A Workspace owns what the planner calls of one build, and one build after
// another, can share: a planner per call of a build, each with its record
// arena and scratch (the frontier's slot arrays and buckets, the key table
// and arenas, the DP table, the plan context), grown by a worker's first
// queries and reused by the rest. A build's calls may plan at once, each on
// a planner of its own (Runner); beyond that a Workspace is not safe for
// concurrent use: give each build worker its own. Every call starts by
// resetting its planner — the last may have planned another query, lane or
// option set, or failed or panicked midway — and ends by dropping its
// analysis and configuration.
//
// The planner keeps plans as records, not trees. Optimize builds Path trees
// from them for its Result, equal to the package Optimize's bit for bit.
// Export builds none: it reads each exported plan's summary straight off
// the records, which is all a plan cache keeps.
type Workspace struct {
	// ps[i] plans call i of a paired build; ps[0] every call of a serial
	// one. finals and errs are each paired call's outcome.
	ps     []*planner
	finals []joinRel
	errs   []error

	// sum is the summary Export hands to emit.
	sum Summary
}

// A Runner runs call(i) for every i in [0, n) and returns once every call
// has returned; a panic in a call must reach the Runner's caller, and only
// after every call has stopped. It may run the calls at once: Export hands
// it calls that each plan on a planner of their own and share only the
// analysis and the configuration, which planning reads and never writes. The package starts no goroutine itself; core pairs a
// build's two calls through its Fan.
type Runner func(n int, call func(i int))

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return new(Workspace)
}

// Optimize is the package's Optimize on this workspace's buffers. Shipped
// code plans through Export; this is the handle FuzzOptimizeEquivalence
// and TestWorkspaceReuseBitIdentical hold a dirty workspace's reuse by.
func (w *Workspace) Optimize(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	return w.planners(1)[0].optimize(a, cfg, opt)
}

// Summary is one exported plan in the form a plan cache stores it
// (inum.Cache.AddSummary): the internal cost, per query relation the index
// of the leaf's identity in the leaf-slot table (Analysis.LeafSlot) and its
// coefficient. It is what Summarize and LeafSlot make of the plan's tree,
// without the tree.
type Summary struct {
	Internal float64
	Slots    []uint16
	Coefs    []float64
}

// Export plans a under cfg once per option set, each an ExportAll call, and
// hands emit the summary of every plan each call exported, call by call, in
// export order: PathsRetained summaries in all. It does not deduplicate; a
// later call's plan with an earlier one's structure has its summary too, and
// the cache drops it (inum.Cache.Compact). A nil run plans the calls one
// after another on one planner, each emitting on the caller before the next
// starts. Otherwise run plans call i on planner i, and emit is called from
// two places: call 0 emits on whichever goroutine run gave it, as soon as it
// has planned and while the others may still plan; the later calls emit on
// the caller, in call order, once run has returned. A call that fails emits
// nothing, and no call after it emits. Both hand emit the same summaries in
// the same order and return the same summed planner counters. emit is never
// called twice at once. The summary and its slices belong to the workspace
// and are valid only during the emit call. A panic in emit, on call 0's
// goroutine too, reaches Export's caller through run and leaves the
// workspace reusable. Every option set is checked before any call plans:
// one without ExportAll, or one Optimize refuses, fails the export with an
// error wrapping ErrOptions and nothing emitted.
func (w *Workspace) Export(a *Analysis, cfg *query.Config, opts []Options, run Runner, emit func(*Summary)) (PlannerStats, error) {
	var st PlannerStats
	for _, opt := range opts {
		if !opt.ExportAll {
			return st, fmt.Errorf("optimizer: Export of %+v needs ExportAll: %w", opt, ErrOptions)
		}
		if err := opt.check(); err != nil {
			return st, err
		}
	}
	if run == nil {
		p := w.planners(1)[0]
		for _, opt := range opts {
			if err := w.export(p, a, cfg, opt, emit, &st); err != nil {
				return st, err
			}
		}
		return st, nil
	}
	ps := w.planners(len(opts))
	defer w.release(ps)
	for i, opt := range opts {
		ps[i].reset(a, cfg, opt)
	}
	w.planEach(ps, run, func(final joinRel) { w.summaries(ps[0], final, emit) })
	for i, p := range ps {
		if err := w.errs[i]; err != nil {
			return st, err
		}
		st.Add(p.stats)
		if i > 0 {
			w.summaries(p, w.finals[i], emit)
		}
	}
	return st, nil
}

func (w *Workspace) export(p *planner, a *Analysis, cfg *query.Config, opt Options, emit func(*Summary), st *PlannerStats) error {
	p.reset(a, cfg, opt)
	defer p.release()
	final, err := p.plan()
	if err != nil {
		return err
	}
	st.Add(p.stats)
	w.summaries(p, final, emit)
	return nil
}

// planners returns the workspace's first n planners, creating any it lacks.
func (w *Workspace) planners(n int) []*planner {
	for len(w.ps) < n {
		w.ps = append(w.ps, new(planner))
	}
	return w.ps[:n]
}

// planEach plans every planner of ps, each reset for its call, through run,
// leaving call i's relation of complete plans in w.finals[i] and its error
// in w.errs[i]: the only state the calls write outside their own planner.
// A non-nil first is handed call 0's relation, on call 0's goroutine, as
// soon as call 0 has planned without error.
func (w *Workspace) planEach(ps []*planner, run Runner, first func(final joinRel)) {
	w.finals, w.errs = fit(w.finals, len(ps)), fit(w.errs, len(ps))
	finals, errs := w.finals, w.errs
	run(len(ps), func(i int) {
		finals[i], errs[i] = ps[i].plan()
		if i == 0 && first != nil && errs[0] == nil {
			first(finals[0])
		}
	})
}

// release ends the paired calls of ps, however they ended.
func (w *Workspace) release(ps []*planner) {
	for _, p := range ps {
		p.release()
	}
	clear(w.errs)
}

// summaries hands emit the summary of each plan of p's final relation, in
// record order.
func (w *Workspace) summaries(p *planner, final joinRel, emit func(*Summary)) {
	s := &w.sum
	n := len(p.a.Rels)
	s.Slots, s.Coefs = fit(s.Slots, n), fit(s.Coefs, n)
	for r := final.lo; r < final.hi; r++ {
		s.Internal = p.recs.at(r).internal
		for rel := range s.Slots {
			s.Slots[rel], s.Coefs[rel] = uint16(p.a.slot(rel, AccessAny, 0)), 1
		}
		p.leaves(s, r)
		emit(s)
	}
}

// leaves writes the leaf requirements of record r's plan into s: each
// scan's and each nested-loop probe's on its own relation, over the
// all-AccessAny row export starts from.
func (p *planner) leaves(s *Summary, r int32) {
	c := p.recs.at(r)
	switch {
	case isScan(c.op):
		if c.order > 0 {
			rel := p.ctx.cols[c.order].Rel
			s.Slots[rel] = p.leafSlot(rel, AccessOrdered, c.order)
		}
	case c.op == OpNestLoop:
		p.leaves(s, c.outer)
		rel := p.ctx.cols[c.aux].Rel
		s.Slots[rel], s.Coefs[rel] = p.leafSlot(rel, AccessLookup, c.aux), p.recs.at(c.outer).rows
	case c.inner >= 0:
		p.leaves(s, c.outer)
		p.leaves(s, c.inner)
	default:
		p.leaves(s, c.outer)
	}
}

// leafSlot is the leaf-slot table index of a leaf on rel in mode on the
// interesting column of global id g.
func (p *planner) leafSlot(rel int, mode AccessMode, g int32) uint16 {
	return uint16(p.a.slot(rel, mode, uint16(g)-p.a.ordBase[rel]))
}

// reset starts a call. Whatever the last left — records and slots of a
// relation it failed in, the other lane's keys, PreciseNLJ's side arrays,
// buckets of a longer order registry — is truncated or cleared; a field not
// named starts zero.
func (p *planner) reset(a *Analysis, cfg *query.Config, opt Options) {
	*p = planner{
		a: a, opt: opt,
		ctx: p.ctx, rels: p.rels, recs: p.recs.emptied(), trees: p.trees[:0],
		slots:    keyTable{precise: opt.PreciseNLJ, index: p.slots.index, keys: p.slots.keys[:0], coefs: p.slots.coefs[:0]},
		keyArena: p.keyArena.emptied(), arenaCoefs: p.arenaCoefs.emptied(),
		wideKeys: p.wideKeys, wideLeaves: p.wideLeaves[:0], leafArena: p.leafArena.emptied(),
		keyBuf: p.keyBuf[:0], leafBuf: fit(p.leafBuf, len(a.Rels)),
		cands: p.cands.emptied(), live: p.live[:0], slotMetric: p.slotMetric[:0],
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
// capacity when it must reallocate. The key table and the slot arrays grow
// a slot at a time, and append's growth past 256 elements — a quarter —
// would have them allocate about five times their final size instead of
// two. The slice header is stored back only when it
// moves: appending in place then writes the length alone, which needs no
// write barrier.
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

// An arena is an append-only list that grows by adding blocks, never by
// copying: block b holds arenaBase<<b entries, so entry i lives in block
// bits.Len32(i+arenaBase)−1−arenaShift, found without a search, and an
// entry never moves once written. A fresh workspace therefore allocates what
// its calls keep — about half what a doubling slice's copies add up to — and
// a later call on the same planner reuses the blocks an earlier one grew.
// The planner's records, the keys and leaves kept for them, and the
// candidates of the relation under construction live in arenas.
type arena[T any] struct {
	blocks [][]T
	n      int32 // entries in use
}

// arenaBase is the first block's length: small enough that a call keeping
// a few dozen plans, as a normal-mode Optimize does, allocates a few KB, and
// MaxRels, so a wide-lane leaf row always fits in one block.
const (
	arenaShift = 6
	arenaBase  = 1 << arenaShift
)

// emptied returns the arena with no entries, on the blocks it grew.
func (s *arena[T]) emptied() arena[T] { return arena[T]{blocks: s.blocks} }

// locate returns the block of entry i and the entry's offset in it.
//
//pinum:hotpath
func locate(i int32) (int, uint32) {
	j := uint32(i) + arenaBase
	b := bits.Len32(j) - 1 - arenaShift
	return b, j - arenaBase<<uint(b)
}

// at returns entry i.
//
//pinum:hotpath
func (s *arena[T]) at(i int32) *T {
	b, o := locate(i)
	return &s.blocks[b][o]
}

// push appends v and returns its index.
//
//pinum:hotpath
func (s *arena[T]) push(v T) int32 {
	i := s.n
	b, o := locate(i)
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, arenaBase<<uint(b)))
	}
	s.blocks[b][o] = v
	s.n++
	return i
}

// grow appends n entries (n ≤ arenaBase), whatever an earlier call left
// there, inside one block — skipping the rest of the current block when
// they do not fit — and returns them with the index of the first.
//
//pinum:hotpath
func (s *arena[T]) grow(n int32) ([]T, int32) {
	i := s.n
	b, o := locate(i)
	if o+uint32(n) > arenaBase<<uint(b) {
		b, o, i = b+1, 0, arenaBase<<uint(b+1)-arenaBase
	}
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, arenaBase<<uint(b)))
	}
	s.n = i + n
	return s.blocks[b][o : o+uint32(n) : o+uint32(n)], i
}

// span returns the n entries from index i that grow appended.
//
//pinum:hotpath
func (s *arena[T]) span(i, n int32) []T {
	b, o := locate(i)
	return s.blocks[b][o : o+uint32(n) : o+uint32(n)]
}
