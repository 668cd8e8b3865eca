package optimizer

import (
	"slices"

	"github.com/pinumdb/pinum/internal/query"
)

// A Workspace owns what one planner call after another can share: the
// planner's scratch (the frontier's slot arrays and buckets, the key table
// and arena, the DP table, the plan context), grown by a worker's first
// queries and reused by the rest. It is not safe for concurrent use: give
// each worker its own. Every call starts by resetting it — the last may have
// planned another query, lane or option set, or failed midway — and ends by
// dropping its analysis, configuration and candidates; results equal
// Optimize's bit for bit.
//
// A recycling workspace also draws the plan nodes and leaf slices it builds
// from slabs it rewinds at its next call, so a Result is valid only until
// then: enough for a slim cache build, which reduces each exported plan to
// its signature and summary on the spot. A tree build's cache keeps the
// exported paths, and through them subtrees of every intermediate relation,
// so its nodes stay on the heap and only the scratch is reused.
type Workspace struct{ p planner }

// NewWorkspace returns an empty workspace, recycling or not.
func NewWorkspace(recycle bool) *Workspace {
	return &Workspace{p: planner{recycle: recycle}}
}

// Optimize is the package's Optimize on this workspace's buffers.
func (w *Workspace) Optimize(a *Analysis, cfg *query.Config, opt Options) (*Result, error) {
	return w.p.optimize(a, cfg, opt)
}

// reset starts a call. Whatever the last left — slots of a relation it failed
// in, the other lane's keys, PreciseNLJ's side arrays, buckets of a longer
// order registry — is truncated or cleared; a field not named starts zero.
func (p *planner) reset(a *Analysis, cfg *query.Config, opt Options) {
	*p = planner{
		a: a, opt: opt, res: &Result{},
		ctx: p.ctx, rels: p.rels, recycle: p.recycle, paths: p.paths, leaves: p.leaves,
		slots:    keyTable{precise: opt.PreciseNLJ, index: p.slots.index, keys: p.slots.keys[:0], coefs: p.slots.coefs[:0]},
		keyArena: p.keyArena[:0], arenaCoefs: p.arenaCoefs[:0],
		wideKeys: p.wideKeys, wideLeaves: p.wideLeaves[:0], keyBuf: p.keyBuf[:0], leafBuf: p.leafBuf[:0],
		cands: p.cands[:0], live: p.live[:0], slotMetric: p.slotMetric[:0],
		slotOrd: p.slotOrd[:0], slotWitness: p.slotWitness[:0], buckets: p.buckets[:0], idxBuf: p.idxBuf[:0],
	}
	p.paths.cur, p.paths.used, p.leaves.cur, p.leaves.used = 0, 0, 0, 0
	p.ctx.reset(a, cfg)
	if opt.ExportAll && p.slots.index == nil {
		p.slots.index, p.wideKeys = make([]int32, 64), make(map[string]int32)
	}
	clear(p.slots.index)
	clear(p.wideKeys)
}

// release ends a call: the workspace keeps buffers, not the analysis, the
// configuration or any plan outside its slabs.
func (p *planner) release() {
	clear(p.cands[:cap(p.cands)])
	clear(p.rels.dense)
	clear(p.rels.sparse)
	clear(p.ctx.ixBuf)
	clear(p.ctx.lookups)
	clear(p.ctx.orderRefs)
	p.a, p.res, p.ctx.a = nil, nil, nil
}

// newPath is the one constructor of plan nodes: from the slab when the
// workspace recycles, on the heap when the plan outlives the call.
//
//pinum:hotpath
func (p *planner) newPath(v Path) *Path {
	var np *Path
	if p.recycle {
		np = &p.paths.take(1)[0]
	} else {
		np = new(Path)
	}
	*np = v
	return np
}

// newLeaves returns an all-AccessAny requirement slice for the query's
// relations, from the slab or the heap as newPath does.
//
//pinum:hotpath
func (p *planner) newLeaves() []LeafReq {
	if !p.recycle {
		return newLeaves(len(p.a.Rels))
	}
	out := p.leaves.take(len(p.a.Rels))
	for i := range out {
		out[i] = LeafReq{Coef: 1}
	}
	return out
}

// slab hands out elements from the chunks it keeps, and again once rewound
// (cur and used zeroed), their contents stale: takers overwrite what they
// take. slabChunk elements a chunk is above any take (a leaf slice has ≤ 64).
type slab[T any] struct {
	chunks    [][]T
	cur, used int // the next free element is chunks[cur][used]
}

const slabChunk = 256

//pinum:hotpath
func (s *slab[T]) take(n int) []T {
	if s.cur < len(s.chunks) && s.used+n > slabChunk {
		s.cur, s.used = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		//pinum:alloc-ok the refill, the one allocation a recycling build makes for its plans: none once the workspace has planned its largest query
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.used += n
	return s.chunks[s.cur][s.used-n : s.used : s.used]
}

// fit returns s resized to n zeroed elements, reallocating only to grow.
func fit[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
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
