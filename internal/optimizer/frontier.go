// Insertion-time dominance frontier: the §V-D subsumption rule applied as
// candidates arrive instead of in a per-relation batch pass.
//
// Both planners used to collect every deduplicated (leaf combo, output
// order) key and prune once per finished join relation — a sort plus a
// bucketed all-pairs scan, after materialising a Path for every key. The
// frontier keeps the live (undominated) set ordered as paths arrive, so a
// candidate dominated on arrival is dropped before materialisation, which
// on dense shapes is most of them. frontier_test.go proves the incremental
// and batch prunes agree on real DP populations; the argument is that
// dominance (metric ≤, order satisfaction, combo subsumption — each
// transitive, mutual domination between distinct keys impossible) is a
// strict partial order, so every dominated element has a *live maximal*
// dominator and screening arrivals against live members only is exact.
//
// The protocol, shared verbatim by the packed fast lane (fastplan.go), the
// wide fast lane, and the reference planner's counting mirror:
//
//   - arrival with a known key and metric ≥ the slot's: dedup loss, drop;
//   - improvement of a live slot: reposition in its order bucket, then
//     evict any live slot the improved entry now dominates;
//   - improvement of a dead slot: re-screen at the new metric; revive into
//     the frontier if undominated (keeping the slot's original sequence
//     number, which is the reference planner's first-insertion tie-break);
//   - new key: screen against live entries with metric ≤ the arrival's;
//     dominated arrivals park as dead slots (metric recorded for dedup,
//     no path), undominated ones enter the frontier and run the eviction
//     scan.
//
// Dead slots at collection time are exactly the keys the batch pass would
// have pruned, so PathsPruned accounting stays identical.
package optimizer

import "github.com/pinumdb/pinum/internal/query"

// sortSlotsByMetric orders slot ids by (metric, id) ascending with an
// in-place heapsort: no closure, no allocation (the ROADMAP item 4
// replacement for finishRelFast's sort.SliceStable call). The id tie-break
// makes the order total, so heapsort's instability is unobservable, and
// slot ids are first-arrival order, so ties break exactly like the
// reference planner's stable sort over its insertion-ordered key list.
//
//pinum:hotpath
func sortSlotsByMetric(idx []int32, metric []float64) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftSlot(idx, metric, i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		siftSlot(idx, metric, 0, i)
	}
}

//pinum:hotpath
func siftSlot(idx []int32, metric []float64, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && slotLess(metric, idx[c], idx[c+1]) {
			c++
		}
		if !slotLess(metric, idx[root], idx[c]) {
			return
		}
		idx[root], idx[c] = idx[c], idx[root]
		root = c
	}
}

//pinum:hotpath
func slotLess(metric []float64, a, b int32) bool {
	ma, mb := metric[a], metric[b]
	return ma < mb || (ma == mb && a < b)
}

// frontierSlot is one (leaf combo, output order) key's state in a
// path-keyed frontier. Unlike the packed lane — which identifies dead
// slots by their missing materialisation — the path lane keeps the slot's
// best path even while dead, because zombie-mode screens compare through
// the path's leaf slices; live is the collection flag.
type frontierSlot struct {
	path   *Path
	metric float64
	ord    int32
	// witness is the slot whose domination killed this one (-1 when none):
	// domination between fixed keys is static, so while the witness keeps
	// metric ≤ this slot's (and, in live-only mode, stays live) an
	// improving dead slot stays dead without re-running the screen.
	witness int32
	live    bool
}

// pathFrontier is the frontier over string-keyed materialised paths. It
// serves two roles: the wide fast lane's real pruning structure (plan keys
// too big for planKey), and — with sim set — the reference planner's
// counting mirror, which replays the protocol purely to produce the same
// FrontierInserts/Drops/Evictions counters while the batch pass still
// computes the reference results. The order registry and buckets persist
// across join relations; slots and the key map reset per finishRel.
type pathFrontier struct {
	opt   Options
	stats *PlannerStats
	// sim leaves PathsPruned to the reference planner's own dedup and
	// batch passes; the wide lane counts it here.
	sim bool

	slots []frontierSlot
	byKey map[string]int32

	// Output-order registry with the pairwise prefix-satisfaction matrix,
	// the string-keyed analogue of planCtx's packed registry.
	ords    [][]query.ColRef
	sat     [][]bool
	buckets [][]int32

	idxBuf    []int32
	metricBuf []float64
}

func newPathFrontier(opt Options, stats *PlannerStats, sim bool) *pathFrontier {
	return &pathFrontier{opt: opt, stats: stats, sim: sim, byKey: make(map[string]int32, 64)}
}

// metricOf is the pruning metric shared with the batch passes: the
// provably-safe internal cost by default, the paper's literal total cost
// under PaperPrune.
func (f *pathFrontier) metricOf(np *Path) float64 {
	if f.opt.PaperPrune {
		return np.Cost
	}
	return np.Internal
}

// subsumes applies the §V-D combo rule between a live slot's path and a
// candidate, matching finishRel's batch subsumption exactly.
//
//pinum:hotpath
func (f *pathFrontier) subsumes(a, b *Path) bool {
	if f.opt.PaperPrune {
		return comboSubsumesByColumn(a.Leaves, b.Leaves, b.Rels)
	}
	return comboSubsumes(a.Leaves, b.Leaves, b.Rels, f.opt.PreciseNLJ)
}

// ordID registers an output order and returns its dense id, extending the
// satisfaction matrix for new entries (the slice-keyed twin of
// planCtx.orderIDPacked; distinct order count is small, so the linear
// probe is cheap).
func (f *pathFrontier) ordID(order []query.ColRef) int32 {
	for i := range f.ords {
		if ordersEqual(f.ords[i], order) {
			return int32(i)
		}
	}
	n := len(f.ords)
	for i := 0; i < n; i++ {
		f.sat[i] = append(f.sat[i], OrderSatisfies(f.ords[i], order))
	}
	row := make([]bool, n+1)
	for j := 0; j < n; j++ {
		row[j] = OrderSatisfies(order, f.ords[j])
	}
	row[n] = true
	f.ords = append(f.ords, order)
	f.sat = append(f.sat, row)
	f.buckets = append(f.buckets, nil)
	return int32(n)
}

func ordersEqual(a, b []query.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// add runs one arrival through the frontier protocol — the same branch
// structure, counter emissions, and zombie-mode population semantics as
// the packed lane's frontierAdd (see its comment for why PaperPrune+
// PreciseNLJ needs dead slots kept as dominators). key is the caller's
// reused buffer: only a new key is copied into a string.
//
//pinum:hotpath
func (f *pathFrontier) add(key []byte, np *Path) {
	zombie := f.opt.PaperPrune && f.opt.PreciseNLJ
	m := f.metricOf(np)
	s, known := f.byKey[string(key)]
	if !known {
		// New key: a dead slot with no witness, screened below.
		s = int32(len(f.slots))
		f.byKey[string(key)] = s
		f.slots = append(f.slots, frontierSlot{path: np, metric: m, ord: f.ordID(np.Order), witness: -1})
	}
	sl := &f.slots[s]
	if known {
		if sl.metric <= m {
			if !f.sim {
				f.stats.PathsPruned++
			}
			return
		}
		if !f.sim {
			f.stats.PathsPruned++ // the displaced incumbent
		}
		if sl.live {
			// Live improvement: the dominator set only shrinks as the
			// metric drops, so no re-screen — reposition and evict.
			f.bucketRemove(s)
			sl.metric, sl.path = m, np
			f.bucketInsert(s)
			f.evict(s, zombie)
			return
		}
		if zombie {
			f.bucketRemove(s)
		}
		sl.metric, sl.path = m, np
	}
	if zombie {
		dominated := true
		if w := sl.witness; w < 0 || f.slots[w].metric > m {
			d := f.dominated(sl.ord, m, np)
			sl.witness = d
			dominated = d >= 0
		}
		f.bucketInsert(s)
		f.evict(s, zombie)
		if dominated {
			f.stats.FrontierDrops++
			return
		}
		sl.live = true
		f.stats.FrontierInserts++
		return
	}
	if w := sl.witness; w >= 0 && f.slots[w].live && f.slots[w].metric <= m {
		f.stats.FrontierDrops++
		return
	}
	if d := f.dominated(sl.ord, m, np); d >= 0 {
		sl.witness = d
		f.stats.FrontierDrops++
		return
	}
	// A revived slot re-enters the frontier under its original sequence
	// number, preserving first-arrival tie order.
	sl.witness = -1
	sl.live = true
	f.stats.FrontierInserts++
	f.bucketInsert(s)
	f.evict(s, zombie)
}

// dominated screens a candidate against the frontier: any bucket member
// (live, or a zombie-mode dead dominator) with metric ≤ the candidate's
// whose order satisfies the candidate's and whose combo subsumes it.
// Buckets are (metric, slot)-sorted, so each scan stops at the first
// larger metric, like the batch pass over its sorted slice. Returns the
// dominating slot (recorded as the dead slot's witness) or -1.
//
//pinum:hotpath
func (f *pathFrontier) dominated(ord int32, m float64, np *Path) int32 {
	for b := range f.buckets {
		if !f.sat[b][ord] {
			continue
		}
		for _, t := range f.buckets[b] {
			if f.slots[t].metric > m {
				break
			}
			if f.subsumes(f.slots[t].path, np) {
				return t
			}
		}
	}
	return -1
}

// evict kills every live slot the (just inserted or improved) slot s now
// dominates: metric ≥ s's — the batch pass dominates across equal metrics
// regardless of arrival order — in a bucket whose order s satisfies, with
// a subsumed combo. Outside zombie mode the killed slots leave their
// buckets; in zombie mode they stay parked as future dominators.
//
//pinum:hotpath
func (f *pathFrontier) evict(s int32, zombie bool) {
	m := f.slots[s].metric
	sp := f.slots[s].path
	sat := f.sat[f.slots[s].ord]
	for b := range f.buckets {
		if !sat[b] {
			continue
		}
		bucket := f.buckets[b]
		lo, hi := 0, len(bucket)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if f.slots[bucket[mid]].metric < m {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(bucket) {
			continue
		}
		if zombie {
			for _, t := range bucket[lo:] {
				if t != s && f.slots[t].live && f.subsumes(sp, f.slots[t].path) {
					f.slots[t].live = false
					f.slots[t].witness = s
					f.stats.FrontierEvictions++
				}
			}
			continue
		}
		w := lo
		for i := lo; i < len(bucket); i++ {
			t := bucket[i]
			if t != s && f.subsumes(sp, f.slots[t].path) {
				f.slots[t].live = false
				f.slots[t].witness = s
				f.stats.FrontierEvictions++
				continue
			}
			bucket[w] = t
			w++
		}
		f.buckets[b] = bucket[:w]
	}
}

// bucketInsert places s into its order bucket at the (metric, slot)
// position; bucketRemove takes it back out by binary search on the same
// ordering.
//
//pinum:hotpath
func (f *pathFrontier) bucketInsert(s int32) {
	ord := f.slots[s].ord
	b := f.buckets[ord]
	m := f.slots[s].metric
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t := b[mid]
		if f.slots[t].metric < m || (f.slots[t].metric == m && t < s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, 0)
	copy(b[lo+1:], b[lo:])
	b[lo] = s
	f.buckets[ord] = b
}

//pinum:hotpath
func (f *pathFrontier) bucketRemove(s int32) {
	ord := f.slots[s].ord
	b := f.buckets[ord]
	m := f.slots[s].metric
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t := b[mid]
		if f.slots[t].metric < m || (f.slots[t].metric == m && t < s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(b[lo:], b[lo+1:])
	f.buckets[ord] = b[:len(b)-1]
}

// finish drains the frontier for one completed join relation: live slots
// come out in (metric, first-arrival) order — byte-identical to the batch
// pass's kept sequence — and dead slots are the keys batch pruning would
// have removed. In sim mode only the reset happens; the reference batch
// pass owns both the results and the PathsPruned counts.
func (f *pathFrontier) finish() []*Path {
	var kept []*Path
	if !f.sim {
		idx, metric := f.idxBuf[:0], f.metricBuf[:0]
		for s := range f.slots {
			metric = append(metric, f.slots[s].metric)
			if !f.slots[s].live {
				f.stats.PathsPruned++
				continue
			}
			idx = append(idx, int32(s))
		}
		sortSlotsByMetric(idx, metric)
		kept = make([]*Path, 0, len(idx))
		for _, s := range idx {
			kept = append(kept, f.slots[s].path)
		}
		f.idxBuf, f.metricBuf = idx, metric
	}
	f.slots = f.slots[:0]
	clear(f.byKey)
	for b := range f.buckets {
		f.buckets[b] = f.buckets[b][:0]
	}
	return kept
}
