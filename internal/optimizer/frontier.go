// Insertion-time dominance frontier: the §V-D subsumption rule applied as
// candidates arrive instead of in a per-relation batch pass.
//
// The batch rule — collect every deduplicated (leaf combo, output order) key
// and prune once per finished join relation with a sort plus an all-pairs
// scan, after building a Path for every key — is what the test oracle does
// (reference_test.go). The frontier keeps the live (undominated) set
// ordered as candidates arrive, so a candidate dominated on arrival is
// dropped on the spot, which on dense shapes is most of them. The
// equivalence suites hold the two prunes equal; the argument is that dominance
// (metric ≤, order satisfaction, combo subsumption — each transitive) is
// antisymmetric in every mode Options admits: each mode's key is exactly as
// fine as its subsumption rule, so two distinct keys never dominate each
// other. Dominance is then a strict partial order, every dominated element
// has a *live maximal* dominator, and screening arrivals against live
// members only is exact.
//
// The protocol, implemented once in this file (frontierAdd and the scans
// and bucket moves under it, finishRel) over the planner's slot arrays:
//
//   - arrival with a known key and metric ≥ the slot's: dedup loss, drop;
//   - improvement of a live slot: reposition in its order bucket, then
//     evict any live slot the improved entry now dominates;
//   - improvement of a dead slot: re-screen at the new metric; revive into
//     the frontier if undominated (keeping the slot's original sequence
//     number, which is the batch rule's first-insertion tie-break);
//   - new key: screen against live entries with metric ≤ the arrival's;
//     dominated arrivals park as dead slots (metric recorded for dedup),
//     undominated ones enter the frontier and run the eviction scan.
//
// Dead slots at collection time are exactly the keys the batch pass would
// have pruned, so PathsPruned accounting stays identical.
//
// Both key lanes run it. A lane supplies two leaf operations and nothing
// else: finding or creating the arrival's slot (probe and newSlot's
// keyTable insert on a 32-byte planKey; wideProbe and newSlot's map insert
// on appendPathKey bytes) and deciding whether one slot's leaf combo
// subsumes another's (subsumes: subsumesPacked on key words, comboSubsumes
// or comboSubsumesByColumn on the wide lane's stored leaves).
package optimizer

// bucketEnt is one frontier-bucket member: the slot id plus copies of the
// scan-hot fields (metric for the early break, the two packed leaf words for
// the subset reject), so dominator scans walk sequential memory and only
// reach the lane's subsumption test after the quick reject passes. A wide
// slot's words are zero: the reject passes in both directions and subsumes
// decides.
type bucketEnt struct {
	metric float64
	l0, l1 uint64
	slot   int32
}

// newSlot creates the slot of the arrival in the scratch, whose lookup found
// none: the packed lane's key goes into the key table, the wide lane's key
// bytes into its map and its leaves — what subsumes reads — into
// wideLeaves, before any screen runs and whether or not the slot ever goes
// live.
//
//pinum:hotpath
func (p *planner) newSlot() int32 {
	cd := &p.cand
	if p.ctx.packed {
		return p.slots.insert(&cd.key, &cd.coefs, cd.h)
	}
	s := int32(len(p.live))
	//pinum:alloc-ok the wide lane's key is its bytes: one string per slot, none per arrival
	p.wideKeys[string(p.keyBuf)] = s
	p.wideLeaves = append(p.wideLeaves, cd.leaves...)
	return s
}

// subsumes reports whether slot a's leaf combo subsumes slot b's under the
// mode's §V-D rule. Everything the rule reads of a slot is fixed by its key,
// so the wide lane's leaves are stored once, by the slot's first arrival.
//
//pinum:hotpath
func (p *planner) subsumes(a, b int32) bool {
	if p.ctx.packed {
		return p.subsumesPacked(a, b)
	}
	n := len(p.a.Rels)
	la, lb := p.wideLeaves[int(a)*n:int(a)*n+n], p.wideLeaves[int(b)*n:int(b)*n+n]
	if p.opt.PaperPrune {
		return comboSubsumesByColumn(la, lb, p.wideSet)
	}
	return comboSubsumes(la, lb, p.wideSet, p.opt.PreciseNLJ)
}

// frontierAdd runs the arrival whose key and slot lookup the lane left in
// the scratch (candKey, screen or wideProbe) through the protocol above; ord
// is its output order (planRec.order). It returns the arrival's slot and
// whether it now holds the slot: the caller then stores the candidate there
// (p.cands[slot]) and marks it live; a false return means the arrival lost
// its dedup slot or was dominated on arrival. Screening reads the slot
// metric/order arrays, the bucket entries and the lane's subsumes only —
// never p.cands. Every scan and bucket move below is made for the arrival's
// own slot, so the prefilter words they need are the scratch key's leaf
// words: the packed combo, or zero in the wide lane.
//
//pinum:hotpath
func (p *planner) frontierAdd(m float64, ord int32) (int32, bool) {
	s := p.cand.slot
	if s < 0 {
		// New key: a dead slot with no witness, screened below.
		s = p.newSlot()
		reserve(&p.live, 1)
		reserve(&p.slotOrd, 1)
		reserve(&p.slotMetric, 1)
		reserve(&p.slotWitness, 1)
		p.cands.push(planRec{})
		p.live = append(p.live, false)
		p.slotOrd = append(p.slotOrd, p.ctx.orderID(p.cand.key.order, p.orderOf(ord)))
		p.slotMetric = append(p.slotMetric, m)
		p.slotWitness = append(p.slotWitness, -1)
	} else {
		if p.slotMetric[s] <= m {
			p.stats.PathsPruned++
			return 0, false
		}
		p.stats.PathsPruned++ // the displaced incumbent
		if p.live[s] {
			// Live improvement: the dominator set only shrinks as the
			// metric drops, so no re-screen — reposition in the bucket
			// (searched at the old metric) and evict what s now dominates.
			p.bucketRemove(s)
			p.slotMetric[s] = m
			p.bucketInsert(s)
			p.frontierEvict(s)
			return s, true
		}
		p.slotMetric[s] = m
	}
	// s is dead at metric m: screen it. The recorded witness makes that
	// O(1) while it still applies.
	if w := p.slotWitness[s]; w >= 0 && p.live[w] && p.slotMetric[w] <= m {
		p.stats.FrontierDrops++
		return 0, false
	}
	if d := p.frontierDominated(s); d >= 0 {
		p.slotWitness[s] = d
		p.stats.FrontierDrops++
		return 0, false
	}
	// A revived slot re-enters the frontier under its original sequence
	// number, preserving the first-insertion tie order.
	p.stats.FrontierInserts++
	p.bucketInsert(s)
	p.frontierEvict(s)
	return s, true
}

// frontierDominated screens the arrival's slot s, at its recorded metric,
// against the frontier: a bucket member with metric ≤ s's whose order
// satisfies s's and whose combo subsumes s's. Buckets hold the live slots
// only, in (metric, slot) order, so each scan stops at the first larger
// metric, exactly like the batch pass over its fully sorted slice. Returns
// the dominating slot — the caller records it as the dead slot's witness —
// or -1.
//
//pinum:hotpath
func (p *planner) frontierDominated(s int32) int32 {
	sat, ord, m := p.ctx.sat, p.slotOrd[s], p.slotMetric[s]
	l0, l1 := p.cand.key.leaves[0], p.cand.key.leaves[1]
	for b := range p.buckets {
		if !sat[b][ord] {
			continue
		}
		bucket := p.buckets[b]
		for i := range bucket {
			e := &bucket[i]
			if e.metric > m {
				break
			}
			if e.l0&^l0 == 0 && e.l1&^l1 == 0 && p.subsumes(e.slot, s) {
				return e.slot
			}
		}
	}
	return -1
}

// frontierEvict kills every live slot the just-inserted (or improved)
// arrival's slot s now dominates: metric ≥ s's — the batch pass dominates
// across equal metrics regardless of arrival order — in a bucket whose order
// s satisfies, with a subsumed combo. The killed slots also leave their
// buckets: transitivity re-covers anything they dominated.
//
//pinum:hotpath
func (p *planner) frontierEvict(s int32) {
	m := p.slotMetric[s]
	sl0, sl1 := p.cand.key.leaves[0], p.cand.key.leaves[1]
	sat := p.ctx.sat[p.slotOrd[s]]
	for b := range p.buckets {
		if !sat[b] {
			continue
		}
		bucket := p.buckets[b]
		lo, hi := 0, len(bucket)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bucket[mid].metric < m {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(bucket) {
			continue
		}
		w := lo
		for i := lo; i < len(bucket); i++ {
			e := bucket[i]
			t := e.slot
			if t != s && sl0&^e.l0 == 0 && sl1&^e.l1 == 0 && p.subsumes(s, t) {
				p.live[t] = false
				p.slotWitness[t] = s
				p.stats.FrontierEvictions++
				continue
			}
			bucket[w] = e
			w++
		}
		p.buckets[b] = bucket[:w]
	}
}

// bucketInsert places the arrival's slot s into its order bucket at its
// (metric, slot) position; bucketRemove takes it back out by binary search
// on the same total order. Slot ids are first-arrival order, so the
// in-bucket tie order is the batch rule's stable-sort tie order.
//
//pinum:hotpath
func (p *planner) bucketInsert(s int32) {
	for len(p.buckets) < len(p.ctx.orderRefs) {
		p.buckets = addRow(p.buckets)
	}
	ord := p.slotOrd[s]
	b := p.buckets[ord]
	e := bucketEnt{metric: p.slotMetric[s], l0: p.cand.key.leaves[0], l1: p.cand.key.leaves[1], slot: s}
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].metric < e.metric || (b[mid].metric == e.metric && b[mid].slot < s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, bucketEnt{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	p.buckets[ord] = b
}

//pinum:hotpath
func (p *planner) bucketRemove(s int32) {
	ord := p.slotOrd[s]
	b := p.buckets[ord]
	m := p.slotMetric[s]
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].metric < m || (b[mid].metric == m && b[mid].slot < s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(b[lo:], b[lo+1:])
	p.buckets[ord] = b[:len(b)-1]
}

// finishRel keeps the candidates of the completed relation set as records,
// contiguous in p.recs, and returns the relation. In normal mode they are
// the retained list. In ExportAll mode the frontier drains: the pruning
// already happened at insertion time, so all that remains is to count the
// dead slots (exactly the keys the batch pass prunes), order the live ones
// by (metric, first-arrival) — byte-identical to the batch pass's kept
// sequence — and keep the candidate that won each slot. Each record's key
// goes where the joins built on top of this relation read it back through
// planRec.key: the packed lane parks the slot's key in the arena, the wide
// lane the record's own leaves in the leaf arena (a sort's or an
// aggregation's are its input's, already there). Pruned slots' keys die
// with the scratch buffers, which are reused across relations.
//
//pinum:hotpath
func (p *planner) finishRel(set RelSet, rows float64) joinRel {
	jr := joinRel{set: set, rows: rows, lo: p.recs.n}
	if !p.opt.ExportAll {
		for i := int32(0); i < p.cands.n; i++ {
			p.recs.push(*p.cands.at(i))
		}
		p.cands.n = 0
		jr.hi = p.recs.n
		return jr
	}
	jr.hi = jr.lo
	if len(p.live) == 0 {
		return jr
	}
	idx := p.idxBuf[:0]
	for s, live := range p.live {
		if !live {
			p.stats.PathsPruned++
			continue
		}
		idx = append(idx, int32(s))
	}
	sortSlotsByMetric(idx, p.slotMetric)
	n := int32(len(p.a.Rels))
	for _, s := range idx {
		c := p.cands.at(s)
		switch {
		case p.ctx.packed:
			ak := hashedKey{p.slots.keys[s].planKey, leafHash(&p.slots.keys[s].leaves)}
			if p.opt.PreciseNLJ {
				ak.h += coefHash(&p.slots.coefs[s])
				p.arenaCoefs.push(p.slots.coefs[s])
			}
			c.key = p.keyArena.push(ak) + 1
		case c.key == 0:
			row, at := p.leafArena.grow(n)
			p.leavesInto(c, row)
			c.key = at + 1
		}
		p.recs.push(*c)
	}
	jr.hi = p.recs.n
	p.idxBuf = idx

	p.slots.reset()
	clear(p.wideKeys)
	p.wideLeaves = p.wideLeaves[:0]
	p.cands.n, p.live = 0, p.live[:0]
	p.slotMetric = p.slotMetric[:0]
	p.slotOrd = p.slotOrd[:0]
	p.slotWitness = p.slotWitness[:0]
	for b := range p.buckets {
		p.buckets[b] = p.buckets[b][:0]
	}
	return jr
}

// sortSlotsByMetric orders slot ids by (metric, id) ascending with an
// in-place heapsort: no closure, no allocation. The id tie-break makes the
// order total, so heapsort's instability is unobservable, and slot ids are
// first-arrival order, so ties break exactly like the batch rule's stable
// sort over its insertion-ordered key list.
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
