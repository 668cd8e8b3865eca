// Planner internals: the per-call plan context, the DP loops over the
// join-relation table, and the two plan-key lanes the dominance frontier
// (frontier.go) finds its slots through.
//
// PINUM's whole promise is "two optimizer calls per query", so the cost of
// one Optimize call is the cost of cache construction. The original planner
// loop spent that call on avoidable work — per-split clause rescans,
// per-probe configuration filtering, per-path string keys, an all-pairs
// subsumption pass — which this file replaces with precomputation and
// integer identities. That loop survives as the test oracle
// (reference_test.go), and the equivalence suites hold the two
// bit-identical for every Options combination.
//
// An ExportAll call considers hundreds of candidates for each one it keeps,
// so a join candidate pays only for the cheapest test that can kill it, in
// this order: (1) screen — its metric, plus a key that is 32 bytes (planKey;
// PreciseNLJ's coefficient lanes ride in a side array) written into a
// planner-owned scratch and found in an open-addressed table by a hash
// summed from its children's carried hashes — drops a dedup loss, nine
// arrivals in ten on dense shapes, before a planRec exists; (2)
// frontierAdd screens for dominance on packed keys alone; (3) the slot's
// last winner becomes a record when its relation drains. Plan identities
// that do not fit planKey (Analysis.packed false) take the wide lane: the
// key is appendPathKey's bytes, built from the candidate's merged leaves and
// found through a map, and steps (2) and (3) are the same code reading the
// slot's stored leaves instead of key words.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

// planKey is the packed (leaf combo, output order) identity of a path — the
// fixed-size form of appendPathKey's bytes, 32 bytes. Leaf
// requirements pack one byte per relation (access mode in the top two bits,
// the interned interesting-order column id in the low six), stored as two
// uint64 words so a join's combo is the OR of its children's; the output
// order packs the interned global column ids, 16 bits each. NewAnalysis
// guarantees the capacity invariants (≤16 relations, ≤63 interesting orders
// per relation, orders ≤8 columns) before enabling the packed lane.
type planKey struct {
	leaves [2]uint64
	order  [2]uint64
}

// coefLanes extends a planKey under PreciseNLJ, the only mode whose plan
// identity includes nested-loop probe counts: interned 32-bit coefficient
// ids, two relations per word. The lanes live in slices parallel to the
// slot keys and the key arena that are appended to, hashed and compared
// only when PreciseNLJ is set, so the construction modes never carry them.
type coefLanes [8]uint64

func (c *coefLanes) lane(rel int) uint32 {
	return uint32(c[rel>>1] >> uint((rel&1)*32))
}

// Key hashing. A key's hash is keyHash over a part that is linear in its
// leaf words and coefficient lanes (word × odd multiplier, summed). The
// leaf bytes and lanes of disjoint relation sets never overlap, so OR is +
// and the linear part of a join is the sum of its children's: every arena
// key carries its own (hashedKey.h) and a candidate's costs two additions
// and one finalising mix, not a walk over the key.
var hashL = [2]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f}

func leafHash(l *[2]uint64) uint64 { return l[0]*hashL[0] + l[1]*hashL[1] }

func coefMul(w int) uint64 { return 0x27d4eb2f165667c5 * uint64(2*w+1) }

func coefHash(c *coefLanes) (h uint64) {
	for w, v := range c {
		h += v * coefMul(w)
	}
	return h
}

// keyHash adds the output order and finalises (murmur3's 64-bit mix: the
// table indexes by the low bits).
func keyHash(lh, o0, o1 uint64) uint64 {
	h := lh + o0*0x165667b19e3779f9 + o1*0xd6e8feb86659fd93
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// hashedKey is a planKey beside a hash of it. In the key arena — what a
// kept record holds for the joins built on top of it (planRec.key) — h is
// the linear part; in a keyTable it is the finalised hash.
type hashedKey struct {
	planKey
	h uint64
}

// keyTable is the dedup index of the join relation under construction: slot
// keys in first-arrival order, found through one open-addressed table of
// slot+1 entries (linear probing, load ≤ ½, never empty) on the finalised
// hash. The hash sits beside its key, so a probe compares one word of the
// same cache line first and growth reinserts without rehashing.
type keyTable struct {
	precise bool // PreciseNLJ: coefs is maintained and compared
	index   []int32
	keys    []hashedKey
	coefs   []coefLanes
}

// find returns the slot holding the key (k, c) whose hash is h, or -1.
//
//pinum:hotpath
func (t *keyTable) find(k *planKey, c *coefLanes, h uint64) int32 {
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.index[i] - 1
		if s < 0 || t.keys[s].h == h && t.keys[s].planKey == *k && (!t.precise || t.coefs[s] == *c) {
			return s
		}
	}
}

// insert appends a key find did not locate and returns its slot, doubling
// the table by reinsertion when the load would pass ½.
//
//pinum:hotpath
func (t *keyTable) insert(k *planKey, c *coefLanes, h uint64) int32 {
	reserve(&t.keys, 1)
	t.keys = append(t.keys, hashedKey{*k, h})
	if t.precise {
		reserve(&t.coefs, 1)
		t.coefs = append(t.coefs, *c)
	}
	from := len(t.keys) - 1
	if 2*len(t.keys) > len(t.index) {
		t.index, from = make([]int32, 2*len(t.index)), 0
	}
	mask := uint64(len(t.index) - 1)
	for s := from; s < len(t.keys); s++ {
		i := t.keys[s].h & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(s) + 1
	}
	return int32(len(t.keys) - 1)
}

// reset empties the table for the next join relation, keeping its buffers.
func (t *keyTable) reset() {
	t.keys, t.coefs = t.keys[:0], t.coefs[:0]
	clear(t.index)
}

// candScratch is the planner-owned scratch every arrival's key is assembled
// in (candOf/candLeaf/candKey the leaves, probe the order) and found
// through: keys are never built or returned by value. The wide lane builds
// its key bytes in planner.keyBuf and uses slot and leaves only; key stays
// zero there, which is what makes the frontier's prefilter words neutral.
type candScratch struct {
	key    planKey
	coefs  coefLanes // PreciseNLJ only
	lh     uint64    // linear part of the hash
	h      uint64    // keyHash
	slot   int32     // the arrival's frontier slot, -1 when its key is new
	leaves []LeafReq // wide lane: the arrival's leaves, copied by a new slot
}

// clauseInfo is one join clause prepared for O(1) split tests: the two
// relation bits plus both pre-oriented clauseRefs.
type clauseInfo struct {
	pair     RelSet // leftBit | rightBit
	leftBit  RelSet
	fwd, rev clauseRef
}

// lookupMemo caches the best nested-loop probe index for one (relation,
// column) pair, keyed by the column's global interned id.
type lookupMemo struct {
	done bool
	ix   *catalog.Index
	cost float64
	rows float64
	id   uint16 // the column's per-relation interned id
}

// scanFact is one configuration index of a relation as the call priced it,
// once, in scanPaths (RelInfo.resolve): the position in the relation's
// Interesting list of the order it covers (-1: none), whether a scan
// through it is index-only, and the scan's cost. The base-relation plans
// and the nested-loop probes read these instead of pricing the index again.
type scanFact struct {
	ix        *catalog.Index
	order     int
	indexOnly bool
	cost      float64
}

// planCtx is the per-Optimize state: everything that can be computed once
// per call instead of once per probe.
type planCtx struct {
	a *Analysis
	// packed selects the ExportAll key lane: fixed-size planKeys inside
	// the packing invariants (Analysis.packed), variable-width key bytes
	// outside them.
	packed bool
	// perRel holds the configuration's indexes per relation, filtered
	// once per call into ixBuf and priced by the relation's scanPaths.
	perRel [][]scanFact
	ixBuf  []scanFact
	// clauses holds the prepared join clauses; crossClauses scans it once
	// per split, filling both orientation buffers in one pass.
	clauses        []clauseInfo
	bufFwd, bufRev []clauseRef

	// coefs interns nested-loop probe counts for coefLanes (PreciseNLJ);
	// coefVals is the reverse table (id-1 → value) the subsumption test
	// reads probe counts back through.
	coefs    map[float64]uint32
	coefVals []float64

	// Output-order registry: packed form (packed lane only), original
	// slice, and the pairwise prefix-satisfaction matrix the frontier
	// buckets with.
	orderPacks [][2]uint64
	orderRefs  [][]query.ColRef
	sat        [][]bool

	// cols names each interesting column by its global id (entry 0 unused):
	// cols[g:g+1:g+1] is the one-column order on it, the output order and
	// sort keys of every plan below the grouping planner (orderOf).
	cols []query.ColRef

	// lookups memoizes the nested-loop probe per global column id.
	lookups []lookupMemo

	// useful memoizes planner.useful's verdicts per global column id for the
	// join relation currently under construction (usefulSet).
	usefulSet RelSet
	useful    []int8 // 0 unknown, 1 useful, 2 not useful
}

// reset prepares ctx for one call on the buffers the last one grew.
func (ctx *planCtx) reset(a *Analysis, cfg *query.Config) {
	clear(ctx.coefs)
	*ctx = planCtx{
		a: a, packed: a.packed,
		perRel: fit(ctx.perRel, len(a.Rels)), ixBuf: ctx.ixBuf[:0],
		clauses: ctx.clauses[:0], bufFwd: ctx.bufFwd[:0], bufRev: ctx.bufRev[:0],
		coefs: ctx.coefs, coefVals: ctx.coefVals[:0],
		orderPacks: ctx.orderPacks[:0], orderRefs: ctx.orderRefs[:0], sat: ctx.sat[:0],
		cols:    append(ctx.cols[:0], query.ColRef{}),
		lookups: fit(ctx.lookups, a.ordTotal+1), useful: fit(ctx.useful, a.ordTotal+1),
	}
	for i := range a.Rels {
		for _, col := range a.Rels[i].Interesting {
			ctx.cols = append(ctx.cols, query.ColRef{Rel: i, Column: col})
		}
	}
	if cfg != nil {
		for i := range a.Rels {
			t, from := a.Rels[i].Table.Name, len(ctx.ixBuf)
			for _, ix := range cfg.Indexes {
				if ix.Table == t {
					ctx.ixBuf = append(ctx.ixBuf, scanFact{ix: ix})
				}
			}
			ctx.perRel[i] = ctx.ixBuf[from:len(ctx.ixBuf):len(ctx.ixBuf)]
		}
	}
	for i, j := range a.Q.Joins {
		l, r := int32(a.orderGID(j.Left)), int32(a.orderGID(j.Right))
		ctx.clauses = append(ctx.clauses, clauseInfo{
			pair:    Single(j.Left.Rel) | Single(j.Right.Rel),
			leftBit: Single(j.Left.Rel),
			fwd:     clauseRef{idx: int32(i), outer: l, inner: r},
			rev:     clauseRef{idx: int32(i), outer: r, inner: l},
		})
	}
}

// crossClauses enumerates the join clauses crossing the disjoint sets
// (s1, s2), returning both orientations in one pass over the prebuilt
// clause table. The buffers are reused across splits: callers consume them
// before the next call. A clause crosses iff it has one endpoint in each
// set, which is two bitset tests per clause.
//
//pinum:hotpath
func (ctx *planCtx) crossClauses(s1, s2 RelSet) (fwd, rev []clauseRef) {
	fwd, rev = ctx.bufFwd[:0], ctx.bufRev[:0]
	for i := range ctx.clauses {
		ci := &ctx.clauses[i]
		if ci.pair&s1 == 0 || ci.pair&s2 == 0 {
			continue
		}
		if ci.leftBit&s1 != 0 {
			fwd = append(fwd, ci.fwd)
			rev = append(rev, ci.rev)
		} else {
			fwd = append(fwd, ci.rev)
			rev = append(rev, ci.fwd)
		}
	}
	ctx.bufFwd, ctx.bufRev = fwd, rev
	return fwd, rev
}

// lookup memoizes the cheapest index for a nested-loop probe on the
// interesting column of global id g: the answer depends only on (relation,
// column). The minimisation runs over the relation's indexes in
// configuration order, first strictly cheaper index winning.
//
//pinum:hotpath
func (ctx *planCtx) lookup(a *Analysis, g int32) *lookupMemo {
	m := &ctx.lookups[g]
	if !m.done {
		m.done = true
		rel := ctx.cols[g].Rel
		ri := &a.Rels[rel]
		m.id = uint16(g) - a.ordBase[rel]
		k := int(m.id) - 1 // the column's position in ri.Interesting
		best := math.Inf(1)
		var via *catalog.Index
		for x := range ctx.perRel[rel] {
			f := &ctx.perRel[rel][x]
			if f.order != k {
				continue
			}
			if lc := a.lookupCost(ri, f.ix, ri.orders[k].val, f.indexOnly); lc < best {
				best = lc
				via = f.ix
			}
		}
		if via != nil {
			m.ix = via
			m.cost = best
			m.rows = ri.orders[k].val
		}
	}
	return m
}

// coefID interns a nested-loop probe coefficient (1-based, so a zero lane
// means "no coefficient recorded", mirroring how the string key only
// appends the coefficient for precise lookup leaves).
func (ctx *planCtx) coefID(coef float64) uint32 {
	if ctx.coefs == nil {
		ctx.coefs = make(map[float64]uint32)
	}
	if id, ok := ctx.coefs[coef]; ok {
		return id
	}
	id := uint32(len(ctx.coefs) + 1)
	ctx.coefs[coef] = id
	ctx.coefVals = append(ctx.coefVals, coef)
	return id
}

// packOrder packs an output order as its interned global column ids, 16
// bits per column. Ids are 1-based, so the packing is prefix-unambiguous
// and the low 16 bits are always the leading column's id.
func (ctx *planCtx) packOrder(order []query.ColRef) [2]uint64 {
	var o [2]uint64
	for i, cr := range order {
		o[i>>2] |= uint64(ctx.a.orderGID(cr)) << uint((i&3)*16)
	}
	return o
}

// orderID registers an output order in the context registry and returns its
// dense id, extending the pairwise satisfaction matrix for new entries. The
// packed lane matches on the packed form, which is injective inside its
// invariants (ids are per-(rel, column) unique, orders ≤8 columns), so equal
// packs mean equal orders and no column is ever re-interned here; the wide
// lane, whose orders may be longer, compares the slices.
func (ctx *planCtx) orderID(packed [2]uint64, order []query.ColRef) int32 {
	if ctx.packed {
		for i := range ctx.orderPacks {
			if ctx.orderPacks[i] == packed {
				return int32(i)
			}
		}
		ctx.orderPacks = append(ctx.orderPacks, packed)
	} else {
		for i := range ctx.orderRefs {
			if slices.Equal(ctx.orderRefs[i], order) {
				return int32(i)
			}
		}
	}
	n := len(ctx.orderRefs)
	for i := 0; i < n; i++ {
		ctx.sat[i] = append(ctx.sat[i], OrderSatisfies(ctx.orderRefs[i], order))
	}
	ctx.sat = addRow(ctx.sat)
	row := ctx.sat[n]
	for j := 0; j < n; j++ {
		row = append(row, OrderSatisfies(order, ctx.orderRefs[j]))
	}
	ctx.sat[n] = append(row, true) // every order satisfies itself
	ctx.orderRefs = append(ctx.orderRefs, order)
	return int32(n)
}

// usefulMemo answers "can an order led by the column of global id g still
// matter above this relation set?" through the per-call verdict cache,
// computing via usefulLead on a miss. The cache resets when the join
// relation under construction changes (the DP completes one relation at a
// time), so a verdict costs two array reads per probe.
//
//pinum:hotpath
func (p *planner) usefulMemo(set RelSet, g uint16) bool {
	ctx := &p.ctx
	if ctx.usefulSet != set {
		ctx.usefulSet = set
		clear(ctx.useful)
	}
	switch ctx.useful[g] {
	case 1:
		return true
	case 2:
		return false
	}
	if p.usefulLead(set, p.ctx.cols[g]) {
		ctx.useful[g] = 1
		return true
	}
	ctx.useful[g] = 2
	return false
}

// candLeaf ORs one relation's leaf requirement (mode, the column's interned
// per-relation id, the probe count) into the scratch key.
//
//pinum:hotpath
func (p *planner) candLeaf(rel int, mode AccessMode, id uint16, coef float64) {
	cd, b := &p.cand, uint64(id) // packed lane only, so the id fits 6 bits
	if !p.opt.PaperPrune {
		// Under PaperPrune the byte is the bare column id: the string
		// key's 'c' mode collapse.
		b |= uint64(mode) << 6
	}
	b <<= uint(rel&7) * 8
	cd.key.leaves[rel>>3] |= b
	cd.lh += b * hashL[rel>>3]
	if mode == AccessLookup && p.opt.PreciseNLJ {
		v := uint64(p.ctx.coefID(coef)) << uint((rel&1)*32)
		cd.coefs[rel>>1] |= v
		cd.lh += v * coefMul(rel>>1)
	}
}

// candOf starts the scratch key of the candidates joining op and ip without
// building anything: the children's packed leaf combos, parked in the key
// arena when their relations drained, OR together (their relation sets are
// disjoint) and their carried hashes add. ok is op's arena key, which the
// caller looks up once for all of op's candidates; ip is nil for an indexed
// nested loop, whose probe leaf candLeaf adds.
//
//pinum:hotpath
func (p *planner) candOf(op *planRec, ok *hashedKey, ip *planRec) {
	cd := &p.cand
	cd.key.leaves, cd.lh = ok.leaves, ok.h
	if p.opt.PreciseNLJ {
		cd.coefs = *p.arenaCoefs.at(op.key - 1)
	}
	if ip == nil {
		return
	}
	ik := p.keyArena.at(ip.key - 1)
	cd.key.leaves[0] |= ik.leaves[0]
	cd.key.leaves[1] |= ik.leaves[1]
	cd.lh += ik.h
	if p.opt.PreciseNLJ {
		for w, v := range p.arenaCoefs.at(ip.key - 1) {
			cd.coefs[w] |= v
		}
	}
}

// candKey assembles and probes the key of a candidate no join screen
// probed: a base-relation scan, from its own leaf, or a grouping-planner
// plan, whose leaves are those of the record it sorts or aggregates.
//
//pinum:hotpath
func (p *planner) candKey(c *planRec) {
	if c.key > 0 {
		p.candOf(c, p.keyArena.at(c.key-1), nil)
	} else {
		p.cand.key.leaves, p.cand.lh, p.cand.coefs = [2]uint64{}, 0, coefLanes{}
		if c.order > 0 {
			rel := p.ctx.cols[c.order].Rel
			p.candLeaf(rel, AccessOrdered, uint16(c.order)-p.a.ordBase[rel], 1)
		}
	}
	o := p.ctx.packOrder(p.orderOf(c.order))
	p.probe(o[0], o[1])
}

// probe completes the scratch key with its output order and looks it up.
//
//pinum:hotpath
func (p *planner) probe(o0, o1 uint64) {
	cd := &p.cand
	cd.key.order[0], cd.key.order[1] = o0, o1
	cd.h = keyHash(cd.lh, o0, o1)
	cd.slot = p.slots.find(&cd.key, &cd.coefs, cd.h)
}

// wideProbe is the wide lane's slot lookup: the arrival's key is its
// appendPathKey bytes, built in keyBuf from the path's or the candidate's
// leaves.
//
//pinum:hotpath
func (p *planner) wideProbe(rels RelSet, leaves []LeafReq, order []query.ColRef) {
	p.keyBuf = appendPathKey(p.keyBuf[:0], rels, leaves, order, p.opt.PreciseNLJ, p.opt.PaperPrune)
	p.wideSet, p.cand.leaves, p.cand.slot = rels, leaves, -1
	if s, ok := p.wideKeys[string(p.keyBuf)]; ok {
		p.cand.slot = s
	}
}

// screen is the first and cheapest test a join candidate takes, before
// anything is assembled for it: with the pair's leaves in the scratch key,
// it adds the candidate's one-column order (a global column id, packed as
// itself), probes, and reports a dedup loss — a known key whose slot
// already holds a metric no worse — counted exactly as frontierAdd would.
// Everything else goes on to admit, which finds the probe's result in the
// scratch.
//
//pinum:hotpath
func (p *planner) screen(ord int32, cost, internal float64) bool {
	p.probe(uint64(ord), 0)
	if s := p.cand.slot; s < 0 || p.slotMetric[s] > p.metric(cost, internal) {
		return false
	}
	p.stats.PathsConsidered++
	p.stats.PathsPruned++
	return true
}

// planFast is the connectivity-aware DP loop: join relations indexed by
// relation mask in a dense table, but instead of sweeping every mask and
// every submask split, the prebuilt join graph emits only csg-cmp pairs
// (enumerate.go), pre-sorted into the dense sweep's order so candidate
// insertion — and with it every tie-break — is the sweep's, and so the test
// oracle's (reference_test.go). Disconnection is detected up front by a graph reachability
// check rather than discovered at the full mask.
//
// relTable is planFast's DP table over join relations: a dense
// mask-indexed slice when the mask space is small (≤16 relations, at most
// 64K slots), a map beyond it. The connectivity-aware enumeration touches
// only planned masks, so the wide form never materialises the exponential
// mask space.
type relTable struct {
	dense  []joinRel // 1<<n entries up to 16 relations, empty beyond
	sparse map[RelSet]joinRel
}

// reset sizes the table for n relations.
func (t *relTable) reset(n int) {
	if t.dense = t.dense[:0]; n <= 16 {
		t.dense = fit(t.dense, 1<<uint(n))
	} else if t.sparse == nil {
		t.sparse = make(map[RelSet]joinRel, 4*n)
	} else {
		clear(t.sparse)
	}
}

//pinum:hotpath
func (t *relTable) get(s RelSet) joinRel {
	if len(t.dense) != 0 {
		return t.dense[s]
	}
	return t.sparse[s]
}

//pinum:hotpath
func (t *relTable) put(jr joinRel) {
	if len(t.dense) != 0 {
		t.dense[jr.set] = jr
		return
	}
	t.sparse[jr.set] = jr
}

//pinum:hotpath
func (p *planner) planFast() (joinRel, error) {
	n := len(p.a.Rels)
	rels := &p.rels
	rels.reset(n)
	planned := 0
	for i := 0; i < n; i++ {
		jr := p.scanPaths(i)
		if jr.lo == jr.hi {
			return joinRel{}, fmt.Errorf("optimizer: no access path for relation %d", i)
		}
		rels.put(jr)
		planned++
	}
	if n == 1 {
		p.stats.JoinRels = 1
		return rels.get(Single(0)), nil
	}

	a, e := p.a, p.a.joinEnum()
	if !e.connected {
		return joinRel{}, fmt.Errorf("optimizer: join graph of query %s is disconnected", p.a.Q.Name)
	}
	if !e.fits {
		if n > 16 {
			// Past 16 relations the in-place sweep's 3^n splits are out of
			// reach; only the connectivity-aware enumeration is feasible,
			// and its pair list just overflowed.
			return joinRel{}, fmt.Errorf("optimizer: query %s joins %d relations with a join graph too dense to enumerate", a.Q.Name, n)
		}
		// The graph is dense enough that the pair list would rival the
		// dense sweep's 3^n split count in memory; sweep in place instead
		// (same order, same results, no pair materialisation).
		return p.planFastDense(rels.dense, planned)
	}
	pairs := e.pairs
	p.stats.EnumStates += len(pairs)

	// Pairs arrive grouped by union mask, ascending, so both halves of
	// every pair are planned before their union, and each join relation is
	// filled contiguously — finishRel drains the keyed store per group
	// exactly as the dense sweep did per mask. Both halves are connected
	// with at least one crossing clause by construction, so the dense
	// sweep's absent-half and empty-clause screens have nothing left to
	// catch.
	for gi := 0; gi < len(pairs); {
		mask := pairs[gi].mask
		jr := joinRel{set: mask, rows: p.a.JoinRows(mask)}
		for ; gi < len(pairs) && pairs[gi].mask == mask; gi++ {
			s1 := pairs[gi].sub
			s2 := mask ^ s1
			fwd, rev := p.ctx.crossClauses(s1, s2)
			p.stats.ClauseLookups++
			left, right := rels.get(s1), rels.get(s2)
			p.joinPaths(&jr, &left, &right, fwd)
			p.joinPaths(&jr, &right, &left, rev)
		}
		rels.put(p.finishRel(mask, jr.rows))
		planned++
	}
	p.stats.JoinRels = planned
	// Every non-trivial mask the dense sweep would visit but the
	// enumeration never produced is a disconnected subset; a sweep counts
	// the same masks one by one as their splits come up empty. (Past 62
	// relations the mask count overflows int.)
	if n <= 62 {
		p.stats.MasksSkipped += (1<<uint(n) - 1) - planned
	}
	top := rels.get(RelSet(1<<uint(n)) - 1)
	if top.lo == top.hi {
		return joinRel{}, fmt.Errorf("optimizer: join graph of query %s is disconnected", p.a.Q.Name)
	}
	return top, nil
}

// planFastDense is the dense-table sweep, retained as planFast's fallback
// for graphs whose csg-cmp pair count overflows enumPairCap (near-
// clique joins approaching the 16-relation cap, where connectivity-aware
// enumeration saves nothing). It walks every submask split of every mask in
// place — no pair list, no sort — visiting splits in exactly the order the
// sorted pair list reproduces, so results stay bit-identical either way;
// it visits DenseSplits(n) splits. rels holds the already-planned
// single-relation entries; planned counts them.
//
//pinum:hotpath
func (p *planner) planFastDense(rels []joinRel, planned int) (joinRel, error) {
	n := len(p.a.Rels)
	full := RelSet(1<<uint(n)) - 1
	for mask := RelSet(3); mask <= full; mask++ {
		low := mask & -mask
		if mask == low {
			continue // single relation, already planned
		}
		jr := joinRel{}
		// Enumerate proper submasks containing the lowest bit, so each
		// unordered split is visited once.
		for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
			if s1&low == 0 {
				continue
			}
			p.stats.EnumStates++
			s2 := mask ^ s1
			left, right := &rels[s1], &rels[s2]
			if left.set == 0 || right.set == 0 {
				continue
			}
			fwd, rev := p.ctx.crossClauses(s1, s2)
			p.stats.ClauseLookups++
			if len(fwd) == 0 {
				continue
			}
			if jr.set == 0 {
				jr = joinRel{set: mask, rows: p.a.JoinRows(mask)}
			}
			p.joinPaths(&jr, left, right, fwd)
			p.joinPaths(&jr, right, left, rev)
		}
		if jr.set != 0 {
			rels[mask] = p.finishRel(mask, jr.rows)
			planned++
		} else {
			p.stats.MasksSkipped++
		}
	}
	p.stats.JoinRels = planned
	top := rels[full]
	if top.lo == top.hi {
		return joinRel{}, fmt.Errorf("optimizer: join graph of query %s is disconnected", p.a.Q.Name)
	}
	return top, nil
}

// DenseSplits is the number of splits a dense sweep over n relations visits:
// every proper submask holding the lowest member, of every subset of at
// least two relations — Σₖ C(n,k)(2ᵏ⁻¹−1) = (3ⁿ−1)/2 − (2ⁿ−1).
func DenseSplits(n int) int {
	pow3 := 1
	for i := 0; i < n; i++ {
		pow3 *= 3
	}
	return (pow3-1)/2 - (1<<uint(n) - 1)
}

const (
	swarLo7 = 0x7f7f7f7f7f7f7f7f
	swarHi  = 0x8080808080808080
)

// byteSpread returns a mask with 0xff in every byte of v that is non-zero.
func byteSpread(v uint64) uint64 {
	x := ((v & swarLo7) + swarLo7) | v
	return (x & swarHi) >> 7 * 0xff
}

// lookupBits marks bit 7 of every byte of v whose access-mode bits encode
// AccessLookup (binary 10: bit 7 set, bit 6 clear).
func lookupBits(v uint64) uint64 {
	return v & swarHi &^ ((v << 1) & swarHi)
}

// subsumesPacked is comboSubsumes/comboSubsumesByColumn over the packed
// leaf words of slots a and b. Any dominator's requirement bytes are a subset of the candidate's
// (Φ slots are zero, equal slots share bits), so a two-word bitwise subset
// test rejects most pairs before the byte-level pass. A differing
// requirement byte is then acceptable only when the would-be dominator's
// slot is Φ (zero) and — outside the PaperPrune column collapse — the
// dominated slot is not a lookup (a lookup is only ever subsumed by an
// identical lookup). Under PreciseNLJ the numeric probe counts of lookup
// slots are compared through the interned coefficient lanes.
//
//pinum:hotpath
func (p *planner) subsumesPacked(a, b int32) bool {
	ka, kb := &p.slots.keys[a], &p.slots.keys[b]
	if ka.leaves[0]&^kb.leaves[0] != 0 || ka.leaves[1]&^kb.leaves[1] != 0 {
		return false
	}
	if p.opt.PaperPrune {
		for w := 0; w < 2; w++ {
			d := ka.leaves[w] ^ kb.leaves[w]
			if d != 0 && ka.leaves[w]&byteSpread(d) != 0 {
				return false
			}
		}
		return true
	}
	for w := 0; w < 2; w++ {
		d := ka.leaves[w] ^ kb.leaves[w]
		if d == 0 {
			continue
		}
		m := byteSpread(d)
		if ka.leaves[w]&m != 0 {
			return false
		}
		if lookupBits(kb.leaves[w])&m != 0 {
			return false
		}
	}
	if p.opt.PreciseNLJ {
		vals, ca, cb := p.ctx.coefVals, &p.slots.coefs[a], &p.slots.coefs[b]
		for w := 0; w < 2; w++ {
			for lm := lookupBits(kb.leaves[w]); lm != 0; lm &= lm - 1 {
				rel := w*8 + bits.TrailingZeros64(lm)>>3
				// Matching lookup slots have lanes on both sides (every
				// precise lookup leaf records one).
				if vals[ca.lane(rel)-1] > vals[cb.lane(rel)-1] {
					return false
				}
			}
		}
	}
	return true
}
