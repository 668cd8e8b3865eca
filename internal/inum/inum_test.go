package inum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

func setup(t testing.TB, qi int) (*workload.Star, *optimizer.Analysis) {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(qs[qi], s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestBuildMakesTwoCallsPerCombo(t *testing.T) {
	s, a := setup(t, 2)
	c, err := Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.OptimizerCalls != 2*a.Q.ComboCount() {
		t.Errorf("calls = %d, want %d", c.Stats.OptimizerCalls, 2*a.Q.ComboCount())
	}
	if c.Stats.PlansCached == 0 || c.Stats.PlansCached > c.Stats.PlansSeen {
		t.Errorf("cached %d of %d seen", c.Stats.PlansCached, c.Stats.PlansSeen)
	}
	if c.Stats.Duration <= 0 {
		t.Error("no duration recorded")
	}
}

func TestCostOnEmptyCacheFails(t *testing.T) {
	_, a := setup(t, 0)
	c := NewCache(a)
	if _, _, err := c.Cost(&query.Config{}); err == nil {
		t.Error("empty cache produced a cost")
	}
	// A nil configuration is the empty one, in the error text too.
	_, _, err := c.Cost(nil)
	if err == nil || !strings.HasSuffix(err.Error(), "for configuration {}") {
		t.Errorf("Cost(nil) on an empty cache: %v, want the no-applicable-plan error naming {}", err)
	}
}

func TestCostNeverBelowOptimizer(t *testing.T) {
	s, a := setup(t, 3)
	c, err := Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	ws := whatif.NewSession(s.Catalog)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		got, plan, err := c.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan < 0 {
			t.Fatal("no winning plan")
		}
		res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		// Every cached plan is a real plan, so the model can never claim
		// a cost below the true optimum.
		if got < res.Best.Cost*(1-1e-9) {
			t.Fatalf("cfg %s: model %f below optimizer %f", cfg, got, res.Best.Cost)
		}
	}

	// The same property on every workload.Shapes topology, the 17-relation
	// chain no reference planner reaches included: four seeds each, over the
	// shape's seeded configurations plus the empty one, against a slim cache
	// filled as core.build fills it.
	compared := 0
	for seed := int64(0); seed < 4; seed++ {
		for i, sh := range workload.Shapes {
			spec := workload.ShapeSpec{Shape: sh, Rels: 5, Density: 0.4, Seed: 600 + 10*seed + int64(i)}
			cat, q, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			c := buildSlimAsCore(t, a, whatif.NewSession(cat))
			rng := rand.New(rand.NewSource(spec.Seed))
			for ci, cfg := range append(workload.ShapeConfigs(rng, cat, q, 6), &query.Config{}) {
				got, _, err := c.Cost(cfg)
				if err != nil {
					t.Fatalf("%s cfg %d: %v", q.Name, ci, err)
				}
				res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
				if err != nil {
					t.Fatalf("%s cfg %d: %v", q.Name, ci, err)
				}
				if got < res.Best.Cost*(1-1e-9) {
					t.Errorf("%s seed %d cfg %d: model %v below optimizer %v", q.Name, spec.Seed, ci, got, res.Best.Cost)
				}
				compared++
			}
		}
	}
	if want := 4 * len(workload.Shapes) * 8; compared != want {
		t.Fatalf("%d comparisons, want %d", compared, want)
	}
}

// buildSlimAsCore fills a slim cache the way core.build does — nested loops
// off, then on under PaperPrune, exporting all plans under the all-orders
// configuration — except that on a query past 16 relations (the wide chain)
// only the first three relations are indexed: ExportAll's retained set is
// exponential in the number of indexed relations, in any planner.
func buildSlimAsCore(t *testing.T, a *optimizer.Analysis, ws *whatif.Session) *Cache {
	t.Helper()
	cfg, err := AllOrdersConfig(a, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rels) > 16 {
		cfg = &query.Config{Indexes: slices.DeleteFunc(cfg.Indexes, func(ix *catalog.Index) bool {
			return ix.Table != a.Rels[0].Table.Name && ix.Table != a.Rels[1].Table.Name && ix.Table != a.Rels[2].Table.Name
		})}
	}
	c := NewCache(a)
	opts := []optimizer.Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}}
	if _, err := optimizer.NewWorkspace().Export(a, cfg, opts, nil, c.AddSummary); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPathSetDeduplicates(t *testing.T) {
	_, a := setup(t, 0)
	res, err := optimizer.Optimize(a, nil, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(a)
	set := NewPathSet(c)
	if !set.Add(res.Best) {
		t.Error("first Add rejected")
	}
	if set.Add(res.Best) {
		t.Error("duplicate Add accepted")
	}
	if c.Stats.PlansSeen != 2 || c.Stats.PlansCached != 1 || len(c.Plans) != 1 {
		t.Errorf("stats %+v, %d plans", c.Stats, len(c.Plans))
	}
}

// TestAddPathLeavesMatchSummary holds AddPath's row to the tree it came
// from: every entry's Leaf, reconstructed from the arena's slot, is the
// requirement optimizer.Summarize gives the path, and its internal cost is
// the summary's — over both construction calls' exports of
// every star query and a self-join.
func TestAddPathLeavesMatchSummary(t *testing.T) {
	check := func(s *workload.Star, a *optimizer.Analysis) {
		t.Helper()
		cfg, err := AllOrdersConfig(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []optimizer.Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}} {
			res, err := optimizer.Optimize(a, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCache(a)
			for i, p := range res.Exported {
				c.AddPath(p)
				got, want := c.Plans[i], optimizer.Summarize(p, len(a.Rels))
				if math.Float64bits(got) != math.Float64bits(want.Internal) {
					t.Fatalf("%s plan %d: internal %v, the path summarises to %v", a.Q.Name, i, got, want.Internal)
				}
				for rel := range want.Leaves {
					if got := c.Leaf(i, rel); got != want.Leaves[rel] {
						t.Fatalf("%s plan %d (%s) rel %d: Leaf %+v, the path summarises to %+v", a.Q.Name, i, p.Signature(), rel, got, want.Leaves[rel])
					}
				}
			}
			if c.Stats.PlansCached != len(res.Exported) || c.Stats.PlansSeen != 0 {
				t.Errorf("%s: AddPath counted %d cached and %d seen for %d paths", a.Q.Name, c.Stats.PlansCached, c.Stats.PlansSeen, len(res.Exported))
			}
		}
	}
	for qi := 0; qi < 10; qi++ {
		check(setup(t, qi))
	}
	check(selfJoin(t))
}

func TestAllOrdersConfigCoversEverything(t *testing.T) {
	s, a := setup(t, 4)
	ws := whatif.NewSession(s.Catalog)
	cfg, err := AllOrdersConfig(a, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rels {
		for _, col := range a.Rels[i].Interesting {
			found := false
			for _, ix := range cfg.Indexes {
				if ix.Table == a.Rels[i].Table.Name && ix.Covers(col) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("order %s.%s not covered", a.Rels[i].Table.Name, col)
			}
		}
	}
}

func TestCoveringConfigIsAtomicAndCovers(t *testing.T) {
	s, a := setup(t, 4)
	ws := whatif.NewSession(s.Catalog)
	combos := a.Q.EnumerateCombos()
	oc := combos[len(combos)-1] // the most specific combination
	cfg, err := CoveringConfig(a, ws, oc)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Atomic(a.Q) {
		t.Error("covering config not atomic")
	}
	for i, col := range oc {
		if col != "" && !slices.ContainsFunc(cfg.Indexes, func(ix *catalog.Index) bool {
			return ix.Table == a.Rels[i].Table.Name && ix.Covers(col)
		}) {
			t.Errorf("covering config %s does not cover slot %d of %v", cfg, i, oc)
		}
	}
}

// selfJoin builds a query joining dim1_1 to itself on different columns, so
// the same table appears in two relations with different interesting orders
// (a1 for the first occurrence, id for the second).
func selfJoin(t testing.TB) (*workload.Star, *optimizer.Analysis) {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Catalog.Table("dim1_1")
	if d == nil {
		t.Fatal("no dim1_1 table")
	}
	q := &query.Query{
		Name: "selfjoin",
		Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
		Joins: []query.Join{{
			Left:  query.ColRef{Rel: 0, Column: "a1"},
			Right: query.ColRef{Rel: 1, Column: "id"},
		}},
		Select: []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
	}
	a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestCoveringConfigSelfJoinCoversBothOrders(t *testing.T) {
	s, a := selfJoin(t)
	ws := whatif.NewSession(s.Catalog)
	oc := query.OrderCombo{"a1", "id"}
	cfg, err := CoveringConfig(a, ws, oc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Indexes) != 2 {
		t.Fatalf("got %d indexes for two distinct orders on one table, want 2: %s",
			len(cfg.Indexes), cfg)
	}
	for i, col := range oc {
		covered := false
		for _, ix := range cfg.Indexes {
			if ix.Table == a.Rels[i].Table.Name && ix.Covers(col) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("slot %d: order %s.%s not covered by %s", i, a.Rels[i].Table.Name, col, cfg)
		}
	}
	// Same order in both slots still deduplicates to one index, which
	// must cover the union of both occurrences' needed columns (a1 from
	// the first, a2 from the second).
	same, err := CoveringConfig(a, whatif.NewSession(s.Catalog), query.OrderCombo{"id", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Indexes) != 1 {
		t.Fatalf("identical orders produced %d indexes, want 1", len(same.Indexes))
	}
	for _, col := range []string{"id", "a1", "a2"} {
		if !same.Indexes[0].HasColumn(col) {
			t.Errorf("shared covering index %s misses %s, needed by one occurrence",
				same.Indexes[0].Key(), col)
		}
	}
}

func TestAllOrdersConfigSelfJoinCoversEverything(t *testing.T) {
	s, a := selfJoin(t)
	cfg, err := AllOrdersConfig(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rels {
		for _, col := range a.Rels[i].Interesting {
			found := false
			for _, ix := range cfg.Indexes {
				if ix.Table == a.Rels[i].Table.Name && ix.Covers(col) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("order %s.%s (rel %d) not covered", a.Rels[i].Table.Name, col, i)
			}
		}
	}
}

func TestSelfJoinBuildAndCost(t *testing.T) {
	s, a := selfJoin(t)
	c, err := Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.PlansCached == 0 {
		t.Fatal("no plans cached for the self-join")
	}
	// Pricing a two-indexes-on-one-table configuration must succeed and
	// never undercut the optimizer.
	ws := whatif.NewSession(s.Catalog)
	ixA, err := ws.CreateIndex("dim1_1", "a1", "id")
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := ws.CreateIndex("dim1_1", "id", "a2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &query.Config{Indexes: []*catalog.Index{ixA, ixB}}
	got, _, err := c.Cost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if got < res.Best.Cost*(1-1e-9) {
		t.Errorf("model %f below optimizer %f", got, res.Best.Cost)
	}
}

// TestCostConcurrentMatchesSerial prices one built cache from 8
// goroutines, each with its own configurations, and checks bit-identical
// results against a serial pass. A built cache is immutable and Cost
// works on its caller's stack, so under -race this proves there is no
// shared write left on the pricing path.
func TestCostConcurrentMatchesSerial(t *testing.T) {
	s, a := setup(t, 3)
	c, err := Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 8
	ws := whatif.NewSession(s.Catalog)
	rng := rand.New(rand.NewSource(11))
	cfgs := make([]*query.Config, workers*perWorker)
	want := make([]float64, len(cfgs))
	for i := range cfgs {
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
		want[i], _, err = c.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := lo; i < lo+perWorker; i++ {
					got, _, err := c.Cost(cfgs[i])
					if err != nil {
						errc <- err
						return
					}
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						errc <- fmt.Errorf("config %d: concurrent cost %v != serial %v", i, got, want[i])
						return
					}
				}
			}
		}(g * perWorker)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCostAllocFree is the pin behind BestPlan's //pinum:allocfree and the
// stack-resident slot table: on every query of the star workload, pricing
// a configuration — nil, empty or indexed — allocates nothing.
func TestCostAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for qi := 0; qi < 10; qi++ {
		s, a := setup(t, qi)
		if n := a.NumLeafSlots(); n > optimizer.LeafSlotsInline {
			t.Fatalf("query %d: %d leaf slots overflow the %d-slot stack buffer", qi, n, optimizer.LeafSlotsInline)
		}
		c, err := Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := workload.RandomAtomicConfig(rng, a, whatif.NewSession(s.Catalog), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []*query.Config{nil, {}, indexed} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := c.Cost(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("query %d: Cost(%s) allocates %v times per call, want 0", qi, cfg, allocs)
			}
		}
	}
}

// TestCostByTableAllocFree is the pin behind CostByTable's
// //pinum:allocfree: a request groups its configuration with one
// allocation (optimizer.GroupByTable), and every query priced through that
// grouping allocates nothing — and answers what Cost does, cost and plan.
func TestCostByTableAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for qi := 0; qi < 10; qi++ {
		s, a := setup(t, qi)
		c, err := Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := workload.RandomAtomicConfig(rng, a, whatif.NewSession(s.Catalog), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []*query.Config{nil, {}, indexed} {
			var g *optimizer.ConfigByTable
			if allocs := testing.AllocsPerRun(20, func() { g = optimizer.GroupByTable(s.Catalog.NameSpace(), cfg) }); allocs > 1 {
				t.Errorf("query %d: grouping %s allocates %v times, want at most 1", qi, cfg, allocs)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := c.CostByTable(g); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("query %d: CostByTable(%s) allocates %v times per call, want 0", qi, cfg, allocs)
			}
			want, wantPlan, _ := c.Cost(cfg)
			got, gotPlan, _ := c.CostByTable(g)
			if math.Float64bits(got) != math.Float64bits(want) || gotPlan != wantPlan {
				t.Errorf("query %d: CostByTable(%s) = %v (%v), Cost = %v (%v)", qi, cfg, got, gotPlan, want, wantPlan)
			}
		}
	}
}

func TestCollectAccessCostsNaiveCallsPerIndex(t *testing.T) {
	s, a := setup(t, 2)
	// One index per referenced column and one on all of a relation's
	// referenced columns, on every relation of the query.
	ws := whatif.NewSession(s.Catalog)
	var cands []*catalog.Index
	declare := func(table string, cols ...string) {
		ix, err := ws.CreateIndex(table, cols...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(cands, ix) {
			cands = append(cands, ix)
		}
	}
	for i := range a.Rels {
		ri := &a.Rels[i]
		for _, c := range ri.Needed {
			declare(ri.Table.Name, c)
		}
		declare(ri.Table.Name, ri.Needed...)
	}
	tab := CollectAccessCostsNaive(a, cands)
	if tab.Calls != len(cands) {
		t.Errorf("naive collection made %d calls for %d candidates", tab.Calls, len(cands))
	}
	if len(tab.ByIndex) == 0 {
		t.Error("no access costs collected")
	}
	for name, list := range tab.ByIndex {
		for _, ia := range list {
			if ia.ScanCost <= 0 {
				t.Errorf("index %s: non-positive scan cost", name)
			}
		}
	}
}

// TestSlotArenaRoundTrip looks inside the arena: every stored leaf is the
// slot LeafSlot gives its packed identity, and the boundary form (Rows)
// fed to FromRows rebuilds both arenas exactly — star queries, and the self-join whose relations share a table.
// (That Leaf is what the path was summarised to is checked, for every cache
// the plancache equivalence suites build, by their assertLeavesRoundTrip.)
func TestSlotArenaRoundTrip(t *testing.T) {
	build := func(s *workload.Star, a *optimizer.Analysis) *Cache {
		c, err := Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	caches := []*Cache{build(selfJoin(t))}
	for qi := 0; qi < 10; qi++ {
		caches = append(caches, build(setup(t, qi)))
	}
	for _, c := range caches {
		n := len(c.Q.Rels)
		internal, pks, coefs := c.Rows()
		for k, pk := range pks {
			if got := int(c.leafSlot[k]); got != c.A.LeafSlot(k%n, pk) {
				t.Fatalf("%s plan %d rel %d: arena holds slot %d, LeafSlot(%#04x) = %d", c.Q.Name, k/n, k%n, got, pk, c.A.LeafSlot(k%n, pk))
			}
		}
		fresh, err := FromRows(c.A, internal, pks, coefs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fresh.leafSlot, c.leafSlot) {
			t.Errorf("%s: slot arena %v rebuilt as %v", c.Q.Name, c.leafSlot, fresh.leafSlot)
		}
		if !slices.EqualFunc(fresh.leafCoef, c.leafCoef, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("%s: coefficient arena %v rebuilt as %v", c.Q.Name, c.leafCoef, fresh.leafCoef)
		}
	}
}

// TestEmptySlotTableMatchesAccessCost checks the incremental-engine seed:
// per plan leaf, the empty-configuration slot table must hold exactly what
// Analysis.AccessCost yields under the empty configuration — the
// sequential-scan cost for AccessAny leaves, +Inf for leaves no index
// satisfies yet.
func TestEmptySlotTableMatchesAccessCost(t *testing.T) {
	s, a := setup(t, 4)
	c, err := Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	empty := &query.Config{}
	slots := a.PriceLeafSlots(nil, nil)
	sawInf := false
	_, pks, _ := c.Rows()
	n := len(a.Q.Rels)
	for i := range c.Plans {
		for rel, pk := range pks[i*n : (i+1)*n] {
			got := slots[a.LeafSlot(rel, pk)]
			want, ok := a.AccessCost(rel, c.Leaf(i, rel), empty)
			if !ok {
				if !math.IsInf(got, 1) {
					t.Errorf("plan %d %s rel %d: unsatisfiable leaf priced as %v", i, c.Combo(i), rel, got)
				}
				sawInf = true
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("plan %d %s rel %d: slot %v != AccessCost %v", i, c.Combo(i), rel, got, want)
			}
		}
	}
	if !sawInf {
		t.Error("no ordered/lookup leaf exercised the +Inf slot")
	}
}

// TestPackedEntryBytesHalved pins the packed-entry acceptance criterion:
// storing leaf requirements in the planner's interned byte form (two
// identity bytes + float64 coefficient per relation, in cache-level arenas)
// must cut a cache's MemStats.EntryBytes at least 2x against the
// representation it replaced — a []LeafReq (mode word, string header,
// coefficient) plus a stored OrderCombo per entry.
func TestPackedEntryBytesHalved(t *testing.T) {
	for _, qi := range []int{0, 4, 9} { // 2-, 4- and 7-relation queries
		s, a := setup(t, qi)
		// The conventional INUM build's distinct plans, moved into a
		// fresh cache the way a snapshot load fills one.
		in, err := Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		internal, packed, coefs := in.Rows()
		c, err := FromRows(a, internal, packed, coefs)
		if err != nil {
			t.Fatal(err)
		}
		got := c.MemStats().EntryBytes
		// What the pre-packing MemStats accounting charged for the same
		// entries: an 88-byte plan struct (combo + leaves slice headers,
		// internal, NLJ, sig header, path pointer) plus a LeafReq and a
		// combo string header per relation (slim entries carry no Sig).
		perRel := int64(unsafe.Sizeof(optimizer.LeafReq{})) + 16
		unpacked := int64(len(c.Plans)) * (88 + int64(len(c.Q.Rels))*perRel)
		if got*2 > unpacked {
			t.Errorf("query %d: packed entries use %d bytes, unpacked form %d — less than a 2x saving",
				qi, got, unpacked)
		}
		t.Logf("query %d (%d rels): %d plans, entry bytes %d packed vs %d unpacked (%.1fx)",
			qi, len(c.Q.Rels), len(c.Plans), got, unpacked, float64(unpacked)/float64(got))
	}
}

// TestCompactRules holds Compact to each clause of its rule on hand-made
// entries of star Q10: an AccessAny leaf dominates an AccessOrdered one and
// not the other way round, a lookup leaf is dominated only by the same
// lookup, every coefficient and the internal cost must be ≤, and of two
// equal entries the first in cache order is kept. Kept entries keep their
// order, the counters add up, and every cost is the uncompacted cache's.
func TestCompactRules(t *testing.T) {
	s, a := setup(t, 9)
	n := len(a.Q.Rels)
	k := slices.IndexFunc(a.Rels, func(ri optimizer.RelInfo) bool { return len(ri.Interesting) > 0 })
	if k < 0 {
		t.Fatal("no relation of Q10 has an interesting order")
	}
	col := a.Rels[k].Interesting[0]
	row := func(mode optimizer.AccessMode) []uint16 {
		packed := make([]uint16, n)
		if mode != optimizer.AccessAny {
			pk, err := a.PackLeaf(k, optimizer.LeafReq{Mode: mode, Col: col})
			if err != nil {
				t.Fatal(err)
			}
			packed[k] = pk
		}
		return packed
	}
	coefs := func(onK, others float64) []float64 {
		cs := make([]float64, n)
		for rel := range cs {
			cs[rel] = others
		}
		cs[k] = onK
		return cs
	}
	entries := []struct {
		internal float64
		packed   []uint16
		coefs    []float64
		kept     bool
	}{
		{10, row(optimizer.AccessOrdered), coefs(1, 1), false}, // entry 1's Any leaf undercuts it
		{10, row(optimizer.AccessAny), coefs(1, 1), true},
		{11, row(optimizer.AccessLookup), coefs(1, 1), true}, // no Any leaf stands in for a lookup
		{10, row(optimizer.AccessAny), coefs(1, 1), false},   // equal to entry 1, which comes first
		{9, row(optimizer.AccessOrdered), coefs(2, 2), true}, // cheaper inside, dearer per leaf
		{11, row(optimizer.AccessOrdered), coefs(0.5, 1), true},
		{12, row(optimizer.AccessLookup), coefs(1, 1), false}, // entry 2 is the same lookup, cheaper
		{10, row(optimizer.AccessAny), coefs(1, 2), false},
	}
	var internal, coefRows []float64
	var packed []uint16
	for _, e := range entries {
		internal, packed, coefRows = append(internal, e.internal), append(packed, e.packed...), append(coefRows, e.coefs...)
	}
	raw, err := FromRows(a, internal, packed, coefRows)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromRows(a, internal, packed, coefRows)
	if err != nil {
		t.Fatal(err)
	}
	c.Compact()
	var want []int
	for i, e := range entries {
		if e.kept {
			want = append(want, i)
		}
	}
	if len(c.Plans) != len(want) || c.Stats.PlansCached != len(want) || c.Stats.PlansDominated != len(entries)-len(want) {
		t.Fatalf("kept %d entries (%d cached, %d dominated), want entries %v", len(c.Plans), c.Stats.PlansCached, c.Stats.PlansDominated, want)
	}
	_, pks, css := c.Rows()
	for j, i := range want {
		pk, cs := pks[j*n:(j+1)*n], css[j*n:(j+1)*n]
		if c.Plans[j] != entries[i].internal || !slices.Equal(pk, entries[i].packed) || !slices.Equal(cs, entries[i].coefs) {
			t.Errorf("kept entry %d is %s internal=%.2f, want entry %d", j, c.Combo(j), c.Plans[j], i)
		}
	}
	if got := c.MemStats().EntryBytes; got != int64(len(want)*(8+10*n)) {
		t.Errorf("compacted entries take %d bytes; the arenas are not exact-size", got)
	}
	rng := rand.New(rand.NewSource(3))
	ws := whatif.NewSession(s.Catalog)
	for i := 0; i < 20; i++ {
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := raw.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: compacted cost %v, uncompacted %v", cfg, got, want)
		}
	}
}
