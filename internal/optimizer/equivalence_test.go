package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
)

// allOptions enumerates all 32 Options values, the nine the planner
// implements and the 23 it refuses.
func allOptions() []Options {
	var out []Options
	for i := 0; i < 32; i++ {
		out = append(out, Options{
			EnableNestLoop:     i&1 != 0,
			ExportAll:          i&2 != 0,
			CollectAccessCosts: i&4 != 0,
			PreciseNLJ:         i&8 != 0,
			PaperPrune:         i&16 != 0,
		})
	}
	return out
}

// validOptions are the nine option sets the planner implements, listed
// apart from Options.check: the sweeps compare plans under these and expect
// every other value refused with ErrOptions.
var validOptions = []Options{
	{},
	{EnableNestLoop: true},
	{CollectAccessCosts: true},
	{ExportAll: true},
	{ExportAll: true, PreciseNLJ: true},
	{EnableNestLoop: true, ExportAll: true, PaperPrune: true},
	{EnableNestLoop: true, ExportAll: true, PreciseNLJ: true},
	{EnableNestLoop: true, ExportAll: true},
	{ExportAll: true, PaperPrune: true},
}

// sigSet collects the canonical signature multiset of an exported plan list.
func sigSet(paths []*Path) []string {
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		out = append(out, p.Signature())
	}
	sort.Strings(out)
	return out
}

// assertEquivalent runs the planner and its oracle on the same inputs
// and requires bit-identical best cost, identical exported signature sets,
// and identical access-cost tables — or, for an option set outside
// validOptions, that both refuse it.
func assertEquivalent(t *testing.T, label string, a *Analysis, cfg *query.Config, opt Options) {
	t.Helper()
	fast, ferr := Optimize(a, cfg, opt)
	ref, rerr := OptimizeReference(a, cfg, opt)
	if valid := slices.Contains(validOptions, opt); valid == errors.Is(ferr, ErrOptions) || valid == errors.Is(rerr, ErrOptions) {
		t.Fatalf("%s: valid=%v, but fast=%v reference=%v", label, valid, ferr, rerr)
	}
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("%s: error disagreement: fast=%v reference=%v", label, ferr, rerr)
	}
	if ferr != nil {
		return
	}
	if math.Float64bits(fast.Best.Cost) != math.Float64bits(ref.Best.Cost) {
		t.Fatalf("%s: best cost differs: fast=%v reference=%v", label, fast.Best.Cost, ref.Best.Cost)
	}
	if math.Float64bits(fast.Best.Internal) != math.Float64bits(ref.Best.Internal) {
		t.Fatalf("%s: best internal differs: fast=%v reference=%v", label, fast.Best.Internal, ref.Best.Internal)
	}
	if fast.Best.Signature() != ref.Best.Signature() {
		t.Fatalf("%s: best plan differs:\n  fast: %s\n  ref:  %s", label, fast.Best.Signature(), ref.Best.Signature())
	}
	if opt.ExportAll {
		fs, rs := sigSet(fast.Exported), sigSet(ref.Exported)
		if len(fs) != len(rs) {
			t.Fatalf("%s: exported %d plans, reference exported %d", label, len(fs), len(rs))
		}
		for i := range fs {
			if fs[i] != rs[i] {
				t.Fatalf("%s: exported signature sets differ at %d:\n  fast: %s\n  ref:  %s", label, i, fs[i], rs[i])
			}
		}
		// The two planners generate candidates in the same order and break
		// insertion-order ties alike, so even the export sequence and every
		// per-plan cost decomposition must coincide exactly.
		for i := range fast.Exported {
			fp, rp := fast.Exported[i], ref.Exported[i]
			if fp.Signature() != rp.Signature() {
				t.Fatalf("%s: export sequence diverges at %d:\n  fast: %s\n  ref:  %s",
					label, i, fp.Signature(), rp.Signature())
			}
			if math.Float64bits(fp.Internal) != math.Float64bits(rp.Internal) ||
				math.Float64bits(fp.Cost) != math.Float64bits(rp.Cost) ||
				math.Float64bits(fp.LeafCost) != math.Float64bits(rp.LeafCost) {
				t.Fatalf("%s: plan %s costs differ: fast (%v, %v, %v) reference (%v, %v, %v)",
					label, rp.Signature(), fp.Cost, fp.Internal, fp.LeafCost, rp.Cost, rp.Internal, rp.LeafCost)
			}
		}
	}
	if opt.CollectAccessCosts {
		if len(fast.AccessCosts) != len(ref.AccessCosts) {
			t.Fatalf("%s: access-cost table sizes differ: %d vs %d", label, len(fast.AccessCosts), len(ref.AccessCosts))
		}
		for i := range fast.AccessCosts {
			fa, ra := fast.AccessCosts[i], ref.AccessCosts[i]
			if fa.Rel != ra.Rel || fa.Index != ra.Index || fa.IndexOnly != ra.IndexOnly ||
				fa.OrderCol != ra.OrderCol ||
				math.Float64bits(fa.ScanCost) != math.Float64bits(ra.ScanCost) ||
				math.Float64bits(fa.LookupCost) != math.Float64bits(ra.LookupCost) {
				t.Fatalf("%s: access-cost row %d differs: fast %+v reference %+v", label, i, fa, ra)
			}
		}
	}
	// The two planners consider the same candidates, so the
	// considered/retained counters must agree; only the pruning work differs.
	if fast.Stats.PathsConsidered != ref.Stats.PathsConsidered {
		t.Fatalf("%s: paths considered differ: fast %d reference %d",
			label, fast.Stats.PathsConsidered, ref.Stats.PathsConsidered)
	}
	if fast.Stats.PathsRetained != ref.Stats.PathsRetained {
		t.Fatalf("%s: paths retained differ: fast %d reference %d",
			label, fast.Stats.PathsRetained, ref.Stats.PathsRetained)
	}
	if fast.Stats.JoinRels != ref.Stats.JoinRels {
		t.Fatalf("%s: join relations differ: fast %d reference %d",
			label, fast.Stats.JoinRels, ref.Stats.JoinRels)
	}
	// Both planners account skipped (disconnected) masks identically: the
	// reference by exhausting each one's splits, the fast planner
	// arithmetically from the connected-subgraph count.
	if fast.Stats.MasksSkipped != ref.Stats.MasksSkipped {
		t.Fatalf("%s: masks skipped differ: fast %d reference %d",
			label, fast.Stats.MasksSkipped, ref.Stats.MasksSkipped)
	}
	// Dedup losses, displaced incumbents and dominated keys: the frontier
	// prunes at insertion exactly what the batch pass prunes at the end.
	if fast.Stats.PathsPruned != ref.Stats.PathsPruned {
		t.Fatalf("%s: paths pruned differ: fast %d reference %d",
			label, fast.Stats.PathsPruned, ref.Stats.PathsPruned)
	}
	// The DPccp enumeration must never visit more DP states than the dense
	// sweep (it visits exactly the viable ones).
	if fast.Stats.EnumStates > ref.Stats.EnumStates {
		t.Fatalf("%s: fast planner visited more DP states than the dense sweep: %d > %d",
			label, fast.Stats.EnumStates, ref.Stats.EnumStates)
	}
	if len(a.Rels) > 1 && fast.Stats.EnumStates == 0 {
		t.Fatalf("%s: fast planner recorded no enumeration states on a %d-relation join",
			label, len(a.Rels))
	}
}

// equivCatalog builds a schema for randomized equivalence workloads: a fact
// table, three dimensions, and a chain tail, with key-like and low-NDV
// attribute columns.
func equivCatalog(t testing.TB) *catalogFixture {
	t.Helper()
	f := &catalogFixture{t: t, cat: catalog.New()}
	f.add("fact", 2_000_000, "id", "fk1", "fk2", "fk3", "m1", "a1", "a2")
	f.add("dim1", 100_000, "id", "fkc", "a1")
	f.add("dim2", 150_000, "id", "a1", "a2")
	f.add("dim3", 50_000, "id", "a1")
	f.add("tail", 10_000, "id", "a1")
	f.cat.Table("fact").Column("fk1").NDV = 100_000
	f.cat.Table("fact").Column("fk2").NDV = 150_000
	f.cat.Table("fact").Column("fk3").NDV = 50_000
	f.cat.Table("dim1").Column("fkc").NDV = 10_000
	return f
}

type catalogFixture struct {
	t   testing.TB
	cat *catalog.Catalog
}

// add registers a table whose non-id columns have 1000 distinct values in
// [1, 1000] (so range filters hit) and whose id column is key-like.
func (f *catalogFixture) add(name string, rows int64, cols ...string) {
	tb := &catalog.Table{Name: name, RowCount: rows}
	for _, c := range cols {
		ndv := rows
		min, max := int64(1), rows
		if c != "id" {
			ndv = 1000
			max = 1000
		}
		tb.Columns = append(tb.Columns, &catalog.Column{Name: c, Type: catalog.Int, NDV: ndv, Min: min, Max: max})
	}
	if err := f.cat.AddTable(tb); err != nil {
		f.t.Fatal(err)
	}
}

func TestPlannerEquivalenceStar(t *testing.T) {
	testPlannerEquivalence(t, "star", func(rng *rand.Rand, f *catalogFixture) *query.Query {
		return f.starQuery(rng)
	})
}

func TestPlannerEquivalenceChain(t *testing.T) {
	testPlannerEquivalence(t, "chain", func(rng *rand.Rand, f *catalogFixture) *query.Query {
		return f.chainQuery(rng)
	})
}

func TestPlannerEquivalenceSelfJoin(t *testing.T) {
	testPlannerEquivalence(t, "selfjoin", func(rng *rand.Rand, f *catalogFixture) *query.Query {
		return f.selfJoinQuery(rng)
	})
}

func testPlannerEquivalence(t *testing.T, shape string, gen func(*rand.Rand, *catalogFixture) *query.Query) {
	rng := rand.New(rand.NewSource(7))
	f := equivCatalog(t)
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		q := gen(rng, f)
		a, err := NewAnalysis(q, nil, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range f.randomConfigs(rng, a, 3) {
			for _, opt := range allOptions() {
				label := fmt.Sprintf("%s/trial=%d/cfg=%d/opt=%+v", shape, trial, ci, opt)
				assertEquivalent(t, label, a, cfg, opt)
			}
		}
	}
}

// TestPlannerEquivalenceDebugQuery pins the 6-way Q5 analogue with the
// all-orders configuration — the exact call core.Build makes.
func TestPlannerEquivalenceDebugQuery(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)
	for _, opt := range allOptions() {
		assertEquivalent(t, fmt.Sprintf("debug-q5/opt=%+v", opt), a, cfg, opt)
	}
	// The empty and nil configurations exercise the no-index paths.
	for _, opt := range allOptions() {
		assertEquivalent(t, fmt.Sprintf("debug-q5-nilcfg/opt=%+v", opt), a, nil, opt)
		assertEquivalent(t, fmt.Sprintf("debug-q5-emptycfg/opt=%+v", opt), a, &query.Config{}, opt)
	}

	// The oracle's split count is arithmetic on the mask space (DenseSplits,
	// what E6 reports as the dense state count): it visits exactly that
	// many splits on a chain, a star and this query.
	rng, f := rand.New(rand.NewSource(7)), equivCatalog(t)
	for _, q := range []*query.Query{f.chainQuery(rng), f.starQuery(rng), q} {
		a, err := NewAnalysis(q, nil, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OptimizeReference(a, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := DenseSplits(len(a.Rels)); ref.Stats.EnumStates != want {
			t.Errorf("%s: %d relations: the oracle visits %d splits, want (3^n-1)/2-(2^n-1) = %d",
				q.Name, len(a.Rels), ref.Stats.EnumStates, want)
		}
	}
}

// TestEnumerationBoundary pins where the planner stops admitting join
// graphs: a self-join clique, whose every split is a csg-cmp pair, fits
// enumPairCap at 13 relations with exactly DenseSplits(13) pairs, and at 14
// (2 375 101 pairs) is refused with ErrTooDense right after its base
// relations, weighing NumLeafSlots() alone, and without allocating the
// pairs it counted.
func TestEnumerationBoundary(t *testing.T) {
	f := equivCatalog(t)
	clique := func(n int) *Analysis {
		q := &query.Query{Name: fmt.Sprintf("clique-%d", n)}
		for i := 0; i < n; i++ {
			q.Rels = append(q.Rels, query.Rel{Table: f.cat.Table("dim1")})
			for j := 0; j < i; j++ {
				q.Joins = append(q.Joins, query.Join{Left: query.ColRef{Rel: j, Column: "id"}, Right: query.ColRef{Rel: i, Column: "id"}})
			}
		}
		q.Select = []query.ColRef{{Rel: 0, Column: "a1"}}
		a, err := NewAnalysis(q, nil, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	e := clique(13).joinEnum()
	if !e.fits || len(e.pairs) != DenseSplits(13) || DenseSplits(13) != 788970 {
		t.Errorf("13-clique: fits %v with %d pairs, want true with DenseSplits(13) = %d = 788970", e.fits, len(e.pairs), DenseSplits(13))
	}

	a := clique(14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	work := a.PlanWork()
	runtime.ReadMemStats(&after)
	if work != a.NumLeafSlots() {
		t.Errorf("14-clique: PlanWork %d, want NumLeafSlots() = %d", work, a.NumLeafSlots())
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Errorf("14-clique: detecting the overflow allocated %d bytes, want < 1 MB", b)
	}
	res, err := Optimize(a, nil, Options{EnableNestLoop: true})
	if !errors.Is(err, ErrTooDense) || res != nil {
		t.Fatalf("14-clique: Optimize = %v, %v; want a refusal wrapping ErrTooDense", res, err)
	}
	for _, want := range []string{"clique-14", "14 relations", fmt.Sprint(enumPairCap)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("14-clique refusal %q does not name %q", err, want)
		}
	}
}

// ---- fixture helpers ----------------------------------------------------

func (f *catalogFixture) starQuery(rng *rand.Rand) *query.Query {
	q := &query.Query{
		Name: "eq-star",
		Rels: []query.Rel{
			{Table: f.cat.Table("fact")},
			{Table: f.cat.Table("dim1")},
			{Table: f.cat.Table("dim2")},
			{Table: f.cat.Table("dim3")},
		},
		Joins: []query.Join{
			{Left: query.ColRef{Rel: 0, Column: "fk1"}, Right: query.ColRef{Rel: 1, Column: "id"}},
			{Left: query.ColRef{Rel: 0, Column: "fk2"}, Right: query.ColRef{Rel: 2, Column: "id"}},
			{Left: query.ColRef{Rel: 0, Column: "fk3"}, Right: query.ColRef{Rel: 3, Column: "id"}},
		},
		Select: []query.ColRef{{Rel: 0, Column: "m1"}, {Rel: 2, Column: "a1"}},
	}
	f.randomDecorations(rng, q)
	return q
}

func (f *catalogFixture) chainQuery(rng *rand.Rand) *query.Query {
	q := &query.Query{
		Name: "eq-chain",
		Rels: []query.Rel{
			{Table: f.cat.Table("fact")},
			{Table: f.cat.Table("dim1")},
			{Table: f.cat.Table("tail")},
		},
		Joins: []query.Join{
			{Left: query.ColRef{Rel: 0, Column: "fk1"}, Right: query.ColRef{Rel: 1, Column: "id"}},
			{Left: query.ColRef{Rel: 1, Column: "fkc"}, Right: query.ColRef{Rel: 2, Column: "id"}},
		},
		Select: []query.ColRef{{Rel: 0, Column: "m1"}, {Rel: 2, Column: "a1"}},
	}
	f.randomDecorations(rng, q)
	return q
}

func (f *catalogFixture) selfJoinQuery(rng *rand.Rand) *query.Query {
	q := &query.Query{
		Name: "eq-selfjoin",
		Rels: []query.Rel{
			{Table: f.cat.Table("dim2"), Alias: "l"},
			{Table: f.cat.Table("dim2"), Alias: "r"},
			{Table: f.cat.Table("fact")},
		},
		Joins: []query.Join{
			{Left: query.ColRef{Rel: 0, Column: "a1"}, Right: query.ColRef{Rel: 1, Column: "a1"}},
			{Left: query.ColRef{Rel: 1, Column: "id"}, Right: query.ColRef{Rel: 2, Column: "fk2"}},
		},
		Select: []query.ColRef{{Rel: 0, Column: "a2"}, {Rel: 2, Column: "m1"}},
	}
	f.randomDecorations(rng, q)
	return q
}

// randomDecorations adds random filters and optional grouping/ordering.
func (f *catalogFixture) randomDecorations(rng *rand.Rand, q *query.Query) {
	for i, r := range q.Rels {
		if rng.Intn(2) == 0 {
			continue
		}
		col := "a1"
		if r.Table.Column(col) == nil {
			continue
		}
		lo := int64(rng.Intn(400) + 1)
		q.Filters = append(q.Filters, query.Filter{
			Col: query.ColRef{Rel: i, Column: col}, Op: query.Between,
			Value: lo, Value2: lo + int64(rng.Intn(200)),
		})
	}
	if rng.Intn(2) == 0 {
		q.GroupBy = []query.ColRef{q.Select[len(q.Select)-1]}
	}
	if rng.Intn(2) == 0 {
		ob := q.Select[len(q.Select)-1]
		if len(q.GroupBy) > 0 {
			ob = q.GroupBy[0]
		}
		q.OrderBy = []query.ColRef{ob}
	}
	if err := q.Validate(); err != nil {
		f.t.Fatal(err)
	}
}

// randomConfigs builds n random index configurations over the query's
// relations: per relation, with probability ~2/3, either a thin index on an
// interesting order or a wider covering index, plus always the all-orders
// covering configuration.
func (f *catalogFixture) randomConfigs(rng *rand.Rand, a *Analysis, n int) []*query.Config {
	var out []*query.Config
	out = append(out, debugAllOrdersConfig(f.t, a))
	for c := 0; c < n; c++ {
		cfg := &query.Config{}
		seen := map[string]bool{}
		for i := range a.Rels {
			ri := &a.Rels[i]
			if len(ri.Interesting) == 0 || rng.Intn(3) == 0 {
				continue
			}
			col := ri.Interesting[rng.Intn(len(ri.Interesting))]
			cols := []string{col}
			if rng.Intn(2) == 0 { // widen toward covering
				for _, other := range ri.Needed {
					if other != col {
						cols = append(cols, other)
					}
				}
				sort.Strings(cols[1:])
			}
			key := ri.Table.Name + ":" + fmt.Sprint(cols)
			if seen[key] {
				continue
			}
			seen[key] = true
			cfg.Indexes = append(cfg.Indexes, storage.HypotheticalIndex(
				fmt.Sprintf("eq_%d_%d", c, len(cfg.Indexes)), ri.Table, cols))
		}
		out = append(out, cfg)
	}
	return out
}
