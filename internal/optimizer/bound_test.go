package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestBoundPricingMatchesNames holds the three ways a configuration can
// reach the leaf-slot table equal, bit for bit, and equal to the per-leaf
// reference: indexes from the storage constructors (bound to the query's
// own tables: ordinals and a bitset), field-for-field literal copies with
// no bound form (matched and priced by name), and descriptors bound to a
// second catalog generated from the same spec — same names, different
// table pointers, where trusting the pointers would lose every index.
// Each is priced grouped by table (ConfigByTable), and held to the
// ungrouped per-pair fold (FoldLeafSlots, which asks OnTable of every
// relation × index pair): grouped by the query's own catalog, by the
// twin's (every relation outside the grouping's name space), by none, as
// one configuration mixing all three forms, and under a shuffled order.
func TestBoundPricingMatchesNames(t *testing.T) {
	for _, shape := range workload.Shapes {
		for _, seed := range []int64{1, 2, 3} {
			spec := workload.ShapeSpec{Shape: shape, Rels: 6, Density: 0.4, Seed: seed}
			cat, q, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			twin, _, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for ci, cfg := range workload.ShapeConfigs(rng, cat, q, 4) {
				checkBoundPricing(t, fmt.Sprintf("%s/seed=%d/cfg=%d", q.Name, seed, ci), a, cfg, cat, twin)
			}
		}
	}

	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	starTwin, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, q := range queries {
		a, err := optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range workload.ShapeConfigs(rng, star.Catalog, q, 4) {
			checkBoundPricing(t, fmt.Sprintf("star/%s/cfg=%d", q.Name, ci), a, cfg, star.Catalog, starTwin.Catalog)
		}
	}

	cat, q, cfg := boundCornerCase(t)
	twin, _, _ := boundCornerCase(t)
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	checkBoundPricing(t, "corners", a, cfg, cat, twin)
	// Grouped by its own catalog, each relation folds only its table's
	// group (six on emp, none on wide) and the residual list (the four
	// unbound indexes on wide); grouped by the twin's, or by none, every
	// relation folds all eleven.
	for rel, want := range []int{10, 10, 4} {
		for names, w := range map[*catalog.NameSpace]int{cat.NameSpace(): want, twin.NameSpace(): len(cfg.Indexes), nil: len(cfg.Indexes)} {
			if got := optimizer.GroupByTable(names, cfg).Folded(a, rel); got != w {
				t.Errorf("corners: relation %d folds %d indexes, want %d", rel, got, w)
			}
		}
	}
	// The corner case must take the paths it is there for.
	for _, ix := range cfg.Indexes {
		want := catalog.OnTableBound
		if ix.Table == "wide" {
			want = catalog.OnTableByName // no index binds to a table of 70 columns
		}
		if got := ix.OnTable(cat.Table(ix.Table)); got != want {
			t.Errorf("corners: %s matches its own table as %d, want %d", ix.Key(), got, want)
		}
	}
}

// checkBoundPricing prices cfg as built, as unbound literals and as
// descriptors bound to the same-named tables of twin, each grouped every
// way, and compares the tables with each other, with the per-pair fold and
// with AccessCost per identity. cat is the catalog the query reads.
func checkBoundPricing(t *testing.T, label string, a *optimizer.Analysis, cfg *query.Config, cat, twin *catalog.Catalog) {
	t.Helper()
	literal, foreign, mixed := &query.Config{}, &query.Config{}, &query.Config{}
	for i, ix := range cfg.Indexes {
		literal.Indexes = append(literal.Indexes, &catalog.Index{
			Name: ix.Name, Table: ix.Table, Columns: append([]string(nil), ix.Columns...),
			Hypothetical: ix.Hypothetical,
			LeafPages:    ix.LeafPages, InternalPages: ix.InternalPages, Height: ix.Height,
		})
		foreign.Indexes = append(foreign.Indexes, storage.HypotheticalIndex(ix.Name, twin.Table(ix.Table), ix.Columns))
		mixed.Indexes = append(mixed.Indexes, []*catalog.Index{ix, literal.Indexes[i], foreign.Indexes[i]}[i%3])
	}
	shuffled := &query.Config{Indexes: append([]*catalog.Index(nil), mixed.Indexes...)}
	rand.New(rand.NewSource(int64(len(label)))).Shuffle(len(shuffled.Indexes), func(i, j int) {
		shuffled.Indexes[i], shuffled.Indexes[j] = shuffled.Indexes[j], shuffled.Indexes[i]
	})
	bound := perPairSlots(a, cfg)
	same := func(form string, got []float64) {
		t.Helper()
		for i, c := range got {
			if math.Float64bits(c) != math.Float64bits(bound[i]) {
				t.Errorf("%s: slot %d priced %v from %s, %v by the per-pair fold of constructor-built descriptors", label, i, c, form, bound[i])
			}
		}
	}
	for name, other := range map[string]*query.Config{"constructor-built": cfg, "literal": literal, "second-catalog": foreign, "mixed": mixed, "shuffled": shuffled} {
		same(name+" descriptors, per pair", perPairSlots(a, other))
		same(name+" descriptors, grouped by the query", a.PriceLeafSlots(nil, other))
		for gname, names := range map[string]*catalog.NameSpace{"own": cat.NameSpace(), "twin": twin.NameSpace(), "no": nil} {
			g := optimizer.GroupByTable(names, other)
			same(fmt.Sprintf("%s descriptors, grouped by the %s catalog", name, gname), a.PriceLeafSlotsByTable(nil, g))
		}
	}
	for rel := range a.Rels {
		reqs := []optimizer.LeafReq{{Mode: optimizer.AccessAny, Coef: 1}}
		for _, col := range a.Rels[rel].Interesting {
			reqs = append(reqs,
				optimizer.LeafReq{Mode: optimizer.AccessOrdered, Col: col, Coef: 1},
				optimizer.LeafReq{Mode: optimizer.AccessLookup, Col: col, Coef: 1})
		}
		for _, req := range reqs {
			s, err := a.LeafSlot(rel, req)
			if err != nil {
				t.Fatal(err)
			}
			got := bound[s]
			want, ok := a.AccessCost(rel, req, cfg)
			if !ok {
				want = math.Inf(1)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: rel %d %v(%s): slot %v, AccessCost %v", label, rel, req.Mode, req.Col, got, want)
			}
		}
	}
}

// perPairSlots is the ungrouped reference: the empty configuration's
// table with every index folded into every relation in configuration
// order, each pair matched by OnTable.
func perPairSlots(a *optimizer.Analysis, cfg *query.Config) []float64 {
	slots := a.PriceLeafSlots(nil, nil)
	for _, ix := range cfg.Indexes {
		for rel := range a.Rels {
			a.FoldLeafSlots(slots, rel, ix)
		}
	}
	return slots
}

// boundCornerCase builds the inputs where ordinals and names could part
// ways: a self-join (two relations, one table descriptor), an index on a
// table the query does not read, two filters on one column, a lead column
// that is filtered but not an interesting order and one that is an
// interesting order but not filtered, and a table of more than 64 columns
// whose join and filter columns sit past ordinal 63.
func boundCornerCase(t *testing.T) (*catalog.Catalog, *query.Query, *query.Config) {
	t.Helper()
	intCol := func(name string, ndv int64) *catalog.Column {
		return &catalog.Column{Name: name, Type: catalog.Int, NDV: ndv, Min: 1, Max: ndv}
	}
	cat := catalog.New()
	emp := &catalog.Table{Name: "emp", RowCount: 400_000, Columns: []*catalog.Column{
		intCol("id", 400_000), intCol("boss", 40_000), intCol("dept", 500), intCol("age", 60), intCol("pay", 1000),
	}}
	wide := &catalog.Table{Name: "wide", RowCount: 90_000}
	for i := 0; i < 70; i++ {
		wide.Columns = append(wide.Columns, intCol(fmt.Sprintf("c%d", i), 1000))
	}
	unread := &catalog.Table{Name: "unread", RowCount: 1000, Columns: []*catalog.Column{intCol("id", 1000), intCol("dept", 500)}}
	for _, tb := range []*catalog.Table{emp, wide, unread} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	q := &query.Query{
		Name: "corners",
		Rels: []query.Rel{{Table: emp, Alias: "e"}, {Table: emp, Alias: "m"}, {Table: wide}},
		Joins: []query.Join{
			{Left: query.ColRef{Rel: 0, Column: "boss"}, Right: query.ColRef{Rel: 1, Column: "id"}},
			{Left: query.ColRef{Rel: 1, Column: "dept"}, Right: query.ColRef{Rel: 2, Column: "c68"}},
		},
		Filters: []query.Filter{
			{Col: query.ColRef{Rel: 0, Column: "age"}, Op: query.Ge, Value: 30}, // two filters, one column,
			{Col: query.ColRef{Rel: 0, Column: "age"}, Op: query.Lt, Value: 40}, // filtered but not interesting
			{Col: query.ColRef{Rel: 1, Column: "pay"}, Op: query.Gt, Value: 900},
			{Col: query.ColRef{Rel: 2, Column: "c69"}, Op: query.Between, Value: 10, Value2: 20},
			{Col: query.ColRef{Rel: 2, Column: "c68"}, Op: query.Le, Value: 400}, // filtered and interesting
		},
		Select:  []query.ColRef{{Rel: 0, Column: "pay"}, {Rel: 2, Column: "c3"}},
		OrderBy: []query.ColRef{{Rel: 0, Column: "dept"}}, // interesting but not filtered
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := &query.Config{}
	add := func(tb *catalog.Table, cols ...string) {
		cfg.Indexes = append(cfg.Indexes, storage.HypotheticalIndex(fmt.Sprintf("cx_%d", len(cfg.Indexes)), tb, cols))
	}
	add(emp, "age")
	add(unread, "dept")
	add(emp, "dept")
	add(emp, "boss", "age", "dept", "pay")       // covers relation 0, not 1 (id)
	add(emp, "id", "dept", "pay")                // covers relation 1, not 0
	add(emp, "pay", "id", "boss", "age", "dept") // covers both
	add(wide, "c68")
	add(wide, "c69", "c68", "c3") // covering, lead filtered but not interesting
	add(wide, "c3")
	add(emp, "age", "pay")
	add(wide, "c68", "c3", "c69")
	return cat, q, cfg
}

// TestLeafSlotCapacityBoundary: a plan cache and its snapshot store a leaf
// as a 16-bit slot index, so NewAnalysis admits a query whose table is
// exactly MaxLeafSlots long — and addresses its last slot correctly — and
// refuses one more interesting order with an error naming the limit. No
// other limit applies to one relation: 16 384 orders on one relation (past
// the 14-bit order id a leaf identity once carried) are admitted, and its
// last lookup identity round-trips.
func TestLeafSlotCapacityBoundary(t *testing.T) {
	// orderQuery orders by the first perRel[i] columns of relation i.
	orderQuery := func(perRel ...int) *query.Query {
		q := &query.Query{Name: "capacity"}
		for i, k := range perRel {
			tb := &catalog.Table{Name: fmt.Sprintf("t%d", i), RowCount: 1000}
			for c := 0; c < k; c++ {
				col := fmt.Sprintf("c%d", c)
				tb.Columns = append(tb.Columns, &catalog.Column{Name: col, Type: catalog.Int})
				q.OrderBy = append(q.OrderBy, query.ColRef{Rel: i, Column: col})
			}
			q.Rels = append(q.Rels, query.Rel{Table: tb})
		}
		q.Select = q.OrderBy[:1]
		return q
	}
	// lastLookup checks that relation rel's last interesting order's lookup
	// identity is the last slot of its block, and that the slot reads back
	// as that requirement.
	lastLookup := func(a *optimizer.Analysis, rel, wantSlot int) {
		t.Helper()
		cols := a.Rels[rel].Interesting
		last := optimizer.LeafReq{Mode: optimizer.AccessLookup, Col: cols[len(cols)-1], Coef: 1}
		s, err := a.LeafSlot(rel, last)
		if err != nil {
			t.Fatal(err)
		}
		if _, hi := a.LeafBlock(rel); s != wantSlot || hi != wantSlot+1 || a.LeafOfSlot(rel, s, 1) != last {
			t.Errorf("last identity of relation %d: slot %d (block ends at %d), back to %+v; want slot %d and %+v",
				rel, s, hi, a.LeafOfSlot(rel, s, 1), wantSlot, last)
		}
	}

	// 3 relations + 2 × 32 766 orders = 65 535 slots: the last one admitted.
	a, err := optimizer.NewAnalysis(orderQuery(10922, 10922, 10922), nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatalf("a query of exactly MaxLeafSlots slots was refused: %v", err)
	}
	if a.NumLeafSlots() != optimizer.MaxLeafSlots {
		t.Fatalf("boundary query has %d slots, want %d", a.NumLeafSlots(), optimizer.MaxLeafSlots)
	}
	lastLookup(a, 2, optimizer.MaxLeafSlots-1)

	// 1 relation + 2 × 16 384 orders = 32 769 slots.
	if a, err = optimizer.NewAnalysis(orderQuery(16384), nil, optimizer.DefaultCostParams()); err != nil {
		t.Fatalf("16 384 orders on one relation were refused: %v", err)
	}
	lastLookup(a, 0, 2*16384)

	_, err = optimizer.NewAnalysis(orderQuery(10923, 10922, 10922), nil, optimizer.DefaultCostParams())
	if limit := fmt.Sprint(optimizer.MaxLeafSlots); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("one order past MaxLeafSlots: NewAnalysis returned %v, want an error naming the limit %s", err, limit)
	}
}

// TestRelationCapBoundary: a plan names its relation set as a 64-bit RelSet,
// so NewAnalysis admits a 64-relation self-join chain — which then plans —
// and refuses a 65-relation one with an error naming the limit, before any
// planner runs.
func TestRelationCapBoundary(t *testing.T) {
	tb := &catalog.Table{Name: "t", RowCount: 1000, Columns: []*catalog.Column{
		{Name: "id", Type: catalog.Int, NDV: 1000}, {Name: "fk", Type: catalog.Int, NDV: 1000},
	}}
	chain := func(n int) *query.Query {
		q := &query.Query{Name: fmt.Sprintf("chain-%d", n)}
		for i := 0; i < n; i++ {
			q.Rels = append(q.Rels, query.Rel{Table: tb, Alias: fmt.Sprintf("t%d", i)})
			if i > 0 {
				q.Joins = append(q.Joins, query.Join{Left: query.ColRef{Rel: i - 1, Column: "fk"}, Right: query.ColRef{Rel: i, Column: "id"}})
			}
		}
		q.Select = []query.ColRef{{Rel: 0, Column: "id"}}
		return q
	}
	a, err := optimizer.NewAnalysis(chain(optimizer.MaxRels), nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatalf("a %d-relation chain was refused: %v", optimizer.MaxRels, err)
	}
	res, err := optimizer.Optimize(a, nil, optimizer.Options{})
	if err != nil || res.Best.Rels.Count() != optimizer.MaxRels {
		t.Fatalf("a %d-relation chain did not plan: %v", optimizer.MaxRels, err)
	}
	_, err = optimizer.NewAnalysis(chain(optimizer.MaxRels+1), nil, optimizer.DefaultCostParams())
	if err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("a 65-relation chain: NewAnalysis returned %v, want an error naming the limit 64", err)
	}
}
