package pinum

import (
	"bytes"
	"testing"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

func demoDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustTable(&Table{
		Name:     "customers",
		RowCount: 10_000,
		Columns: []*Column{
			{Name: "id", NDV: 10_000, Min: 1, Max: 10_000, NotNull: true},
			{Name: "region", NDV: 50, Min: 1, Max: 50},
		},
	})
	db.MustTable(&Table{
		Name:     "orders",
		RowCount: 200_000,
		Columns: []*Column{
			{Name: "id", NDV: 200_000, Min: 1, Max: 200_000, NotNull: true},
			{Name: "customer_id", NDV: 10_000, Min: 1, Max: 10_000, NotNull: true},
			{Name: "amount", NDV: 1000, Min: 1, Max: 1000},
		},
	})
	return db
}

const demoSQL = "SELECT orders.amount, customers.region FROM orders, customers " +
	"WHERE orders.customer_id = customers.id AND orders.amount BETWEEN 1 AND 10 " +
	"ORDER BY customers.region"

func TestFacadeEndToEnd(t *testing.T) {
	db := demoDB(t)
	q, err := db.ParseQuery(demoSQL, "demo")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := db.BuildPlanCache(q)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats.OptimizerCalls != 2 {
		t.Errorf("PINUM used %d calls, want 2", cache.Stats.OptimizerCalls)
	}
	ws := db.WhatIf()
	ix, err := ws.CreateIndex("orders", "amount", "customer_id")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Indexes: []*Index{ix}}
	withIx, _, err := cache.Cost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := cache.Cost(&Config{})
	if err != nil {
		t.Fatal(err)
	}
	if withIx > without {
		t.Errorf("index made the estimate worse: %f > %f", withIx, without)
	}
	// The cache estimate must match a direct optimizer call.
	direct, explain, err := db.Optimize(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if explain == "" {
		t.Error("empty explain output")
	}
	rel := withIx/direct - 1
	if rel > 0.1 || rel < -1e9 {
		t.Errorf("cache %f vs direct %f", withIx, direct)
	}
}

func TestFacadeAdvisor(t *testing.T) {
	db := demoDB(t)
	q, err := db.ParseQuery(demoSQL, "demo")
	if err != nil {
		t.Fatal(err)
	}
	adv := db.NewAdvisor(1 * GB)
	if err := adv.AddQuery(q, 1); err != nil {
		t.Fatal(err)
	}
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCost > res.BaseCost {
		t.Error("advisor increased the cost")
	}
}

func TestFacadeMaterializeAndExecute(t *testing.T) {
	star, err := workload.StarSchema(0.0002)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseWith(star.Catalog, star.Stats)
	qs, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.Materialize(3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mat.Execute(qs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := db.WhatIf()
	ix, err := ws.CreateIndex("fact", "fk_dim1_1", "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := mat.Execute(qs[0], &Config{Indexes: []*Index{ix}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rows2) {
		t.Errorf("indexed execution changed the result: %d vs %d rows", len(rows), len(rows2))
	}
}

func TestBuildPlanCachesMatchesSerial(t *testing.T) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseWith(star.Catalog, star.Stats)
	qs, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:5]
	batch, err := db.BuildPlanCaches(qs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("got %d caches for %d queries", len(batch), len(qs))
	}
	for i, q := range qs {
		if batch[i].Q.Name != q.Name {
			t.Fatalf("cache %d belongs to %s, want %s (order not preserved)", i, batch[i].Q.Name, q.Name)
		}
		serial, err := db.BuildPlanCache(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Stats.OptimizerCalls != serial.Stats.OptimizerCalls ||
			batch[i].Stats.PlansCached != serial.Stats.PlansCached {
			t.Errorf("%s: batch cache stats %+v != serial %+v", q.Name, batch[i].Stats, serial.Stats)
		}
		bc, _, err := batch[i].Cost(&Config{})
		if err != nil {
			t.Fatal(err)
		}
		sc, _, err := serial.Cost(&Config{})
		if err != nil {
			t.Fatal(err)
		}
		if bc != sc {
			t.Errorf("%s: batch base cost %v != serial %v", q.Name, bc, sc)
		}
	}
}

func TestBuildPlanCachesEmpty(t *testing.T) {
	db := demoDB(t)
	caches, err := db.BuildPlanCaches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(caches) != 0 {
		t.Errorf("got %d caches for an empty workload", len(caches))
	}
}

func TestParseQueryErrors(t *testing.T) {
	db := demoDB(t)
	if _, err := db.ParseQuery("SELECT nope FROM orders", "bad"); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := db.ParseQuery("not sql", "bad"); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSaveLoadCaches round-trips the public snapshot API: batch build,
// save, load, and bit-identical costs — plus rejection once the
// schema drifts.
func TestSaveLoadCaches(t *testing.T) {
	db := demoDB(t)
	q, err := db.ParseQuery(demoSQL, "demo")
	if err != nil {
		t.Fatal(err)
	}
	caches, err := db.BuildPlanCaches([]*Query{q})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/demo.pcache"
	if err := db.SaveCaches(path, caches); err != nil {
		t.Fatal(err)
	}
	loaded, err := db.LoadCaches(path, []*Query{q})
	if err != nil {
		t.Fatal(err)
	}
	ws := db.WhatIf()
	ix, err := ws.CreateIndex("orders", "amount", "customer_id")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{{}, {Indexes: []*Index{ix}}} {
		want, _, err := caches[0].Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded[0].Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("loaded cache cost %v, want %v", got, want)
		}
	}

	// A drifted environment must reject the snapshot.
	db.Catalog().Table("orders").RowCount *= 2
	if _, err := db.LoadCaches(path, []*Query{q}); err == nil {
		t.Error("LoadCaches accepted a snapshot after the catalog changed")
	}
}

// TestFacadeMatchesReference holds the facade's builds to the reference
// construction (core.Build and core.BuildAll, which fill their caches from
// Path trees and keep every plan) with the dominated entries dropped by
// compactReference, on the star workload's ten queries and a self-join:
// the coarse ones — BuildPlanCache, BuildPlanCaches and BuildPlanCaches
// with the deprecated WithSlim — must encode to core.Build's compacted
// bytes, the precise ones — BuildPlanCachePrecise and BuildPlanCaches with
// WithPrecise — to core.BuildAll's in precise mode, compacted.
func TestFacadeMatchesReference(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseWith(s.Catalog, s.Stats)
	self, err := db.ParseQuery(`SELECT f.id, g.id, d.a2 FROM fact f, fact g, dim1_1 d
		WHERE f.fk_dim1_1 = d.id AND g.fk_dim1_1 = d.id AND d.a1 BETWEEN 1 AND 40 ORDER BY d.a2`, "self")
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs, self)
	analyses := make([]*optimizer.Analysis, len(qs))
	coarse := make([]*PlanCache, len(qs))
	for i, q := range qs {
		if analyses[i], err = db.Analyze(q); err != nil {
			t.Fatal(err)
		}
		if coarse[i], err = core.Build(analyses[i], whatif.NewSession(s.Catalog)); err != nil {
			t.Fatal(err)
		}
		coarse[i] = compactReference(t, coarse[i])
	}
	precise, err := core.BuildAll(analyses, s.Catalog, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range precise {
		precise[i] = compactReference(t, c)
	}
	encode := func(caches []*PlanCache) []byte {
		var buf bytes.Buffer
		if err := plancache.Encode(&buf, plancache.NewSnapshot(1, caches)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	oneShots := func(build func(*Query) (*PlanCache, error)) []*PlanCache {
		caches := make([]*PlanCache, len(qs))
		for i, q := range qs {
			if caches[i], err = build(q); err != nil {
				t.Fatal(err)
			}
		}
		return caches
	}
	batch := func(opts ...BuildOption) []*PlanCache {
		caches, err := db.BuildPlanCaches(qs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return caches
	}
	for _, c := range []struct {
		label     string
		got, want []*PlanCache
	}{
		{"BuildPlanCache", oneShots(db.BuildPlanCache), coarse},
		{"BuildPlanCaches", batch(), coarse},
		{"BuildPlanCaches(WithSlim)", batch(WithSlim()), coarse},
		{"BuildPlanCachePrecise", oneShots(db.BuildPlanCachePrecise), precise},
		{"BuildPlanCaches(WithPrecise)", batch(WithPrecise()), precise},
	} {
		if g, w := encode(c.got), encode(c.want); !bytes.Equal(g, w) {
			t.Errorf("%s encodes to %d bytes that differ from the reference construction's %d", c.label, len(g), len(w))
		}
	}
}

// compactReference is inum.Cache.Compact's definition checked naively, over
// every ordered pair of entries and their Cache.Leaf requirements, with
// no shipped compaction code: entry b is dropped when another entry a
// dominates it — a's internal cost and every coefficient ≤ b's, and on every
// relation a's leaf identity is b's, or a's is AccessAny where b's is
// AccessOrdered — and either b does not dominate a or a comes first. The
// kept entries fill a fresh cache over the same analysis, in cache order.
// It is the twin of internal/plancache's, which the equivalence suites use.
func compactReference(t testing.TB, c *PlanCache) *PlanCache {
	t.Helper()
	n := len(c.Q.Rels)
	leaves := make([][]optimizer.LeafReq, len(c.Plans))
	for i := range c.Plans {
		for rel := 0; rel < n; rel++ {
			leaves[i] = append(leaves[i], c.Leaf(i, rel))
		}
	}
	dominates := func(a, b int) bool {
		if c.Plans[a] > c.Plans[b] {
			return false
		}
		for rel, la := range leaves[a] {
			lb := leaves[b][rel]
			same := la.Mode == lb.Mode && la.Col == lb.Col
			if la.Coef > lb.Coef || !same && (la.Mode != optimizer.AccessAny || lb.Mode != optimizer.AccessOrdered) {
				return false
			}
		}
		return true
	}
	_, slots, coefs := c.Rows()
	var keptInternal, keptCoefs []float64
	var keptSlots []uint16
	for j, b := range c.Plans {
		dropped := false
		for i := range c.Plans {
			if i != j && dominates(i, j) && (i < j || !dominates(j, i)) {
				dropped = true
				break
			}
		}
		if !dropped {
			keptInternal = append(keptInternal, b)
			keptSlots = append(keptSlots, slots[j*n:(j+1)*n]...)
			keptCoefs = append(keptCoefs, coefs[j*n:(j+1)*n]...)
		}
	}
	out, err := inum.FromRows(c.A, keptInternal, keptSlots, keptCoefs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
