package plancache

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// planConfig is the configuration a shape query's cache is planned under:
// every interesting order, except on a wide chain, where only the first
// three relations are indexed — ExportAll's retained set is exponential in
// the number of indexed relations, in any planner.
func planConfig(cat *catalog.Catalog, q *query.Query) *query.Config {
	all := workload.ShapeAllOrdersConfig(cat, q)
	if len(q.Rels) <= 16 {
		return all
	}
	head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
	plan := &query.Config{}
	for _, ix := range all.Indexes {
		if head[ix.Table] {
			plan.Indexes = append(plan.Indexes, ix)
		}
	}
	return plan
}

// buildShapeSlim fills a slim cache for one shape query the way core.build
// does — nested loops off, then on under PaperPrune — from a fresh analysis,
// under planConfig, and leaves it uncompacted.
func buildShapeSlim(t *testing.T, spec workload.ShapeSpec) (*inum.Cache, []*query.Config) {
	t.Helper()
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	c := inum.NewCache(a)
	opts := []optimizer.Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}}
	if _, err := optimizer.NewWorkspace().Export(a, planConfig(cat, q), opts, nil, c.AddSummary); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	return c, append(workload.ShapeConfigs(rng, cat, q, 6), &query.Config{})
}

// TestEveryShapeOracleFree holds two properties on every workload.Shapes
// topology, the 17-relation chain no reference planner reaches included,
// without consulting an oracle. Adding one index to a configuration never
// raises the cached cost — the model prices a leaf as a minimum over the
// configuration's indexes and a query as a minimum over applicable plans,
// so the inequality is exact in floating point — over eight seeded
// configurations per shape, each extended by every index of the all-orders
// set in turn. And two builds of the same query encode to identical bytes:
// the exported plan sequence depends on nothing but the query.
func TestEveryShapeOracleFree(t *testing.T) {
	for i, sh := range workload.Shapes {
		spec := workload.ShapeSpec{Shape: sh, Rels: 5, Density: 0.4, Seed: int64(500 + i)}
		c, cfgs := buildShapeSlim(t, spec)
		again, _ := buildShapeSlim(t, spec)
		var b1, b2 bytes.Buffer
		if err := Encode(&b1, NewSnapshot(1, []*inum.Cache{c})); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&b2, NewSnapshot(1, []*inum.Cache{again})); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s: two builds of %s encode differently (%d and %d bytes)", sh, c.Q.Name, b1.Len(), b2.Len())
		}
		if len(cfgs) != 8 {
			t.Fatalf("%s: %d configurations, want 8", sh, len(cfgs))
		}
		extra := cfgs[0].Indexes // the all-orders set
		for ci, cfg := range cfgs {
			base, _, err := c.Cost(cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: %v", sh, ci, err)
			}
			for _, ix := range extra {
				more := &query.Config{Indexes: append(append([]*catalog.Index(nil), cfg.Indexes...), ix)}
				got, _, err := c.Cost(more)
				if err != nil {
					t.Fatalf("%s cfg %d + %s: %v", sh, ci, ix.Name, err)
				}
				if got > base {
					t.Errorf("%s cfg %d: adding %s raised the cached cost %v -> %v", sh, ci, ix.Name, base, got)
				}
			}
		}
	}
}
