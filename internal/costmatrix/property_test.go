package costmatrix

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// propertyCase is one query of the every-shape property test: its cache
// and the index pool its configurations are drawn from.
type propertyCase struct {
	name  string
	cache *inum.Cache
	cfgs  []*query.Config
}

// shapeCase builds the cache of one generated shape. Shapes the planner
// can export under the all-orders configuration go through core.BuildSlim;
// the 17-relation chain indexes only its head (ExportAll's retained set is
// exponential in the number of indexed relations), as the optimizer's own
// wide-chain test does.
func shapeCase(t *testing.T, shape workload.Shape, rng *rand.Rand) propertyCase {
	t.Helper()
	spec := workload.ShapeSpec{Shape: shape, Rels: 5, Density: 0.4, Seed: 7 + int64(shape)}
	if shape == workload.ShapeWideChain {
		spec.Rels = 17
	}
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	var cache *inum.Cache
	if shape != workload.ShapeWideChain {
		if cache, err = core.BuildSlim(a, whatif.NewSession(cat)); err != nil {
			t.Fatal(err)
		}
	} else {
		head := &query.Config{}
		for _, ix := range workload.ShapeAllOrdersConfig(cat, q).Indexes {
			if ix.Table == q.Rels[0].Table.Name || ix.Table == q.Rels[1].Table.Name || ix.Table == q.Rels[2].Table.Name {
				head.Indexes = append(head.Indexes, ix)
			}
		}
		cache = inum.NewCache(a)
		opts := []optimizer.Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}}
		if _, err := optimizer.NewWorkspace().Export(a, head, opts, nil, cache.AddSummary); err != nil {
			t.Fatal(err)
		}
	}
	cfgs := workload.ShapeConfigs(rng, cat, q, 6)
	return propertyCase{name: shape.String(), cache: cache, cfgs: append(cfgs, randomSubsets(rng, cfgs, 6)...)}
}

// selfJoinCase is a table joined to itself: two relation blocks fed by the
// same indexes.
func selfJoinCase(t *testing.T, rng *rand.Rand) propertyCase {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Catalog.Table("dim1_1")
	q := &query.Query{
		Name: "selfjoin",
		Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
		Joins: []query.Join{{
			Left:  query.ColRef{Rel: 0, Column: "a1"},
			Right: query.ColRef{Rel: 1, Column: "id"},
		}},
		Select:  []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
		OrderBy: []query.ColRef{{Rel: 0, Column: "a2"}},
	}
	a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.BuildSlim(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	ws := whatif.NewSession(s.Catalog)
	all := &query.Config{}
	for _, cols := range [][]string{{"a1", "id"}, {"id", "a2"}, {"a2"}, {"a1"}, {"id"}, {"a2", "a1", "id"}} {
		ix, err := ws.CreateIndex("dim1_1", cols...)
		if err != nil {
			t.Fatal(err)
		}
		all.Indexes = append(all.Indexes, ix)
	}
	cfgs := []*query.Config{all}
	return propertyCase{name: "self-join", cache: cache, cfgs: append(cfgs, randomSubsets(rng, cfgs, 10)...)}
}

// randomSubsets draws n configurations, each a shuffled random subset of
// the union of the given configurations' indexes — several indexes per
// table and per order, in an order unrelated to the relations'.
func randomSubsets(rng *rand.Rand, from []*query.Config, n int) []*query.Config {
	var pool []*catalog.Index
	for _, cfg := range from {
		pool = append(pool, cfg.Indexes...)
	}
	out := make([]*query.Config, n)
	for i := range out {
		cfg := &query.Config{}
		for _, j := range rng.Perm(len(pool)) {
			if rng.Intn(3) == 0 {
				cfg.Indexes = append(cfg.Indexes, pool[j])
			}
		}
		out[i] = cfg
	}
	return out
}

// referenceCost is the test-local INUM evaluation: per plan, internal +
// Σ coef × Analysis.AccessCost(leaf) in relation order, stopping at the
// first inapplicable leaf; first strictly better plan wins. It shares
// nothing with the slot table but the optimizer's per-index cost formulas.
func referenceCost(c *inum.Cache, cfg *query.Config) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	for i, internal := range c.Plans {
		cost, ok := internal, true
		for rel := range c.Q.Rels {
			req := c.Leaf(i, rel)
			ac, applicable := c.A.AccessCost(rel, req, cfg)
			if !applicable {
				ok = false
				break
			}
			cost += req.Coef * ac
		}
		if ok && cost < best {
			best, bestIdx = cost, i
		}
	}
	return best, bestIdx
}

// orderedOnly rebuilds the cache without its plans that need no index at
// all, so that sparse configurations leave it with no applicable plan.
func orderedOnly(t *testing.T, c *inum.Cache) *inum.Cache {
	t.Helper()
	n := len(c.Q.Rels)
	_, packed, coefRows := c.Rows()
	var keptInternal, keptCoefs []float64
	var keptPacked []uint16
	for i, internal := range c.Plans {
		pks, coefs := packed[i*n:(i+1)*n], coefRows[i*n:(i+1)*n]
		needsIndex := false
		for _, pk := range pks {
			if pk != 0 {
				needsIndex = true
			}
		}
		if needsIndex {
			keptInternal = append(keptInternal, internal)
			keptPacked, keptCoefs = append(keptPacked, pks...), append(keptCoefs, coefs...)
		}
	}
	out, err := inum.FromRows(c.A, keptInternal, keptPacked, keptCoefs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkAgainstReference holds Cache.Cost to referenceCost on one
// configuration: the same bits, the same winning ordinal, the same verdict
// on "no applicable plan". It returns the cost (+Inf when inapplicable).
func checkAgainstReference(t *testing.T, label string, c *inum.Cache, cfg *query.Config) float64 {
	t.Helper()
	want, wantIdx := referenceCost(c, cfg)
	got, plan, err := c.Cost(cfg)
	if wantIdx < 0 {
		if err == nil {
			t.Fatalf("%s: Cost = %v under %s, the reference finds no applicable plan", label, got, cfg)
		}
		return math.Inf(1)
	}
	if err != nil {
		t.Fatalf("%s: %v, the reference prices plan %d at %v", label, err, wantIdx, want)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Cost %v != reference %v under %s", label, got, want, cfg)
	}
	if plan != wantIdx {
		t.Fatalf("%s: Cost picked another plan than the reference's ordinal %d under %s", label, wantIdx, cfg)
	}
	return got
}

// TestEveryShapeMatchesReference is the equivalence proof of the slot
// table, over every generated shape — including the three the reference
// planner cannot reach — and a self-join: Cache.Cost equals the per-leaf
// reference bit for bit with the same winner, "no applicable plan" agrees,
// adding an index never raises the cost, and the engine's
// EvaluateCandidate/Apply equal Cache.Cost on the same index sequence.
func TestEveryShapeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20100301))
	var cases []propertyCase
	for _, shape := range workload.Shapes {
		cases = append(cases, shapeCase(t, shape, rng))
	}
	cases = append(cases, selfJoinCase(t, rng))
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			c := pc.cache
			strict := orderedOnly(t, c)
			t.Logf("%d relations, %d plans (%d need an index), %d configurations",
				len(c.Q.Rels), len(c.Plans), len(strict.Plans), len(pc.cfgs))
			sawNone := false
			for ci, cfg := range append([]*query.Config{nil, {}}, pc.cfgs...) {
				checkAgainstReference(t, "full cache", c, cfg)
				if math.IsInf(checkAgainstReference(t, "index-only plans", strict, cfg), 1) {
					sawNone = true
				}
				if cfg == nil {
					continue
				}
				e, err := New([]Query{{Cache: c}})
				if err != nil {
					t.Fatal(err)
				}
				prev := e.TotalCost()
				for k, ix := range cfg.Indexes {
					prefix := &query.Config{Indexes: cfg.Indexes[:k+1]}
					want := checkAgainstReference(t, "prefix", c, prefix)
					if want > prev {
						t.Fatalf("config %d: adding %s raised the cost %v -> %v", ci, ix.Key(), prev, want)
					}
					if got := e.EvaluateCandidate(ix); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("config %d: EvaluateCandidate(%s) over %d applied = %v, Cache.Cost = %v", ci, ix.Key(), k, got, want)
					}
					e.Apply(ix)
					if got := e.TotalCost(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("config %d: after Apply(%s) total = %v, Cache.Cost = %v", ci, ix.Key(), got, want)
					}
					prev = want
				}
			}
			if !sawNone && len(strict.Plans) > 0 {
				t.Error("no configuration left the index-only cache without an applicable plan")
			}
		})
	}
}
