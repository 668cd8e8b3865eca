package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestPairingRule holds BuildAllWith to its core budget: a batch pairs each
// query's two calls exactly when the budget gives every query two cores,
// and a budget of 0 is GOMAXPROCS. The batches are real star queries: the
// claim order reads each one's PlanWork before anything builds.
func TestPairingRule(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	star := mustStar(t)
	set := starSet(t, star, 42)
	for _, c := range []struct {
		queries, budget int
		want            bool
	}{
		{1, 2, true},
		{2, 2, false},
		{10, 2, false},
		{1, 1, false},
		{2, 4, true},
		{1, 0, procs >= 2},
		{2, 0, procs >= 4},
	} {
		var paired, unpaired atomic.Int32
		_, err := BuildAllWith(set[:c.queries], star.Catalog, c.budget, func(p bool) BuildFunc {
			if p {
				paired.Add(1)
			} else {
				unpaired.Add(1)
			}
			return func(*optimizer.Analysis, *whatif.Session) (*inum.Cache, error) { return nil, nil }
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := paired.Load() > 0; got != c.want || paired.Load() > 0 && unpaired.Load() > 0 {
			t.Errorf("%d queries on a budget of %d: %d paired and %d unpaired builders, want paired %v",
				c.queries, c.budget, paired.Load(), unpaired.Load(), c.want)
		}
	}
}

// pairInput is one query a paired build is held to the serial one on.
type pairInput struct {
	label string
	a     *optimizer.Analysis
	cat   *catalog.Catalog
}

// TestPairedBuildMatchesSerial builds each input as a batch of one at a
// budget of 2 (its two calls planned at once, on two planners) and at a
// budget of 1 (one after the other, on one planner), coarse and precise:
// every design shape, star Q10 and a self-join query. The two caches must
// hold the same rows entry for entry, encode to the same snapshot bytes and
// carry the same planner counters, plans seen, plans cached and optimizer
// calls. (The reference construction holds the rows: optimizer's
// TestSlimExportsMatchTrees on the design shapes and star Q10, the facade's
// TestFacadeMatchesReference on a self-join.) The 17-relation chain, whose
// all-orders configuration no planner can export, is held the same way
// through the workspace a Builder drives, under its head's indexes.
func TestPairedBuildMatchesSerial(t *testing.T) {
	var inputs []pairInput
	for _, s := range designShapes {
		cat, q, err := workload.ShapeQuery(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, pairInput{s.label, a, cat})
	}
	star := mustStar(t)
	inputs = append(inputs, pairInput{"star-Q10", analyze(t, star, mustQueries(t, star)[9]), star.Catalog})
	self := mustParseBind(t, `SELECT f.id, g.id, d.a2 FROM fact f, fact g, dim1_1 d
		WHERE f.fk_dim1_1 = d.id AND g.fk_dim1_1 = d.id AND d.a1 BETWEEN 1 AND 40 ORDER BY d.a2`, star.Catalog, "self")
	inputs = append(inputs, pairInput{"self-join", analyze(t, star, self), star.Catalog})

	for _, in := range inputs {
		for _, precise := range []bool{false, true} {
			label := in.label + "/coarse"
			if precise {
				label = in.label + "/precise"
			}
			if precise && in.label == "random6" && testing.Short() {
				continue // ~6 s a build
			}
			build := func(budget int) *inum.Cache {
				t.Helper()
				caches, err := BuildAllWith([]*optimizer.Analysis{in.a}, in.cat, budget, func(paired bool) BuildFunc {
					if paired != (budget == 2) {
						t.Fatalf("%s: budget %d built paired=%v", label, budget, paired)
					}
					return Builder(precise, paired)
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return caches[0]
			}
			assertSameCache(t, label, build(2), build(1))
		}
	}
	chain17PairedMatchesSerial(t)
}

// encode is c's snapshot bytes.
func encode(t *testing.T, c *inum.Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plancache.Encode(&buf, plancache.NewSnapshot(1, []*inum.Cache{c})); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameCache fails unless the paired cache got equals the serial want
// in everything a build produces.
func assertSameCache(t *testing.T, label string, got, want *inum.Cache) {
	t.Helper()
	if g, w := encode(t, got), encode(t, want); !bytes.Equal(g, w) {
		t.Errorf("%s: paired build encodes to %d bytes that differ from the serial build's %d", label, len(g), len(w))
	}
	if len(got.Plans) != len(want.Plans) || len(want.Plans) == 0 {
		t.Fatalf("%s: %d plans paired, %d serial", label, len(got.Plans), len(want.Plans))
	}
	n := len(want.Q.Rels)
	_, gsls, gcs := got.Rows()
	_, wsls, wcs := want.Rows()
	for i, wp := range want.Plans {
		gp := got.Plans[i]
		gsl, gc := gsls[i*n:(i+1)*n], gcs[i*n:(i+1)*n]
		wsl, wc := wsls[i*n:(i+1)*n], wcs[i*n:(i+1)*n]
		same := math.Float64bits(gp) == math.Float64bits(wp) && slices.Equal(gsl, wsl) &&
			slices.EqualFunc(gc, wc, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		if !same {
			t.Fatalf("%s: plan %d is %+v %v %v paired, %+v %v %v serial", label, i, gp, gsl, gc, wp, wsl, wc)
		}
	}
	gs, ws := got.Stats, want.Stats
	if gs.Planner != ws.Planner || gs.PlansSeen != ws.PlansSeen || gs.PlansCached != ws.PlansCached || gs.OptimizerCalls != ws.OptimizerCalls {
		t.Errorf("%s: paired stats %+v (seen %d, cached %d, calls %d), serial %+v (seen %d, cached %d, calls %d)", label,
			gs.Planner, gs.PlansSeen, gs.PlansCached, gs.OptimizerCalls, ws.Planner, ws.PlansSeen, ws.PlansCached, ws.OptimizerCalls)
	}
}

// chain17PairedMatchesSerial is TestPairedBuildMatchesSerial's 17-relation
// chain: past 16 relations the planner takes the wide key lane and the
// sparse DP table. Its two construction calls run through Export with
// pairCalls, a paired Builder's runner, and without a runner, on one
// workspace each, and must hand out the same summaries and counters.
func chain17PairedMatchesSerial(t *testing.T) {
	cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
	cfg := &query.Config{}
	for _, ix := range workload.ShapeAllOrdersConfig(cat, q).Indexes {
		if head[ix.Table] {
			cfg.Indexes = append(cfg.Indexes, ix)
		}
	}
	opts := []optimizer.Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}}
	export := func(run optimizer.Runner) *inum.Cache {
		c := inum.NewCache(a)
		st, err := optimizer.NewWorkspace().Export(a, cfg, opts, run, c.AddSummary)
		if err != nil {
			t.Fatal(err)
		}
		c.Stats.Planner, c.Stats.PlansSeen, c.Stats.OptimizerCalls = st, st.PathsRetained, len(opts)
		return c
	}
	assertSameCache(t, "chain-17/export", export(pairCalls), export(nil))
}

// mustParseBind parses and binds src, failing the test on error.
func mustParseBind(t *testing.T, src string, cat *catalog.Catalog, name string) *query.Query {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Bind(stmt, cat, name)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
