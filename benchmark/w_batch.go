package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	pinum "github.com/pinumdb/pinum"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// batchBench is a design session, one client, no tenants. One cycle:
// (a) build slim caches for the design set through the public facade —
// the paper's ten star queries plus eight join-graph shapes; (b) save
// and reload the star set's snapshot; (c) publish a static server over
// the reloaded caches and ask it six /recommend questions; (d) /explain
// every star query under the 5 GB recommendation. Cache construction —
// the paper's headline — and the advisor live here: optimizer and core
// are 57–62 % of a cycle, advisor and costmatrix (all of (c)) 36–41 %,
// and neither what-if workload runs any of it. The wide shapes keep the planner's
// variable-width key lane on the clock.
type batchBench struct {
	tmpRoot string

	goldenS float64
	shapes  []designQuery
	stars   []designQuery // verification configs for the star queries
	recs    []recommendInput
	explain []explainInput
}

// designQuery is one query of the design set with the configurations
// its built cache is checked under and the tree-backed twin's answers.
type designQuery struct {
	label   string
	cat     *catalog.Catalog
	q       *query.Query
	configs []*query.Config
	costs   []float64
}

type recommendInput struct {
	body   []byte
	golden []byte
}

type explainInput struct {
	body []byte
	cost float64
	plan string
}

// designShapes are the eight non-star members of the design set. Their
// generator seed is fixed: a shape's build time depends on it.
var designShapes = []struct {
	label string
	spec  workload.ShapeSpec
}{
	{"chain7", workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: 42}},
	{"snowflake7", workload.ShapeSpec{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 42}},
	{"star7", workload.ShapeSpec{Shape: workload.ShapeStar, Rels: 7, Seed: 42}},
	{"clique5", workload.ShapeSpec{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: 42}},
	{"random6", workload.ShapeSpec{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 42}},
	{"cycle6", workload.ShapeSpec{Shape: workload.ShapeCycle, Rels: 6, Seed: 42}},
	{"wide-orders", workload.ShapeSpec{Shape: workload.ShapeWideOrders, Seed: 42}},
	{"wide-group", workload.ShapeSpec{Shape: workload.ShapeWideGroup, Seed: 42}},
}

func newBatch(tmpRoot string) *batchBench { return &batchBench{tmpRoot: tmpRoot} }

func (b *batchBench) name() string { return "design-batch" }

func (b *batchBench) prepare(seed int64) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	env, err := loadEnvironment(nil, paperQuerySeed)
	if err != nil {
		return err
	}
	o, err := newOracle(env)
	if err != nil {
		return err
	}

	b.stars = nil
	for i, q := range env.Queries {
		dq := designQuery{label: q.Name, cat: env.Catalog, q: q}
		if err := dq.goldenCosts(rng, o.caches[i]); err != nil {
			return err
		}
		b.stars = append(b.stars, dq)
	}
	b.shapes = nil
	for _, s := range designShapes {
		cat, q, err := workload.ShapeQuery(s.spec)
		if err != nil {
			return err
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			return err
		}
		tree, err := core.Build(a, whatif.NewSession(cat))
		if err != nil {
			return err
		}
		dq := designQuery{label: s.label, cat: cat, q: q}
		if err := dq.goldenCosts(rng, tree); err != nil {
			return err
		}
		b.shapes = append(b.shapes, dq)
	}

	// Six /recommend questions: budgets 1/5/20 GB × max_indexes 0/5,
	// the 20 GB unlimited one under a seeded weights override.
	var picks []*catalog.Index
	b.recs = nil
	for _, gb := range []float64{1, 5, 20} {
		for _, maxIx := range []int{0, 5} {
			req := serve.RecommendRequest{BudgetGB: gb, MaxIndexes: maxIx}
			if gb == 20 && maxIx == 0 {
				for _, i := range rng.Perm(len(env.Queries))[:3] {
					req.Weights = append(req.Weights, serve.WeightOverride{Name: env.Queries[i].Name, Weight: float64(2 + rng.Intn(8))})
				}
			}
			ad, err := o.newAdvisor(storage.BytesForGB(gb), maxIx, req.Weights)
			if err != nil {
				return err
			}
			res, err := ad.Run()
			if err != nil {
				return err
			}
			if gb == 5 && maxIx == 0 {
				picks = res.Chosen
			}
			in := recommendInput{}
			if in.body, err = json.Marshal(&req); err != nil {
				return err
			}
			if in.golden, err = serve.EncodeJSON(serve.RecommendResponseFrom(res, env.Queries)); err != nil {
				return err
			}
			b.recs = append(b.recs, in)
		}
	}

	// One /explain per star query, in a seeded order, under the 5 GB
	// picks; the golden is one conventional optimizer call.
	specs := candidateSpecs(picks)
	cfg, err := o.config(specs)
	if err != nil {
		return err
	}
	db := pinum.NewDatabaseWith(env.Catalog, env.Stats)
	b.explain = nil
	for _, i := range rng.Perm(len(env.Queries)) {
		q := env.Queries[i]
		in := explainInput{}
		if in.cost, in.plan, err = db.Optimize(q, cfg); err != nil {
			return err
		}
		if in.body, err = json.Marshal(&serve.ExplainRequest{SQL: q.SQL, Indexes: specs}); err != nil {
			return err
		}
		b.explain = append(b.explain, in)
	}
	b.goldenS = time.Since(start).Seconds()
	return nil
}

// goldenCosts draws ten shape configurations (plus the all-orders one)
// and records the tree-backed cache's cost under each.
func (dq *designQuery) goldenCosts(rng *rand.Rand, tree *inum.Cache) error {
	dq.configs = workload.ShapeConfigs(rng, dq.cat, dq.q, 10)
	dq.costs = make([]float64, len(dq.configs))
	for i, cfg := range dq.configs {
		var err error
		if dq.costs[i], _, err = tree.Cost(cfg); err != nil {
			return fmt.Errorf("%s: %w", dq.label, err)
		}
	}
	return nil
}

// verify checks a freshly built cache: two optimizer calls, and the
// tree twin's cost under every recorded configuration.
func (dq *designQuery) verify(res *roundResult, c *inum.Cache) {
	ok := c.Stats.OptimizerCalls == 2
	for i, cfg := range dq.configs {
		cost, _, err := c.Cost(cfg)
		ok = ok && err == nil && cost == dq.costs[i]
	}
	res.check("build", ok, "%s: %d optimizer calls or a cost differing from its tree twin", dq.label, c.Stats.OptimizerCalls)
}

// batchCycle is one round's state across cycles.
type batchCycle struct {
	b   *batchBench
	env *serve.Environment
	dir string
	res *roundResult
	tr  *tracer

	build, saveLoad, newServer latencies
	// recommend holds one value per cycle, the mean over the cycle's six
	// requests: they differ in cost by design (a 20 GB search takes 30
	// times a 1 GB one), so a median over single requests would sit on the
	// boundary between two request types.
	recommend latencies
	// explainBy holds every /explain latency by its place in the cycle,
	// that is by query; explainAll holds them pooled, for the tails.
	explainBy     []latencies
	explainAll    latencies
	shape         map[string]latencies
	ops           int
	snapshotBytes int
	// designed is what the latest cycle built and still holds — the
	// design set's caches and the server over the reloaded ones — so that
	// heap_live_mb sees a design session's products, not an empty heap.
	designed designed
}

type designed struct {
	caches, shapes, loaded []*inum.Cache
	srv                    *serve.Server
}

// release closes the latest cycle's server and drops what it built.
func (bc *batchCycle) release() {
	if bc.designed.srv != nil {
		bc.designed.srv.Close()
	}
	bc.designed = designed{}
}

// run executes one whole cycle.
func (bc *batchCycle) run() (err error) {
	b, res, tr := bc.b, bc.res, bc.tr
	bc.release()
	req := 0
	if tr != nil {
		req = tr.newRequest()
	}

	// (a) Build the design set.
	t0 := time.Now()
	db := pinum.NewDatabaseWith(bc.env.Catalog, bc.env.Stats)
	caches, err := db.BuildPlanCaches(bc.env.Queries, pinum.WithSlim())
	if err != nil {
		return err
	}
	shapeCaches := make([]*inum.Cache, len(b.shapes))
	for i := range b.shapes {
		s0 := time.Now()
		a, err := optimizer.NewAnalysis(b.shapes[i].q, nil, optimizer.DefaultCostParams())
		if err != nil {
			return err
		}
		if shapeCaches[i], err = core.BuildSlim(a, whatif.NewSession(b.shapes[i].cat)); err != nil {
			return err
		}
		bc.shape[b.shapes[i].label] = append(bc.shape[b.shapes[i].label], float64(time.Since(s0)))
	}
	d := time.Since(t0)
	bc.build = append(bc.build, float64(d))
	bc.ops++
	if tr != nil {
		tr.add(req, -1, "build design set", tr.at(t0), tr.at(t0)+d.Nanoseconds())
		tr.layers["core+optimizer"] += float64(d) / 1e3
	}
	for i, c := range caches {
		b.stars[i].verify(res, c)
	}
	for i, c := range shapeCaches {
		b.shapes[i].verify(res, c)
	}

	// (b) Snapshot round trip of the star set.
	path := filepath.Join(bc.dir, "design.pcache")
	t0 = time.Now()
	if err := db.SaveCaches(path, caches); err != nil {
		return err
	}
	loaded, err := db.LoadCaches(path, bc.env.Queries)
	if err != nil {
		return err
	}
	d = time.Since(t0)
	bc.saveLoad = append(bc.saveLoad, float64(d))
	bc.ops++
	if tr != nil {
		tr.add(req, -1, "snapshot save+load", tr.at(t0), tr.at(t0)+d.Nanoseconds())
		tr.layers["plancache"] += float64(d) / 1e3
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var again bytes.Buffer
	snap, err := plancache.Decode(data)
	if err == nil {
		err = plancache.Encode(&again, snap)
	}
	res.check("saveload", err == nil && bytes.Equal(again.Bytes(), data), "snapshot does not re-encode byte-identically: %v", err)
	bc.snapshotBytes = len(data)

	// (c) Publish a server over the reloaded caches; six /recommend.
	analyses := make([]*optimizer.Analysis, len(loaded))
	for i, c := range loaded {
		analyses[i] = c.A
	}
	env := &serve.Environment{Catalog: bc.env.Catalog, Stats: bc.env.Stats, Queries: bc.env.Queries, Analyses: analyses}
	t0 = time.Now()
	srv, err := staticServer(env, loaded)
	if err != nil {
		return err
	}
	bc.designed = designed{caches: caches, shapes: shapeCaches, loaded: loaded, srv: srv}
	d = time.Since(t0)
	bc.newServer = append(bc.newServer, float64(d))
	bc.ops++
	if tr != nil {
		tr.add(req, -1, "serve.New", tr.at(t0), tr.at(t0)+d.Nanoseconds())
		tr.layers["serve"] += float64(d) / 1e3
	}
	c := newClient(srv.Handler())
	var headers []string
	if tr != nil {
		headers = []string{serve.TraceHeader, "bench"}
	}
	recommend, err := newCall(http.MethodPost, "/recommend", headers...)
	if err != nil {
		return err
	}
	explain, err := newCall(http.MethodPost, "/explain", headers...)
	if err != nil {
		return err
	}
	sent := map[string]int{}
	defer func() {
		if _, serr := scrape(newClient(srv.Handler()), res, sent); serr != nil && err == nil {
			err = serr
		}
	}()
	var sum float64
	for i := range b.recs {
		t0 = time.Now()
		status, body, d := c.do(recommend, b.recs[i].body)
		sent["/recommend"]++
		bc.ops++
		sum += float64(d)
		if tr != nil {
			var rr serve.RecommendResponse
			view, plain, perr := tracedBody(body, &rr, func() *obs.TraceView { v := rr.Trace; rr.Trace = nil; return v })
			res.check("recommend", perr == nil && status == http.StatusOK && view != nil && bytes.Equal(plain, b.recs[i].golden),
				"traced /recommend %d: status %d err %v", i, status, perr)
			ss := tr.attach(tr.newRequest(), "POST /recommend", t0, d, view)
			tr.sampleServe(ss)
			tr.layers["advisor+costmatrix"] += ss.top["advisor"]
			tr.layers["serve"] += float64(d)/1e3 - ss.top["advisor"]
			continue
		}
		res.check("recommend", status == http.StatusOK && bytes.Equal(body, b.recs[i].golden), "/recommend %d: status %d", i, status)
	}
	bc.recommend = append(bc.recommend, sum/float64(len(b.recs)))

	// (d) /explain every star query under the 5 GB picks.
	if bc.explainBy == nil {
		bc.explainBy = make([]latencies, len(b.explain))
	}
	for i := range b.explain {
		t0 = time.Now()
		status, body, d := c.do(explain, b.explain[i].body)
		sent["/explain"]++
		bc.ops++
		bc.explainBy[i] = append(bc.explainBy[i], float64(d))
		bc.explainAll = append(bc.explainAll, float64(d))
		var er serve.ExplainResponse
		perr := json.Unmarshal(body, &er)
		res.check("explain", perr == nil && status == http.StatusOK && er.Cost == b.explain[i].cost && er.Plan == b.explain[i].plan,
			"/explain %d: status %d err %v cost %v want %v", i, status, perr, er.Cost, b.explain[i].cost)
		if tr != nil {
			ss := tr.attach(tr.newRequest(), "POST /explain", t0, d, er.Trace)
			tr.sampleServe(ss)
			tr.layers["core+optimizer"] += ss.top["optimize"]
			tr.layers["serve"] += float64(d)/1e3 - ss.top["optimize"]
		}
	}
	return err
}

// explainP50 is the /explain latency in µs: each query's median over
// the round's cycles, averaged over the ten queries. The queries differ
// in cost fivefold and a single /explain right after the advisor's
// searches jitters severalfold, so the median is taken per query, where
// the samples are alike, and every query counts once.
func (bc *batchCycle) explainP50() float64 {
	var sum float64
	for _, l := range bc.explainBy {
		sum += l.p(0.50, 1e3)
	}
	return sum / float64(len(bc.explainBy))
}

func (b *batchBench) round(win time.Duration, tr *tracer) (*roundResult, error) {
	res := newRoundResult()
	res.values["host.spin_ms"] = hostSpin()
	res.values["host.golden_s"] = b.goldenS
	heap0 := liveHeap()
	start := time.Now()
	dir, err := os.MkdirTemp(b.tmpRoot, "design-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Set-up: load the environment and run one whole cycle as warm-up.
	env, err := loadEnvironment(nil, paperQuerySeed)
	if err != nil {
		return nil, err
	}
	warm := &batchCycle{b: b, env: env, dir: dir, res: res, shape: make(map[string]latencies)}
	err = warm.run()
	warm.release()
	if err != nil {
		return nil, err
	}
	res.values["setup_s"] = time.Since(start).Seconds()

	bc := &batchCycle{b: b, env: env, dir: dir, res: res, tr: tr, shape: make(map[string]latencies)}
	defer bc.release()
	w := openWindow()
	// Whole cycles only: a cycle's operations differ in cost a
	// thousandfold, so a window cut mid-cycle would make the rate depend
	// on where the cut fell.
	for time.Since(w.start) < win {
		if err := bc.run(); err != nil {
			return nil, err
		}
	}
	elapsed := w.close(res, bc.ops)
	if tr == nil {
		res.values["heap_live_mb"] = (liveHeap() - heap0) / 1e6
		runtime.KeepAlive(bc)
		res.values["ops_per_s"] = float64(bc.ops) / elapsed.Seconds()
		res.values["request_p50_us"] = bc.explainP50()
		res.values["snapshot_bytes"] = float64(bc.snapshotBytes)
		res.values["build_p50_ms"] = bc.build.p(0.50, 1e6)
		res.values["recommend_p50_ms"] = bc.recommend.p(0.50, 1e6)
		res.values["explain_p50_us"] = res.values["request_p50_us"]
		res.values["plancache.saveload_ms"] = bc.saveLoad.p(0.50, 1e6)
		res.values["serve.new_static_ms"] = bc.newServer.p(0.50, 1e6)
		res.values["serve.handler_p99_us"] = bc.explainAll.p(0.99, 1e3)
		res.values["serve.handler_p999_us"] = bc.explainAll.p(0.999, 1e3)
		for label, l := range bc.shape {
			res.values["core.build_slim_ms."+label] = l.p(0.50, 1e6)
		}
	} else {
		tr.medians(res.values)
	}
	res.values["plancache.snapshot_bytes"] = float64(bc.snapshotBytes)
	res.values["serve.response_bytes"] = float64(len(b.recs[0].golden))
	return res, nil
}
