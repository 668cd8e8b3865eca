package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/serve"
)

// churnBench is the working set that does not fit: six tenants behind a
// residency cap of three, each with its snapshot in an on-disk store
// (plancache.Save keeps its fsync; the flush policy is the program's).
// One client runs the fixed script of inputs.go, so residency is
// deterministic and every /whatif is classified cold or warm exactly by
// the tenant's cold-load counter. About a third of the /whatif land on a
// non-resident tenant and cold-load from the store; every script also
// forces one full cache construction and one incremental reload under
// the server. This is the only workload with evictions, cold loads and
// reloads beside warm reads, and the only one with the loader, snapshot
// assembly and snapshot I/O on the clock.
type churnBench struct {
	tmpRoot string

	tenants []churnTenant
	script  []scriptOp
	goldenS float64
	// driftTable's row count flips between its generated value and
	// driftRows on every drift reload of tenant churnDriftOwner.
	driftTable string
	driftRows  int64
}

type churnTenant struct {
	name      string
	querySeed int64
	queries   int
	bodies    []whatIfInput
	// golden[0] answers under the generated statistics, golden[1]
	// (drift owner only) under the drifted ones.
	golden [2][][]byte
}

func newChurn(tmpRoot string) *churnBench { return &churnBench{tmpRoot: tmpRoot} }

func (b *churnBench) name() string { return "tenant-churn" }

func (b *churnBench) prepare(seed int64) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	b.tenants = make([]churnTenant, churnTenants)
	for i := range b.tenants {
		t := &b.tenants[i]
		t.name = fmt.Sprintf("t%d", i)
		t.querySeed = churnQuerySeed0 + int64(i)
		env, err := loadEnvironment(nil, t.querySeed)
		if err != nil {
			return err
		}
		t.queries = len(env.Queries)
		o, err := newOracle(env)
		if err != nil {
			return err
		}
		cands, err := o.candidates()
		if err != nil {
			return err
		}
		if t.bodies, err = whatIfBodies(rng, churnBodies, 1, 4, candidateSpecs(cands), nil, 0, nil); err != nil {
			return err
		}
		if t.golden[0], err = goldenBodies(o, t.bodies); err != nil {
			return err
		}
		if i == churnDriftOwner {
			b.driftTable, b.driftRows = pickDriftTable(env)
			drifted, err := loadEnvironment(map[string]int64{b.driftTable: b.driftRows}, t.querySeed)
			if err != nil {
				return err
			}
			od, err := newOracle(drifted)
			if err != nil {
				return err
			}
			if t.golden[1], err = goldenBodies(od, t.bodies); err != nil {
				return err
			}
		}
	}
	b.script = churnScript(rng)
	b.goldenS = time.Since(start).Seconds()
	return nil
}

func goldenBodies(o *oracle, bodies []whatIfInput) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	for i := range bodies {
		var err error
		if out[i], err = o.whatIf(&bodies[i].Req); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pickDriftTable chooses the table whose statistics drift: one that
// some but not all of the tenant's queries read (fewest first, then by
// name), so the reload reuses some caches and rebuilds others. Its row
// count halves.
func pickDriftTable(env *serve.Environment) (string, int64) {
	uses := make(map[string]int)
	for _, q := range env.Queries {
		seen := make(map[string]bool)
		for _, r := range q.Rels {
			if !seen[r.Table.Name] {
				seen[r.Table.Name] = true
				uses[r.Table.Name]++
			}
		}
	}
	var names []string
	for name, n := range uses {
		if n < len(env.Queries) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if uses[names[i]] != uses[names[j]] {
			return uses[names[i]] < uses[names[j]]
		}
		return names[i] < names[j]
	})
	return names[0], env.Catalog.Table(names[0]).RowCount / 2
}

// churnServer is one round's server with its store and drift switch.
type churnServer struct {
	srv     *serve.Server
	dir     string
	drifted atomic.Bool
	loaders []func() (*serve.Environment, error)
	paths   []string
	cold    []*obs.Counter
}

func (b *churnBench) newServer() (*churnServer, error) {
	dir, err := os.MkdirTemp(b.tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	store, err := plancache.NewStore(dir)
	if err != nil {
		return nil, err
	}
	cs := &churnServer{dir: dir}
	cfg := serve.Config{MaxResident: churnResident}
	for i := range b.tenants {
		i := i
		loader := func() (*serve.Environment, error) {
			var rows map[string]int64
			if i == churnDriftOwner && cs.drifted.Load() {
				rows = map[string]int64{b.driftTable: b.driftRows}
			}
			return loadEnvironment(rows, b.tenants[i].querySeed)
		}
		path, err := store.Path(b.tenants[i].name)
		if err != nil {
			return nil, err
		}
		cs.loaders = append(cs.loaders, loader)
		cs.paths = append(cs.paths, path)
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{Name: b.tenants[i].name, Loader: loader, SnapshotPath: path})
	}
	if cs.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	for i := range b.tenants {
		cs.cold = append(cs.cold, cs.srv.Registry().Counter("pinum_tenant_cold_loads_total", "", obs.L("tenant", b.tenants[i].name)))
	}
	return cs, nil
}

func (cs *churnServer) close() {
	cs.srv.Close()
	os.RemoveAll(cs.dir)
}

// churnClient is the single closed-loop client and its prepared calls.
type churnClient struct {
	b      *churnBench
	cs     *churnServer
	c      *client
	whatIf []*call
	force  *call
	drift  *call
	res    *roundResult
	tr     *tracer
	sent   map[string]int

	warm, cold, rebuild, incr latencies
	// assembly is the part of a cold load the isolated replays do not
	// cover (snapshot-set assembly), kept to split an incremental reload.
	assembly []float64
	lastSave float64
}

func (b *churnBench) newClient(cs *churnServer, res *roundResult, tr *tracer) (*churnClient, error) {
	cc := &churnClient{b: b, cs: cs, c: newClient(cs.srv.Handler()), res: res, tr: tr, sent: make(map[string]int)}
	for i := range b.tenants {
		headers := []string{serve.TenantHeader, b.tenants[i].name}
		if tr != nil {
			headers = append(headers, serve.TraceHeader, "bench")
		}
		cl, err := newCall(http.MethodPost, "/whatif", headers...)
		if err != nil {
			return nil, err
		}
		cc.whatIf = append(cc.whatIf, cl)
	}
	var err error
	if cc.force, err = newCall(http.MethodPost, fmt.Sprintf("/reload?tenant=%s&force=1&wait=1", b.tenants[churnForceOwner].name)); err != nil {
		return nil, err
	}
	if cc.drift, err = newCall(http.MethodPost, fmt.Sprintf("/reload?tenant=%s&wait=1", b.tenants[churnDriftOwner].name)); err != nil {
		return nil, err
	}
	return cc, nil
}

// do runs one scripted operation, verifies it and files its latency.
func (cc *churnClient) do(op scriptOp) error {
	switch op.Kind {
	case opWhatIf:
		return cc.doWhatIf(op)
	case opForceReload:
		d, out := cc.reload(cc.force, "rebuild")
		cc.res.check("rebuild", out.Result == "swapped" && out.QueriesRebuilt == cc.b.tenants[op.Tenant].queries,
			"forced reload: %+v", out)
		cc.rebuild = append(cc.rebuild, float64(d))
		if cc.tr != nil {
			return cc.replayRebuild(op.Tenant, d)
		}
	case opDriftReload:
		cc.cs.drifted.Store(!cc.cs.drifted.Load())
		d, out := cc.reload(cc.drift, "reload_incr")
		cc.res.check("reload_incr", out.Result == "swapped" && out.QueriesReused >= 1 && out.QueriesRebuilt >= 1,
			"drift reload: %+v", out)
		cc.incr = append(cc.incr, float64(d))
		if cc.tr != nil {
			return cc.replayIncr(op.Tenant, d)
		}
	}
	return nil
}

func (cc *churnClient) reload(cl *call, kind string) (time.Duration, serve.ReloadOutcome) {
	status, body, d := cc.c.do(cl, nil)
	cc.sent["/reload"]++
	var out serve.ReloadOutcome
	err := json.Unmarshal(body, &out)
	cc.res.check(kind, status == http.StatusOK && err == nil, "/reload status %d: %s", status, body)
	if cc.tr != nil {
		cc.tr.attach(cc.tr.newRequest(), "POST /reload "+kind, time.Now().Add(-d), d, nil)
	}
	return d, out
}

func (cc *churnClient) doWhatIf(op scriptOp) error {
	t := &cc.b.tenants[op.Tenant]
	golden := t.golden[0][op.Body]
	if op.Tenant == churnDriftOwner && cc.cs.drifted.Load() {
		golden = t.golden[1][op.Body]
	}
	before := cc.cs.cold[op.Tenant].Value()
	t0 := time.Now()
	status, body, d := cc.c.do(cc.whatIf[op.Tenant], t.bodies[op.Body].Body)
	cc.sent["/whatif"]++
	wasCold := cc.cs.cold[op.Tenant].Value() > before
	if cc.tr == nil {
		cc.res.check("whatif", status == http.StatusOK && bytes.Equal(body, golden), "tenant %s body %d: status %d", t.name, op.Body, status)
	} else {
		var wr serve.WhatIfResponse
		view, plain, err := tracedBody(body, &wr, func() *obs.TraceView { v := wr.Trace; wr.Trace = nil; return v })
		cc.res.check("whatif", err == nil && status == http.StatusOK && view != nil && bytes.Equal(plain, golden),
			"traced tenant %s body %d: status %d err %v", t.name, op.Body, status, err)
		req := cc.tr.newRequest()
		ss := cc.tr.attach(req, "POST /whatif "+t.name, t0, d, view)
		cc.tr.sampleServe(ss)
		cc.tr.layers["core"] += ss.fanoutSelf
		cc.tr.layers["inum"] += ss.querySum
		cc.tr.layers["serve"] += float64(d)/1e3 - ss.top["fanout"] - ss.top["load"]
		if wasCold {
			if err := cc.replayCold(req, op.Tenant, ss.top["load"]); err != nil {
				return err
			}
		} else {
			cc.tr.layers["serve"] += ss.top["load"]
		}
	}
	if wasCold {
		cc.cold = append(cc.cold, float64(d))
	} else {
		cc.warm = append(cc.warm, float64(d))
	}
	return nil
}

// replayCold repeats what a cold load did through the public functions
// — loader, plancache.Load, plancache.BuildCaches — and splits the
// server's load span between them; the rest is snapshot-set assembly.
func (cc *churnClient) replayCold(req, tenant int, loadUs float64) error {
	tr := cc.tr
	replay := tr.open(req, -1, "replay")
	var env *serve.Environment
	var err error
	loader := tr.timed(req, replay, "workload loader", func() { env, err = cc.cs.loaders[tenant]() })
	if err != nil {
		return err
	}
	var fp uint64
	fpUs := tr.timed(req, replay, "plancache.Fingerprint", func() {
		fp = plancache.Fingerprint(env.Catalog, env.Stats, optimizer.DefaultCostParams())
	})
	var snap *plancache.Snapshot
	load := tr.timed(req, replay, "plancache.Load", func() { snap, err = plancache.Load(cc.cs.paths[tenant], fp) })
	if err != nil {
		return err
	}
	build := tr.timed(req, replay, "plancache.BuildCaches", func() { _, err = plancache.BuildCaches(snap, env.Queries, env.Analyses) })
	if err != nil {
		return err
	}
	tr.close(replay)
	tr.sample("workload.loader_us", loader)
	tr.sample("plancache.fingerprint_us", fpUs)
	tr.sample("plancache.load_us", load)
	tr.sample("plancache.build_caches_us", build)
	rest := loadUs - loader - fpUs - load - build
	if rest < 0 {
		rest = 0
	}
	cc.assembly = append(cc.assembly, rest)
	tr.layers["workload"] += loader
	tr.layers["plancache"] += fpUs + load + build
	tr.layers["serve"] += rest
	return nil
}

// replayRebuild repeats a forced reload's parts: loader, the slim
// build of every query, and the crash-safe save.
func (cc *churnClient) replayRebuild(tenant int, wall time.Duration) error {
	tr := cc.tr
	req := tr.reqs
	replay := tr.open(req, -1, "replay")
	var env *serve.Environment
	var err error
	loader := tr.timed(req, replay, "workload loader", func() { env, err = cc.cs.loaders[tenant]() })
	if err != nil {
		return err
	}
	var snap *plancache.Snapshot
	build := tr.timed(req, replay, "core.BuildAllSlim", func() {
		caches, berr := core.BuildAllSlim(env.Analyses, env.Catalog, 0)
		if err = berr; err == nil {
			snap = plancache.NewSnapshot(plancache.Fingerprint(env.Catalog, env.Stats, optimizer.DefaultCostParams()), caches)
		}
	})
	if err != nil {
		return err
	}
	save := tr.timed(req, replay, "plancache.Save", func() { err = plancache.Save(cc.cs.paths[tenant]+".replay", snap) })
	if err != nil {
		return err
	}
	tr.close(replay)
	tr.sample("plancache.save_ms", save/1e3)
	cc.lastSave = save
	rest := float64(wall)/1e3 - loader - build - save
	if rest < 0 {
		rest = 0
	}
	tr.layers["workload"] += loader
	tr.layers["core+optimizer"] += build
	tr.layers["plancache"] += save
	tr.layers["serve"] += rest
	return nil
}

// replayIncr splits an incremental reload: the loader is replayed, the
// save and the set assembly are taken from the replays already made,
// and what remains is the rebuild of the queries that moved.
func (cc *churnClient) replayIncr(tenant int, wall time.Duration) error {
	tr := cc.tr
	var err error
	loader := tr.timed(tr.reqs, -1, "replay workload loader", func() { _, err = cc.cs.loaders[tenant]() })
	if err != nil {
		return err
	}
	assembly := median(cc.assembly)
	rest := float64(wall)/1e3 - loader - cc.lastSave - assembly
	if rest < 0 {
		rest = 0
	}
	tr.layers["workload"] += loader
	tr.layers["plancache"] += cc.lastSave
	tr.layers["serve"] += assembly
	tr.layers["core+optimizer"] += rest
	return nil
}

func (b *churnBench) round(win time.Duration, tr *tracer) (*roundResult, error) {
	res := newRoundResult()
	res.values["host.spin_ms"] = hostSpin()
	res.values["host.golden_s"] = b.goldenS
	heap0 := liveHeap()
	start := time.Now()
	cs, err := b.newServer()
	if err != nil {
		return nil, err
	}
	defer cs.close()
	// Set-up: load every tenant once (six full builds, six snapshot
	// files), then one whole script as warm-up.
	setupClient, err := b.newClient(cs, res, nil)
	if err != nil {
		return nil, err
	}
	for i := range b.tenants {
		if err := setupClient.do(scriptOp{Kind: opWhatIf, Tenant: i}); err != nil {
			return nil, err
		}
	}
	pos := 0
	for ; pos < churnScriptOps; pos++ {
		if err := setupClient.do(b.script[pos]); err != nil {
			return nil, err
		}
	}
	res.values["setup_s"] = time.Since(start).Seconds()
	// The store after set-up: every tenant saved, t1 in its drifted state.
	for _, path := range cs.paths {
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		res.values["snapshot_bytes"] += float64(st.Size())
	}

	cc, err := b.newClient(cs, res, tr)
	if err != nil {
		return nil, err
	}
	w := openWindow()
	// Whole scripts only, so every window holds the same mix of cheap
	// and heavy operations.
	ops := 0
	for time.Since(w.start) < win {
		for i := 0; i < churnScriptOps; i, pos, ops = i+1, pos+1, ops+1 {
			if err := cc.do(b.script[pos%len(b.script)]); err != nil {
				return nil, err
			}
		}
	}
	elapsed := w.close(res, ops)
	if tr == nil {
		res.values["heap_live_mb"] = (liveHeap() - heap0) / 1e6
		runtime.KeepAlive(cs)
		res.values["ops_per_s"] = float64(ops) / elapsed.Seconds()
		res.values["request_p50_us"] = cc.warm.p(0.50, 1e3)
		res.values["serve.handler_p99_us"] = cc.warm.p(0.99, 1e3)
		res.values["serve.handler_p999_us"] = cc.warm.p(0.999, 1e3)
		res.values["coldload_p50_ms"] = cc.cold.p(0.50, 1e6)
		res.values["rebuild_p50_ms"] = cc.rebuild.p(0.50, 1e6)
		res.values["build_p50_ms"] = res.values["rebuild_p50_ms"]
		res.values["reload_incr_p50_ms"] = cc.incr.p(0.50, 1e6)
		var heavy float64
		for _, l := range []latencies{cc.cold, cc.rebuild, cc.incr} {
			for _, d := range l {
				heavy += d
			}
		}
		res.values["churn.heavy_wall_pct"] = 100 * heavy / float64(elapsed)
	} else {
		tr.medians(res.values)
	}
	res.values["serve.response_bytes"] = float64(len(b.tenants[0].golden[0][0]))
	res.values["workload.distinct_specs"] = float64(b.distinctSpecs())

	sent := map[string]int{
		"/whatif": setupClient.sent["/whatif"] + cc.sent["/whatif"],
		"/reload": setupClient.sent["/reload"] + cc.sent["/reload"],
	}
	prom, err := scrape(newClient(cs.srv.Handler()), res, sent)
	if err != nil {
		return nil, err
	}
	// cold loads − evictions = resident: no tenant was loaded or dropped
	// behind the registry's back.
	resident := prom.sum("pinum_tenant_resident", "")
	res.check("metrics", res.values["serve.cold_loads"]-res.values["serve.evictions"] == resident,
		"%v cold loads − %v evictions ≠ %v resident", res.values["serve.cold_loads"], res.values["serve.evictions"], resident)
	return res, nil
}

func (b *churnBench) distinctSpecs() int {
	pools := make([][]whatIfInput, len(b.tenants))
	for i := range b.tenants {
		pools[i] = b.tenants[i].bodies
	}
	return distinctSpecs(pools...)
}
