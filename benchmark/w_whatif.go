package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/whatif"
)

// whatIfBench is a static single-tenant server priced by closed-loop
// /whatif clients. Two instances exist:
//
// whatif-point: the paper's 10-query star workload, 2 clients, bodies of
// 1–4 indexes, a tenth of them never proposed by the advisor. A request
// is ~72 % request path (serve's decode, route, resolve and encode ~54 %,
// core's fan-out dispatch 17–19 %) and ~28 % Cache.Cost, so this is where
// a cheaper request path shows, and where known and never-seen indexes
// both occur.
//
// whatif-wide: 200 queries in one tenant, 1 client, bodies of 8–16
// indexes, a quarter with a weights override. The same code used
// differently: Cache.Cost is ~71 % of request CPU time and the fan-out's
// parallelism is on the critical path, so a change that helps
// whatif-point by hurting the cost loop or the fan-out shows here.
type whatIfBench struct {
	label       string
	querySeeds  []int64
	clients     int
	nBodies     int
	minIx       int
	maxIx       int
	adhocShare  float64
	withWeights bool

	seed     int64
	bodies   []whatIfInput
	golden   [][]byte
	goldenS  float64
	distinct int
}

func newWhatIfPoint() *whatIfBench {
	return &whatIfBench{label: "whatif-point", querySeeds: []int64{paperQuerySeed},
		clients: 2, nBodies: 512, minIx: 1, maxIx: 4, adhocShare: 0.10}
}

func newWhatIfWide() *whatIfBench {
	return &whatIfBench{label: "whatif-wide", querySeeds: seedRange(wideQuerySeed0, 20),
		clients: 1, nBodies: 256, minIx: 8, maxIx: 16, withWeights: true}
}

func (b *whatIfBench) name() string { return b.label }

func (b *whatIfBench) prepare(seed int64) error {
	start := time.Now()
	b.seed = seed
	env, err := loadEnvironment(nil, b.querySeeds...)
	if err != nil {
		return err
	}
	o, err := newOracle(env)
	if err != nil {
		return err
	}
	cands, err := o.candidates()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var adhoc []serve.IndexSpec
	if b.adhocShare > 0 {
		adhoc = adhocSpecs(rng, env, 256)
	}
	var names []string
	if b.withWeights {
		for _, q := range env.Queries {
			names = append(names, q.Name)
		}
	}
	if b.bodies, err = whatIfBodies(rng, b.nBodies, b.minIx, b.maxIx, candidateSpecs(cands), adhoc, b.adhocShare, names); err != nil {
		return err
	}
	b.distinct = distinctSpecs(b.bodies)
	b.golden = make([][]byte, len(b.bodies))
	for i := range b.bodies {
		if b.golden[i], err = o.whatIf(&b.bodies[i].Req); err != nil {
			return err
		}
	}
	b.goldenS = time.Since(start).Seconds()
	return nil
}

// setup is the program's set-up: load the environment, build the slim
// caches, publish the snapshot set, and warm the request path with two
// passes over the body pool.
func (b *whatIfBench) setup(res *roundResult) (*serve.Server, []*inum.Cache, *serve.Environment, error) {
	env, err := loadEnvironment(nil, b.querySeeds...)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	caches, err := core.BuildAllSlim(env.Analyses, env.Catalog, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	res.values["build_p50_ms"] = float64(time.Since(t0)) / 1e6
	srv, err := staticServer(env, caches)
	if err != nil {
		return nil, nil, nil, err
	}
	c := newClient(srv.Handler())
	post, err := newCall(http.MethodPost, "/whatif")
	if err != nil {
		return nil, nil, nil, err
	}
	for pass := 0; pass < 2; pass++ {
		for i := range b.bodies {
			status, body, _ := c.do(post, b.bodies[i].Body)
			res.check("whatif", status == http.StatusOK && bytes.Equal(body, b.golden[i]),
				"warm-up body %d: status %d", i, status)
		}
	}
	return srv, caches, env, nil
}

func (b *whatIfBench) round(win time.Duration, tr *tracer) (*roundResult, error) {
	res := newRoundResult()
	res.values["host.spin_ms"] = hostSpin()
	res.values["host.golden_s"] = b.goldenS
	heap0 := liveHeap()
	start := time.Now()
	srv, caches, env, err := b.setup(res)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	res.values["setup_s"] = time.Since(start).Seconds()
	if res.values["snapshot_bytes"], err = snapshotBytes(env, caches); err != nil {
		return nil, err
	}
	sent := 2 * len(b.bodies)

	if tr != nil {
		n, err := b.traced(win, tr, res, srv, caches, env)
		if err != nil {
			return nil, err
		}
		sent += n
	} else {
		sent += b.measure(win, res, srv)
		res.values["heap_live_mb"] = (liveHeap() - heap0) / 1e6
		runtime.KeepAlive(caches)
		// The set-up's construction is one sample a round; four more of the
		// same make the round's build_p50_ms a median of five.
		builds := latencies{res.values["build_p50_ms"] * 1e6}
		for len(builds) < 5 {
			t0 := time.Now()
			if _, err := core.BuildAllSlim(env.Analyses, env.Catalog, 0); err != nil {
				return nil, err
			}
			builds = append(builds, float64(time.Since(t0)))
		}
		res.values["build_p50_ms"] = builds.p(0.50, 1e6)
	}

	var plans, entryBytes int64
	for _, c := range caches {
		plans += int64(len(c.Plans))
		entryBytes += c.MemStats().EntryBytes
		res.check("build", c.Stats.OptimizerCalls == 2, "%s built with %d optimizer calls", c.Q.Name, c.Stats.OptimizerCalls)
	}
	res.values["inum.plans_total"] = float64(plans)
	if us, ok := res.values["inum.cost_us_per_request"]; ok {
		res.values["inum.cost_ns_per_plan"] = us * 1e3 / float64(plans)
	}
	res.values["inum.entry_bytes"] = float64(entryBytes)
	res.values["workload.distinct_specs"] = float64(b.distinct)
	res.values["serve.response_bytes"] = float64(len(b.golden[0]))
	_, err = scrape(newClient(srv.Handler()), res, map[string]int{"/whatif": sent})
	return res, err
}

// measure runs the closed-loop window with tracing off: each client
// draws a body, posts it, checks the answer byte for byte against its
// golden, and only then sends the next.
func (b *whatIfBench) measure(win time.Duration, res *roundResult, srv *serve.Server) int {
	type clientOut struct {
		res *roundResult
		lat latencies
	}
	outs := make([]clientOut, b.clients)
	var wg sync.WaitGroup
	w := openWindow()
	for ci := 0; ci < b.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := clientOut{res: newRoundResult(), lat: make(latencies, 0, 1<<16)}
			c := newClient(srv.Handler())
			post, err := newCall(http.MethodPost, "/whatif")
			if err != nil {
				out.res.check("whatif", false, "%v", err)
				outs[ci] = out
				return
			}
			rng := rand.New(rand.NewSource(b.seed*31 + int64(ci)))
			tally := out.res.op("whatif")
			for time.Since(w.start) < win {
				i := rng.Intn(len(b.bodies))
				status, body, d := c.do(post, b.bodies[i].Body)
				tally.attempted++
				if status != http.StatusOK || !bytes.Equal(body, b.golden[i]) {
					tally.failed++
				}
				out.lat = append(out.lat, float64(d))
			}
			outs[ci] = out
		}(ci)
	}
	wg.Wait()
	var lat latencies
	for _, out := range outs {
		res.merge(out.res)
		lat = append(lat, out.lat...)
	}
	elapsed := w.close(res, len(lat))
	res.values["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	res.values["request_p50_us"] = lat.p(0.50, 1e3)
	res.values["serve.handler_p99_us"] = lat.p(0.99, 1e3)
	res.values["serve.handler_p999_us"] = lat.p(0.999, 1e3)
	return len(lat)
}

// traced replays the workload with spans on. Per sampled body: one
// untraced and one server-traced request through the handler, then the
// same input through the public functions in isolation.
func (b *whatIfBench) traced(win time.Duration, tr *tracer, res *roundResult, srv *serve.Server, caches []*inum.Cache, env *serve.Environment) (int, error) {
	c := newClient(srv.Handler())
	post, err := newCall(http.MethodPost, "/whatif")
	if err != nil {
		return 0, err
	}
	postTraced, err := newCall(http.MethodPost, "/whatif", serve.TraceHeader, "bench")
	if err != nil {
		return 0, err
	}
	ws := whatif.NewSession(env.Catalog)
	rng := rand.New(rand.NewSource(b.seed * 37))
	noop := func() func(int) { return func(int) {} }
	sent := 0
	for start := time.Now(); time.Since(start) < win; {
		i := rng.Intn(len(b.bodies))
		in := &b.bodies[i]
		req := tr.newRequest()

		status, body, plainDur := c.do(post, in.Body)
		res.check("whatif", status == http.StatusOK && bytes.Equal(body, b.golden[i]), "untraced body %d: status %d", i, status)
		t0 := time.Now()
		status, body, tracedDur := c.do(postTraced, in.Body)
		sent += 2
		var wr serve.WhatIfResponse
		view, plain, err := tracedBody(body, &wr, func() *obs.TraceView { v := wr.Trace; wr.Trace = nil; return v })
		res.check("whatif", err == nil && status == http.StatusOK && view != nil && bytes.Equal(plain, b.golden[i]),
			"traced body %d: status %d err %v", i, status, err)
		ss := tr.attach(req, "POST /whatif", t0, tracedDur, view)

		tr.sample("serve.handler_us", float64(plainDur)/1e3)
		tr.sample("serve.traced_handler_us", float64(tracedDur)/1e3)
		tr.sampleServe(ss)
		tr.layers["serve"] += float64(tracedDur)/1e3 - ss.top["fanout"]
		tr.layers["core"] += ss.fanoutSelf
		tr.layers["inum"] += ss.querySum

		// The same input through the public functions, one at a time.
		replay := tr.open(req, -1, "replay")
		var resp *serve.WhatIfResponse
		call := tr.timed(req, replay, "serve.Server.WhatIf", func() { resp, err = srv.WhatIf(&in.Req) })
		if err != nil {
			return sent, err
		}
		enc := tr.timed(req, replay, "serve.EncodeJSON", func() { _, err = serve.EncodeJSON(resp) })
		if err != nil {
			return sent, err
		}
		cfg, err := resolveSpecs(ws, in.Req.Indexes)
		if err != nil {
			return sent, err
		}
		cost := tr.timed(req, replay, "inum.Cache.Cost loop", func() { err = costAll(caches, cfg) })
		if err != nil {
			return sent, err
		}
		tr.timed(req, replay, "core.FanCtxObserved empty", func() {
			err = core.FanCtxObserved(context.Background(), len(caches), 0, noop, nil)
		})
		if err != nil {
			return sent, err
		}
		tr.close(replay)
		tr.sample("serve.whatif_call_us", call)
		tr.sample("serve.encode_us", enc)
		tr.sample("inum.cost_us_per_request", cost)
	}
	tr.medians(res.values)
	res.values["serve.ingress_us"] = res.values["serve.handler_us"] - res.values["serve.whatif_call_us"] - res.values["serve.encode_us"]
	res.values["serve.trace_overhead_us"] = res.values["serve.traced_handler_us"] - res.values["serve.handler_us"]
	delete(res.values, "serve.traced_handler_us")
	return sent, nil
}

// costAll prices one configuration on every cache, serially.
func costAll(caches []*inum.Cache, cfg *query.Config) error {
	for _, c := range caches {
		if _, _, err := c.Cost(cfg); err != nil {
			return err
		}
	}
	return nil
}
