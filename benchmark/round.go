package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// bench is one workload. prepare generates its inputs from the seed and
// builds their golden answers once; every round then builds a fresh
// server, runs the program's set-up and measures one closed-loop
// window. With a tracer the round is the traced replay instead: spans
// on, one client, per-layer values out.
type bench interface {
	name() string
	prepare(seed int64) error
	round(window time.Duration, tr *tracer) (*roundResult, error)
}

// opCount is one operation type's tally; a failed operation is a
// non-200 status, a body that differs from its golden, or a broken
// invariant.
type opCount struct{ attempted, failed int }

// roundResult is what one round yields: a value per metric the workload
// defines, and the operation tallies behind fail_share.
type roundResult struct {
	values map[string]float64
	ops    map[string]*opCount
	notes  []string
}

func newRoundResult() *roundResult {
	return &roundResult{values: make(map[string]float64), ops: make(map[string]*opCount)}
}

func (r *roundResult) op(kind string) *opCount {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	return c
}

// check tallies one verification under kind and keeps the first few
// failure descriptions for the report.
func (r *roundResult) check(kind string, ok bool, format string, args ...any) {
	c := r.op(kind)
	c.attempted++
	if !ok {
		c.failed++
		if len(r.notes) < 8 {
			r.notes = append(r.notes, kind+": "+fmt.Sprintf(format, args...))
		}
	}
}

func (r *roundResult) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// merge folds another client's tallies into r.
func (r *roundResult) merge(o *roundResult) {
	for kind, c := range o.ops {
		mine := r.op(kind)
		mine.attempted += c.attempted
		mine.failed += c.failed
	}
	r.notes = append(r.notes, o.notes...)
}

func (r *roundResult) opKinds() []string {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// spinSink keeps hostSpin's loop from being optimised away.
var spinSink uint64

// hostSpin times a fixed pure-CPU loop. It runs every round, so a
// machine that slowed down shows beside the numbers it slowed.
func hostSpin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return float64(time.Since(start)) / 1e6
}

// liveHeap is HeapAlloc after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// window brackets a measured window with the runtime's allocation and
// collector counters.
type window struct {
	start  time.Time
	before runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.before)
	w.start = time.Now()
	return w
}

// close records the window's elapsed time and, per request, the
// allocation counts (the benchmark's own client allocates nothing in
// steady state, so these are the program's).
func (w *window) close(res *roundResult, requests int) time.Duration {
	elapsed := time.Since(w.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if requests > 0 {
		res.values["serve.allocs_per_req"] = float64(after.Mallocs-w.before.Mallocs) / float64(requests)
		res.values["serve.bytes_per_req"] = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(requests)
	}
	res.values["host.gc_cycles"] = float64(after.NumGC - w.before.NumGC)
	res.values["host.gc_pause_ms"] = float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6
	return elapsed
}

// scrape reads /metrics through the handler, checks the counters
// conserve, and reports the registry's view of the round.
func scrape(c *client, res *roundResult, sent map[string]int) (promText, error) {
	get, err := newCall(http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	status, body, d := c.do(get, nil)
	res.check("metrics", status == http.StatusOK, "/metrics status %d", status)
	res.values["obs.metrics_scrape_us"] = float64(d) / 1e3
	res.values["obs.metrics_bytes"] = float64(len(body))
	prom, err := parseProm(body)
	if err != nil {
		return nil, err
	}
	// requests = Σ outcomes: every request the benchmark sent was
	// counted, timed, and answered as the benchmark saw it.
	var errs float64
	for endpoint, n := range sent {
		label := fmt.Sprintf("endpoint=%q", endpoint)
		got := prom.sum("pinum_http_requests_total", label)
		res.check("metrics", got == float64(n), "%s: %v requests counted, %d sent", endpoint, got, n)
		timed := prom.sum("pinum_http_request_duration_seconds_count", label)
		res.check("metrics", timed == float64(n), "%s: %v latencies observed, %d sent", endpoint, timed, n)
		errs += prom.sum("pinum_http_request_errors_total", label)
	}
	res.values["serve.errors"] = errs
	res.values["serve.rejected"] = prom.sum("pinum_tenant_rejected_total", "")
	res.values["serve.cold_loads"] = prom.sum("pinum_tenant_cold_loads_total", "")
	res.values["serve.evictions"] = prom.sum("pinum_tenant_evictions_total", "")
	res.values["serve.reloads_completed"] = prom.sum("pinum_tenant_reloads_total", `result="completed"`)
	res.values["serve.reloads_skipped"] = prom.sum("pinum_tenant_reloads_total", `result="skipped"`)
	res.values["serve.queries_reused"] = prom.sum("pinum_snapshot_queries_reused", "")
	res.values["serve.queries_rebuilt"] = prom.sum("pinum_snapshot_queries_rebuilt", "")
	if reqs := prom.sum("pinum_tenant_requests_total", ""); reqs > 0 {
		res.values["serve.cold_load_share"] = res.values["serve.cold_loads"] / reqs
	}
	return prom, nil
}
