package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// reloadFixture is a server over a roster of one, DefaultTenant on the
// star workload (mutate may rename it). Every load rebuilds the
// environment from scratch (catalog, statistics, analyses), applying the
// fixture's row-count overrides — so a live snapshot set and a reload in
// progress share no mutable state, exactly like the daemon's loader.
type reloadFixture struct {
	mu        sync.Mutex
	overrides map[string]int64

	srv *Server
	ts  *httptest.Server
}

func newReloadFixture(t *testing.T, mutate func(*Config)) *reloadFixture {
	t.Helper()
	rf := &reloadFixture{overrides: make(map[string]int64)}
	cfg := Config{Tenants: []TenantConfig{{Name: DefaultTenant, Loader: rf.loadEnv}}, Workers: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.retryMin, srv.retryMax = 5*time.Millisecond, 20*time.Millisecond
	t.Cleanup(srv.Close)
	rf.srv = srv
	rf.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(rf.ts.Close)
	return rf
}

func (rf *reloadFixture) loadEnv() (*Environment, error) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		return nil, err
	}
	rf.mu.Lock()
	for name, rows := range rf.overrides {
		if err := star.SetTableRows(name, rows); err != nil {
			rf.mu.Unlock()
			return nil, err
		}
	}
	rf.mu.Unlock()
	queries, err := star.Queries(42)
	if err != nil {
		return nil, err
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			return nil, err
		}
	}
	return &Environment{
		Catalog:  star.Catalog,
		Stats:    star.Stats,
		Queries:  queries,
		Analyses: analyses,
	}, nil
}

func (rf *reloadFixture) setRows(t *testing.T, table string, rows int64) {
	t.Helper()
	rf.mu.Lock()
	rf.overrides[table] = rows
	rf.mu.Unlock()
}

// load performs the initial synchronous load and fails the test on error.
func (rf *reloadFixture) load(t *testing.T) ReloadOutcome {
	t.Helper()
	out, err := rf.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// do issues one request and returns the raw status and body, so callers
// can compare served bytes exactly.
func (rf *reloadFixture) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, rf.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// whatIfProbe is the fixed request every reload test prices: repeated
// answers must be byte-identical across snapshot swaps that did not move
// the referenced statistics.
var whatIfProbe = WhatIfRequest{Indexes: []IndexSpec{
	{Table: "fact", Columns: []string{"a1", "m1"}},
	{Table: "dim1_1", Columns: []string{"a1"}},
}}

// starQueries regenerates the served workload deterministically so tests
// can inspect which tables each query references.
func starQueries(t *testing.T) []*query.Query {
	t.Helper()
	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	return queries
}

// splitTable returns a dimension referenced by some but not all of the
// workload's queries, so drifting its statistics forces a genuinely
// incremental reload.
func splitTable(t *testing.T, queries []*query.Query) string {
	t.Helper()
	refs := make(map[string]int)
	for _, q := range queries {
		seen := make(map[string]bool)
		for _, rel := range q.Rels {
			seen[rel.Table.Name] = true
		}
		for name := range seen {
			refs[name]++
		}
	}
	names := make([]string, 0, len(refs))
	for name, n := range refs {
		if name != "fact" && n > 0 && n < len(queries) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no partially-referenced dimension in the workload")
	}
	sort.Strings(names)
	return names[0]
}

// TestReloadUnderTraffic is the tentpole drill: force full rebuilds while
// concurrent clients hammer /whatif, and require every single response —
// before, during and after each swap — to be byte-identical to the
// baseline, since the statistics never moved. Run under -race this also
// proves the swap publishes without data races.
func TestReloadUnderTraffic(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	code, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("baseline /whatif: %d %s", code, baseline)
	}

	const clients = 8
	const reloads = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
				if code != http.StatusOK || !bytes.Equal(body, baseline) {
					select {
					case errCh <- string(body):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < reloads; i++ {
		out, err := rf.srv.ReloadTenant("", true)
		if err != nil {
			t.Errorf("reload %d: %v", i, err)
		} else if out.Result != "swapped" {
			t.Errorf("reload %d: result %q, want swapped", i, out.Result)
		}
	}
	close(done)
	wg.Wait()
	select {
	case body := <-errCh:
		t.Fatalf("served response diverged from baseline during reloads:\n%s", body)
	default:
	}
	// The initial load published onto a cold tenant: a cold load, not a
	// completed reload.
	if got := rf.srv.defaultTenant().reloadsOK.Value(); got != reloads {
		t.Fatalf("completed reloads = %d, want %d", got, reloads)
	}
	if got := rf.srv.defaultTenant().coldLoads.Value(); got != 1 {
		t.Fatalf("cold loads = %d, want 1", got)
	}
}

// TestReloadSkipsWhenUnchanged pins the no-op path: same statistics, same
// workload → the reload is skipped and the live set (and its
// fingerprint) stays.
func TestReloadSkipsWhenUnchanged(t *testing.T) {
	rf := newReloadFixture(t, nil)
	first := rf.load(t)
	out, err := rf.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != "skipped" {
		t.Fatalf("unchanged reload: result %q, want skipped", out.Result)
	}
	if out.Fingerprint != first.Fingerprint {
		t.Fatalf("skip changed fingerprint: %s -> %s", first.Fingerprint, out.Fingerprint)
	}
	if got := rf.srv.defaultTenant().reloadsSkipped.Value(); got != 1 {
		t.Fatalf("skipped counter = %d, want 1", got)
	}
}

// TestReloadPicksUpStatsDrift drifts one dimension's statistics and
// requires the reload to swap a new fingerprint, re-optimize only the
// queries that reference the dimension, and keep every other query's
// costs bit-identical.
func TestReloadPicksUpStatsDrift(t *testing.T) {
	rf := newReloadFixture(t, nil)
	first := rf.load(t)
	queries := starQueries(t)
	dim := splitTable(t, queries)

	var before WhatIfResponse
	code, beforeBody := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("/whatif: %d %s", code, beforeBody)
	}
	if err := json.Unmarshal(beforeBody, &before); err != nil {
		t.Fatal(err)
	}

	rf.setRows(t, dim, 1_234_567)
	out, err := rf.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != "swapped" {
		t.Fatalf("drift reload: result %q, want swapped", out.Result)
	}
	if out.Fingerprint == first.Fingerprint {
		t.Fatal("statistics drift did not move the fingerprint")
	}
	if out.SnapshotSource != sourceIncremental {
		t.Fatalf("snapshot source %q, want %q", out.SnapshotSource, sourceIncremental)
	}
	if out.QueriesReused == 0 || out.QueriesRebuilt == 0 {
		t.Fatalf("reused=%d rebuilt=%d, want both nonzero", out.QueriesReused, out.QueriesRebuilt)
	}
	if out.QueriesReused+out.QueriesRebuilt != len(queries) {
		t.Fatalf("reused+rebuilt = %d, want %d", out.QueriesReused+out.QueriesRebuilt, len(queries))
	}

	var after WhatIfResponse
	code, afterBody := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("/whatif after reload: %d %s", code, afterBody)
	}
	if err := json.Unmarshal(afterBody, &after); err != nil {
		t.Fatal(err)
	}
	touches := func(q *query.Query) bool {
		for _, rel := range q.Rels {
			if rel.Table.Name == dim {
				return true
			}
		}
		return false
	}
	for i, q := range queries {
		if touches(q) {
			continue
		}
		if before.Queries[i].Cost != after.Queries[i].Cost || before.Queries[i].Base != after.Queries[i].Base {
			t.Errorf("query %s does not reference %s but its cost moved: %v -> %v",
				q.Name, dim, before.Queries[i], after.Queries[i])
		}
	}
}

// TestReloadFailureKeepsServing pins degraded mode: a failing rebuild
// leaves the old set answering byte-identically, surfaces the error in
// /healthz, and the first healthy reload clears it.
func TestReloadFailureKeepsServing(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	t.Cleanup(faultpoint.Reset)
	_, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)

	if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
		t.Fatal(err)
	}
	code, body := rf.do(t, http.MethodPost, "/reload?wait=1&force=1", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("failing reload returned %d %s, want 500", code, body)
	}

	code, body = rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK || !bytes.Equal(body, baseline) {
		t.Fatalf("degraded server changed its answers: %d %s", code, body)
	}
	code, body = rf.do(t, http.MethodGet, "/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz while degraded: %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" {
		t.Fatalf("health status %v, want degraded", health["status"])
	}
	if msg, _ := health["last_reload_error"].(string); !strings.Contains(msg, "injected failure") {
		t.Fatalf("last_reload_error = %q, want the injected fault", msg)
	}
	if code, _ = rf.do(t, http.MethodGet, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz while degraded (non-strict): %d, want 200", code)
	}

	faultpoint.Clear("serve.rebuild")
	out, err := rf.srv.ReloadTenant("", true)
	if err != nil || out.Result != "swapped" {
		t.Fatalf("healed reload: %+v, %v", out, err)
	}
	code, body = rf.do(t, http.MethodGet, "/healthz", nil)
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("health after heal: %d %v", code, health["status"])
	}
}

// TestReloadRejectsForeignCatalog: a loader that binds its queries against
// one catalog and returns another fails the load like any loader error —
// the previous set keeps serving, byte for byte, and the next good load
// heals the tenant.
func TestReloadRejectsForeignCatalog(t *testing.T) {
	var foreign atomic.Bool
	var rf *reloadFixture
	rf = newReloadFixture(t, func(cfg *Config) {
		cfg.Tenants[0].Loader = func() (*Environment, error) {
			env, err := rf.loadEnv()
			if err != nil || !foreign.Load() {
				return env, err
			}
			other, err := workload.StarSchema(1.0)
			if err != nil {
				return nil, err
			}
			env.Catalog = other.Catalog // same names, other descriptors
			return env, nil
		}
	})
	rf.load(t)
	_, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)

	foreign.Store(true)
	if _, err := rf.srv.ReloadTenant("", true); err == nil || !strings.Contains(err.Error(), "not the environment catalog's") {
		t.Fatalf("reload over a foreign catalog returned %v, want the validation error", err)
	}
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK || !bytes.Equal(body, baseline) {
		t.Fatalf("rejected load changed the served answers: %d %s", code, body)
	}
	if _, ez := rf.do(t, http.MethodGet, "/eventz", nil); !bytes.Contains(ez, []byte(`"reload-failed"`)) ||
		!bytes.Contains(ez, []byte("not the environment catalog's")) {
		t.Fatalf("no reload-failed event names the rejected environment: %s", ez)
	}

	foreign.Store(false)
	if out, err := rf.srv.ReloadTenant("", true); err != nil || out.Result != "swapped" {
		t.Fatalf("reload after heal: %+v, %v", out, err)
	}
}

// TestFailedReloadRetriesAutomatically drills the backoff loop: the
// fault heals after two hits and the retry timer must converge back to a
// healthy server without any further trigger.
func TestFailedReloadRetriesAutomatically(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Set("serve.rebuild", "error:2"); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.srv.ReloadTenant("", true); err == nil {
		t.Fatal("first reload should fail")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rf.srv.defaultTenant().degraded.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never recovered via retry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hits := faultpoint.Count("serve.rebuild"); hits < 3 {
		t.Fatalf("rebuild attempted %d times, want >= 3 (two failures + recovery)", hits)
	}
}

// TestReloadPanicContained pins the worst rebuild failure: a panic in
// the loader/rebuild path becomes a counted reload error, not a crash.
func TestReloadPanicContained(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	t.Cleanup(faultpoint.Reset)
	_, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)

	if err := faultpoint.Set("serve.rebuild", "panic"); err != nil {
		t.Fatal(err)
	}
	_, err := rf.srv.ReloadTenant("", true)
	if err == nil || !strings.Contains(err.Error(), "panic during snapshot rebuild") {
		t.Fatalf("panicking reload returned %v, want contained panic error", err)
	}
	if got := rf.srv.panics.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK || !bytes.Equal(body, baseline) {
		t.Fatalf("server unusable after contained panic: %d", code)
	}
	faultpoint.Clear("serve.rebuild")
	if out, err := rf.srv.ReloadTenant("", true); err != nil || out.Result != "swapped" {
		t.Fatalf("reload after heal: %+v, %v", out, err)
	}
}

// TestReloadSurvivesCorruptSnapshot covers the snapshot-file corruption
// taxonomy during reload: a stale fingerprint and an arbitrarily
// truncated or garbage file are each silently bypassed — the reload
// rebuilds from the optimizer, serving never stops, and the rewritten
// snapshot is loadable again.
func TestReloadSurvivesCorruptSnapshot(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "star.pcache")
	rf := newReloadFixture(t, func(cfg *Config) { cfg.Tenants[0].SnapshotPath = snapPath })
	first := rf.load(t)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("first load did not persist a snapshot: %v", err)
	}

	// Stale fingerprint: the on-disk snapshot is valid but belongs to the
	// old statistics; the reload must reject it and rebuild.
	queries := starQueries(t)
	rf.setRows(t, splitTable(t, queries), 777_777)
	out, err := rf.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != "swapped" || out.SnapshotSource == sourceDisk {
		t.Fatalf("stale-snapshot reload: %+v, want a rebuild", out)
	}
	if out.Fingerprint == first.Fingerprint {
		t.Fatal("fingerprint did not move with the statistics")
	}

	// Garbage file: corrupt the freshly saved snapshot, drift again, and
	// the reload must fall back to rebuilding rather than fail.
	if err := os.WriteFile(snapPath, []byte("PINUMPC\x02 definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	rf.setRows(t, splitTable(t, queries), 888_888)
	out, err = rf.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != "swapped" || out.SnapshotSource == sourceDisk {
		t.Fatalf("corrupt-snapshot reload: %+v, want a rebuild", out)
	}
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("/whatif after corrupt-snapshot reload: %d %s", code, body)
	}

	// The reload rewrote the snapshot; a fresh server must load it from
	// disk without touching the optimizer.
	rf2 := newReloadFixture(t, func(cfg *Config) { cfg.Tenants[0].SnapshotPath = snapPath })
	rf2.setRows(t, splitTable(t, queries), 888_888)
	out2, err := rf2.srv.ReloadTenant("", false)
	if err != nil {
		t.Fatal(err)
	}
	if out2.SnapshotSource != sourceDisk {
		t.Fatalf("fresh server loaded from %q, want %q", out2.SnapshotSource, sourceDisk)
	}
	if out2.Fingerprint != out.Fingerprint {
		t.Fatalf("disk snapshot fingerprint %s, want %s", out2.Fingerprint, out.Fingerprint)
	}
}

// TestReadinessGating pins the liveness/readiness split on a roster of
// one, under the default name and under another: before the first load
// the process is alive (/healthz 200 with the tenant's detail, status
// "cold") but not ready (/readyz 503). The first compute request
// cold-loads the tenant, answers the bytes an explicitly loaded server
// answers, and makes the server ready. With StrictHealth a degraded
// tenant also fails readiness, and the refusal names it.
func TestReadinessGating(t *testing.T) {
	loaded := newReloadFixture(t, nil)
	loaded.load(t)
	_, want := loaded.do(t, http.MethodPost, "/whatif", whatIfProbe)
	for _, name := range []string{DefaultTenant, "acme"} {
		t.Run(name, func(t *testing.T) {
			rf := newReloadFixture(t, func(cfg *Config) {
				cfg.StrictHealth = true
				cfg.Tenants[0].Name = name
			})
			code, body := rf.do(t, http.MethodGet, "/healthz", nil)
			var health map[string]any
			if err := json.Unmarshal(body, &health); err != nil {
				t.Fatal(err)
			}
			if code != http.StatusOK || health["status"] != "cold" || health["tenant"] != name {
				t.Fatalf("pre-load /healthz: %d %s, want 200 with tenant %s's cold detail", code, body, name)
			}
			if code, _ = rf.do(t, http.MethodGet, "/readyz", nil); code != http.StatusServiceUnavailable {
				t.Fatalf("pre-load /readyz: %d, want 503", code)
			}

			if code, body = rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("pre-load /whatif: %d %s, want 200 and a loaded server's answer\n%s", code, body, want)
			}
			if got := metricValue(t, scrape(t, rf.ts.URL), `pinum_tenant_cold_loads_total{tenant="`+name+`"}`); got != 1 {
				t.Fatalf("cold loads after the first /whatif: %v, want 1", got)
			}
			if code, _ = rf.do(t, http.MethodGet, "/readyz", nil); code != http.StatusOK {
				t.Fatalf("post-load /readyz: %d, want 200", code)
			}

			t.Cleanup(faultpoint.Reset)
			if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
				t.Fatal(err)
			}
			if code, _ = rf.do(t, http.MethodPost, "/reload?wait=1&force=1", nil); code != http.StatusInternalServerError {
				t.Fatalf("failing reload: %d, want 500", code)
			}
			if code, body = rf.do(t, http.MethodGet, "/readyz", nil); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("tenant "+name)) {
				t.Fatalf("degraded strict /readyz: %d %s, want 503 naming tenant %s", code, body, name)
			}
			faultpoint.Clear("serve.rebuild")
			if _, err := rf.srv.ReloadTenant("", true); err != nil {
				t.Fatal(err)
			}
			if code, _ = rf.do(t, http.MethodGet, "/readyz", nil); code != http.StatusOK {
				t.Fatalf("healed strict /readyz: %d, want 200", code)
			}
		})
	}
}

// TestAdmissionControl pins the 429 wall: with the single in-flight slot
// occupied, a compute request is refused immediately and counted, and
// health endpoints stay reachable.
func TestAdmissionControl(t *testing.T) {
	rf := newReloadFixture(t, func(cfg *Config) { cfg.MaxInFlight = 1 })
	rf.load(t)

	def := rf.srv.defaultTenant()
	def.inflight <- struct{}{} // occupy the only slot
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated /whatif: %d %s, want 429", code, body)
	}
	if code, _ = rf.do(t, http.MethodGet, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("saturated /healthz: %d, want 200 (health is exempt)", code)
	}
	<-def.inflight
	if code, _ = rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK {
		t.Fatalf("/whatif after release: %d, want 200", code)
	}
	if got := def.rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestRequestDeadline pins deadline enforcement end to end: an already
// expired per-request deadline stops the evaluation fan-out and surfaces
// as 504, not as a wrong answer.
func TestRequestDeadline(t *testing.T) {
	rf := newReloadFixture(t, func(cfg *Config) { cfg.RequestTimeout = time.Nanosecond })
	rf.load(t)
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline /whatif: %d %s, want 504", code, body)
	}
	if !strings.Contains(string(body), "request abandoned") {
		t.Fatalf("timeout error body %s, want the abandoned-request message", body)
	}
}

// TestReloadWorkerPanicContained pins containment across the fan-out: the
// rebuild's BuildSlim calls run on core.Fan's goroutines, and a panic
// there — nil analyses past the first, so the helpers hit one while the
// caller is still optimizing — must reach buildSetContained's recover
// like any other: a counted, failed reload with the old set serving.
func TestReloadWorkerPanicContained(t *testing.T) {
	var broken atomic.Bool
	var rf *reloadFixture
	rf = newReloadFixture(t, func(cfg *Config) {
		cfg.Tenants[0].Loader = func() (*Environment, error) {
			env, err := rf.loadEnv()
			if err == nil && broken.Load() {
				for i := 1; i < len(env.Analyses); i++ {
					env.Analyses[i] = nil
				}
			}
			return env, err
		}
	})
	rf.load(t)
	_, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)

	broken.Store(true)
	_, err := rf.srv.ReloadTenant("", true)
	if err == nil || !strings.Contains(err.Error(), "panic during snapshot rebuild") {
		t.Fatalf("reload with a panicking rebuild worker returned %v, want contained panic error", err)
	}
	if got := rf.srv.panics.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK || !bytes.Equal(body, baseline) {
		t.Fatalf("old set not serving after the contained worker panic: %d", code)
	}
	broken.Store(false)
	if out, err := rf.srv.ReloadTenant("", true); err != nil || out.Result != "swapped" {
		t.Fatalf("reload after heal: %+v, %v", out, err)
	}
}

// TestHandlerPanicIsContained pins the recovery middleware: a panicking
// handler is a counted 500 and the server keeps serving.
func TestHandlerPanicIsContained(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	rf.srv.mux.HandleFunc("/boom", rf.srv.instrument("/boom", http.MethodGet,
		func(*http.Request) (any, error) { panic("kaboom") }))

	code, body := rf.do(t, http.MethodGet, "/boom", nil)
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "internal panic") {
		t.Fatalf("panicking handler: %d %s, want 500 with panic message", code, body)
	}
	if got := rf.srv.panics.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if code, _ = rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK {
		t.Fatalf("/whatif after handler panic: %d, want 200", code)
	}
}

// TestReloadPersistsLoadableSnapshot pins the save-after-swap contract:
// the written file matches the new fingerprint exactly (plancache.Load
// verifies the checksum and fingerprint).
func TestReloadPersistsLoadableSnapshot(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "star.pcache")
	rf := newReloadFixture(t, func(cfg *Config) { cfg.Tenants[0].SnapshotPath = snapPath })
	out := rf.load(t)
	fp, err := strconv.ParseUint(out.Fingerprint, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := plancache.Load(snapPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Queries) == 0 {
		t.Fatal("persisted snapshot holds no queries")
	}
}
