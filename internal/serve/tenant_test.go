package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/workload"
)

// starEnv derives one tenant's environment: the star schema with the
// given row-count overrides, and the workload generated from seed —
// distinct seeds give tenants genuinely different workloads over the
// same schema.
func starEnv(seed int64, overrides map[string]int64) (*Environment, error) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		return nil, err
	}
	for name, rows := range overrides {
		if err := star.SetTableRows(name, rows); err != nil {
			return nil, err
		}
	}
	queries, err := star.Queries(seed)
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

// mtFixture is a server over a roster of N star workloads (one seed
// each), with per-tenant drift injection and a shared snapshot store.
type mtFixture struct {
	mu        sync.Mutex
	seeds     map[string]int64
	overrides map[string]map[string]int64

	srv *Server
	ts  *httptest.Server
}

func newMTFixture(t *testing.T, seeds map[string]int64, order []string, resident int, mutate func(*Config)) *mtFixture {
	t.Helper()
	f := &mtFixture{seeds: seeds, overrides: make(map[string]map[string]int64)}
	store, err := plancache.NewStore(filepath.Join(t.TempDir(), "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:     4,
		MaxResident: resident,
	}
	for _, name := range order {
		name := name
		path, err := store.Path(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tenants = append(cfg.Tenants, TenantConfig{
			Name:         name,
			Loader:       func() (*Environment, error) { return f.loadEnv(name) },
			SnapshotPath: path,
		})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.retryMin, srv.retryMax = 5*time.Millisecond, 20*time.Millisecond
	t.Cleanup(srv.Close)
	f.srv = srv
	f.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func (f *mtFixture) loadEnv(tenant string) (*Environment, error) {
	f.mu.Lock()
	seed := f.seeds[tenant]
	overrides := make(map[string]int64, len(f.overrides[tenant]))
	for k, v := range f.overrides[tenant] {
		overrides[k] = v
	}
	f.mu.Unlock()
	return starEnv(seed, overrides)
}

func (f *mtFixture) setRows(tenant, table string, rows int64) {
	f.mu.Lock()
	if f.overrides[tenant] == nil {
		f.overrides[tenant] = make(map[string]int64)
	}
	f.overrides[tenant][table] = rows
	f.mu.Unlock()
}

// do issues one request, routing by the X-Pinum-Tenant header when
// tenant is non-empty, and returns raw status and body for byte
// comparisons.
func (f *mtFixture) do(t *testing.T, method, path, tenant string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
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

// metricValue returns the value of one series — its name and label set as
// rendered — in a /metrics body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("/metrics series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// tenantCounters is one tenant's residency, admission and reload series.
type tenantCounters struct {
	Resident                                                bool
	Requests, Rejected, ColdLoads, Evictions, ReloadsFailed int64
}

// tenantCounters scrapes /metrics for one tenant's series.
func (f *mtFixture) tenantCounters(t *testing.T, tenant string) tenantCounters {
	t.Helper()
	body := scrape(t, f.ts.URL)
	of := func(name string) int64 {
		return int64(metricValue(t, body, fmt.Sprintf(`%s{tenant=%q}`, name, tenant)))
	}
	return tenantCounters{
		Resident:      of("pinum_tenant_resident") == 1,
		Requests:      of("pinum_tenant_requests_total"),
		Rejected:      of("pinum_tenant_rejected_total"),
		ColdLoads:     of("pinum_tenant_cold_loads_total"),
		Evictions:     of("pinum_tenant_evictions_total"),
		ReloadsFailed: int64(metricValue(t, body, fmt.Sprintf(`pinum_tenant_reloads_total{result="failed",tenant=%q}`, tenant))),
	}
}

// tenantHealth is the part of /healthz?tenant= the tests read: the status
// word and, while a set is live, its fingerprint and where it came from.
type tenantHealth struct {
	Status         string `json:"status"`
	Fingerprint    string `json:"fingerprint"`
	SnapshotSource string `json:"snapshot_source"`
}

func (f *mtFixture) tenantHealth(t *testing.T, tenant string) tenantHealth {
	t.Helper()
	code, body := f.do(t, http.MethodGet, "/healthz?tenant="+tenant, "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz?tenant=%s: %d %s", tenant, code, body)
	}
	var out tenantHealth
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// dedicatedServer boots a one-tenant roster for one seed —
// the ground truth an N-tenant fixture's responses are byte-compared
// against.
func dedicatedServer(t *testing.T, seed int64) *httptest.Server {
	t.Helper()
	srv, err := New(Config{
		Tenants: []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) { return starEnv(seed, nil) }}},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.ReloadTenant("", false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postBytes(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

var mtSeeds = map[string]int64{"acme": 42, "globex": 43, "initech": 44}
var mtOrder = []string{"acme", "globex", "initech"}

// TestTenantRouting pins the routing contract: body field and header
// each route; agreeing duplicates pass; conflicts are 400; unknown
// tenants are 404; unrouted requests hit the first configured tenant.
func TestTenantRouting(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, nil)

	body := []byte(`{"tenant":"globex","indexes":[]}`)
	if code, resp := f.do(t, http.MethodPost, "/whatif", "", body); code != http.StatusOK {
		t.Fatalf("body-routed /whatif: %d %s", code, resp)
	}
	if code, resp := f.do(t, http.MethodPost, "/whatif", "acme", []byte(`{"indexes":[]}`)); code != http.StatusOK {
		t.Fatalf("header-routed /whatif: %d %s", code, resp)
	}
	if code, resp := f.do(t, http.MethodPost, "/whatif", "globex", body); code != http.StatusOK {
		t.Fatalf("agreeing header+body /whatif: %d %s", code, resp)
	}
	code, resp := f.do(t, http.MethodPost, "/whatif", "acme", body)
	if code != http.StatusBadRequest || !bytes.Contains(resp, []byte("disagrees")) {
		t.Fatalf("conflicting header+body: %d %s, want 400 naming the conflict", code, resp)
	}
	code, resp = f.do(t, http.MethodPost, "/whatif", "hooli", []byte(`{"indexes":[]}`))
	if code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d %s, want 404", code, resp)
	}

	// Unrouted requests hit the first configured tenant (acme): its
	// answer must match an explicitly routed one byte for byte.
	_, unrouted := f.do(t, http.MethodPost, "/whatif", "", []byte(`{"indexes":[]}`))
	_, routed := f.do(t, http.MethodPost, "/whatif", "acme", []byte(`{"indexes":[]}`))
	if !bytes.Equal(unrouted, routed) {
		t.Fatalf("unrouted response differs from the default tenant's:\n%s\nvs\n%s", unrouted, routed)
	}
}

// TestTenantLRUEviction pins the residency machinery: with cap 2, a
// third tenant's load evicts the least-recently-used one; the evicted
// tenant cold-loads from its saved snapshot on the next request; LRU
// order follows request recency, not configuration order.
func TestTenantLRUEviction(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 2, nil)
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)

	for _, name := range []string{"acme", "globex"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s warm-up: %d %s", name, code, body)
		}
	}
	if got := f.srv.residentCount(); got != 2 {
		t.Fatalf("resident after two loads = %d, want 2", got)
	}

	// Loading initech exceeds the cap; acme (least recently used) goes.
	if code, body := f.do(t, http.MethodPost, "/whatif", "initech", probe); code != http.StatusOK {
		t.Fatalf("initech load: %d %s", code, body)
	}
	if got := f.srv.residentCount(); got != 2 {
		t.Fatalf("resident after eviction = %d, want 2", got)
	}
	if st := f.tenantCounters(t, "acme"); st.Resident || st.Evictions != 1 {
		t.Fatalf("acme after initech load: resident=%v evictions=%d, want evicted once", st.Resident, st.Evictions)
	}

	// Re-requesting acme cold-loads it from its saved snapshot — no
	// optimizer rebuild — and evicts globex (LRU: globex < initech).
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusOK {
		t.Fatalf("acme reload: %d %s", code, body)
	}
	st, source := f.tenantCounters(t, "acme"), f.tenantHealth(t, "acme").SnapshotSource
	if !st.Resident || st.ColdLoads != 2 || source != sourceDisk {
		t.Fatalf("acme after re-request: resident=%v coldLoads=%d source=%q, want a disk-snapshot cold load",
			st.Resident, st.ColdLoads, source)
	}
	if st := f.tenantCounters(t, "globex"); st.Resident || st.Evictions != 1 {
		t.Fatalf("globex after acme re-request: resident=%v evictions=%d, want evicted", st.Resident, st.Evictions)
	}
	if st := f.tenantCounters(t, "initech"); !st.Resident {
		t.Fatal("initech (recently used) was evicted, want resident")
	}
}

// TestMultiTenantByteIdentity is the acceptance drill: one process with
// tenant cap 2 serves 3 tenants' /whatif, /recommend and /explain
// byte-identically to three dedicated single-tenant servers, under
// concurrent mixed traffic whose third tenant forces evictions the whole
// time. Run under -race this also proves the evict/load/serve
// interleavings clean.
func TestMultiTenantByteIdentity(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 2, nil)

	whatIfBody := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]},{"table":"dim1_1","columns":["a1"]}]}`)
	recommendBody := []byte(`{"budget_gb":5}`)
	explainBody := []byte(`{"sql":"SELECT fact.m1 FROM fact, dim1_1 WHERE fact.fk_dim1_1 = dim1_1.id ORDER BY dim1_1.a1"}`)

	// Ground truth from three dedicated processes' worth of servers.
	wantWhatIf := make(map[string][]byte)
	wantRecommend := make(map[string][]byte)
	wantExplain := make(map[string][]byte)
	for name, seed := range mtSeeds {
		ts := dedicatedServer(t, seed)
		code, body := postBytes(t, ts.URL+"/whatif", whatIfBody)
		if code != http.StatusOK {
			t.Fatalf("dedicated %s /whatif: %d %s", name, code, body)
		}
		wantWhatIf[name] = body
		code, body = postBytes(t, ts.URL+"/recommend", recommendBody)
		if code != http.StatusOK {
			t.Fatalf("dedicated %s /recommend: %d %s", name, code, body)
		}
		wantRecommend[name] = body
		code, body = postBytes(t, ts.URL+"/explain", explainBody)
		if code != http.StatusOK {
			t.Fatalf("dedicated %s /explain: %d %s", name, code, body)
		}
		wantExplain[name] = body
	}

	// Distinct seeds must give distinct workloads, or identity across
	// tenants proves nothing.
	if bytes.Equal(wantWhatIf["acme"], wantWhatIf["globex"]) {
		t.Fatal("tenant workloads are not distinct; the byte-identity check is vacuous")
	}

	// Concurrent mixed traffic: every tenant hammered at once with cap 2
	// over 3 tenants, so evictions and cold loads interleave with serving
	// for the whole run.
	const perTenant = 3
	const iters = 12
	var wg sync.WaitGroup
	errCh := make(chan error, 3*perTenant)
	for name := range mtSeeds {
		for c := 0; c < perTenant; c++ {
			wg.Add(1)
			go func(name string, c int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					code, body := f.do(t, http.MethodPost, "/whatif", name, whatIfBody)
					if code != http.StatusOK || !bytes.Equal(body, wantWhatIf[name]) {
						select {
						case errCh <- fmt.Errorf("tenant %s /whatif diverged (code %d):\n%s", name, code, body):
						default:
						}
						return
					}
					if c == 0 && i%4 == 3 {
						code, body := f.do(t, http.MethodPost, "/explain", name, explainBody)
						if code != http.StatusOK || !bytes.Equal(body, wantExplain[name]) {
							select {
							case errCh <- fmt.Errorf("tenant %s /explain diverged (code %d):\n%s", name, code, body):
							default:
							}
							return
						}
					}
				}
			}(name, c)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// /recommend once per tenant after the storm (it is the expensive
	// endpoint; one byte-identical run per tenant proves the contract).
	for name := range mtSeeds {
		code, body := f.do(t, http.MethodPost, "/recommend", name, recommendBody)
		if code != http.StatusOK || !bytes.Equal(body, wantRecommend[name]) {
			t.Fatalf("tenant %s /recommend diverged (code %d):\n%s", name, code, body)
		}
	}

	// The storm must actually have exercised the residency machinery.
	var evictions, coldLoads int64
	for name := range mtSeeds {
		st := f.tenantCounters(t, name)
		evictions += st.Evictions
		coldLoads += st.ColdLoads
	}
	if evictions == 0 || coldLoads <= 3 {
		t.Fatalf("evictions=%d coldLoads=%d: the run never exercised evict/reload interleavings", evictions, coldLoads)
	}
	if got := f.srv.residentCount(); got > 2 {
		t.Fatalf("resident tenants = %d, want <= cap 2", got)
	}
}

// TestTenantColdLoadFailureIsolated pins failure isolation: a
// faultpoint-forced cold-load failure 503s that tenant's request,
// schedules nothing in the background, and leaves every other tenant
// serving; the next request retries and succeeds once the fault clears.
func TestTenantColdLoadFailureIsolated(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, nil)
	t.Cleanup(faultpoint.Reset)
	probe := []byte(`{"indexes":[]}`)

	for _, name := range []string{"acme", "globex"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s warm-up: %d %s", name, code, body)
		}
	}
	_, wantAcme := f.do(t, http.MethodPost, "/whatif", "acme", probe)

	if err := faultpoint.Set("serve.tenant.load", "error"); err != nil {
		t.Fatal(err)
	}
	code, body := f.do(t, http.MethodPost, "/whatif", "initech", probe)
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("snapshot load failed")) {
		t.Fatalf("cold load under fault: %d %s, want 503", code, body)
	}
	if st := f.tenantCounters(t, "initech"); st.Resident || st.ReloadsFailed == 0 {
		t.Fatalf("initech after failed load: resident=%v failed=%d", st.Resident, st.ReloadsFailed)
	}

	// Resident tenants are untouched — same bytes, no degradation.
	code, body = f.do(t, http.MethodPost, "/whatif", "acme", probe)
	if code != http.StatusOK || !bytes.Equal(body, wantAcme) {
		t.Fatalf("acme while initech failing: %d, answer changed", code)
	}
	if st := f.tenantHealth(t, "acme"); st.Status != "ok" {
		t.Fatalf("acme status %q while initech failing, want ok", st.Status)
	}

	// No background retry resurrects the tenant; the next request is the
	// retry, and it heals once the fault clears.
	faultpoint.Clear("serve.tenant.load")
	if code, body := f.do(t, http.MethodPost, "/whatif", "initech", probe); code != http.StatusOK {
		t.Fatalf("initech after fault cleared: %d %s", code, body)
	}
}

// TestTenantAdmissionIndependent pins per-tenant admission: saturating
// one tenant's in-flight cap 429s that tenant only, and the rejection is
// counted against it alone.
func TestTenantAdmissionIndependent(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, func(cfg *Config) {
		for i := range cfg.Tenants {
			if cfg.Tenants[i].Name == "acme" {
				cfg.Tenants[i].MaxInFlight = 1
			}
		}
	})
	probe := []byte(`{"indexes":[]}`)

	acme, err := f.srv.tenantByName("acme")
	if err != nil {
		t.Fatal(err)
	}
	acme.inflight <- struct{}{} // occupy acme's only slot
	code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe)
	if code != http.StatusTooManyRequests || !bytes.Contains(body, []byte(`tenant \"acme\"`)) {
		t.Fatalf("saturated acme: %d %s, want tenant-scoped 429", code, body)
	}
	if code, body := f.do(t, http.MethodPost, "/whatif", "globex", probe); code != http.StatusOK {
		t.Fatalf("globex while acme saturated: %d %s, want 200", code, body)
	}
	<-acme.inflight
	if code, _ := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusOK {
		t.Fatalf("acme after release: %d, want 200", code)
	}
	if st := f.tenantCounters(t, "acme"); st.Rejected != 1 {
		t.Fatalf("acme rejected = %d, want 1", st.Rejected)
	}
	if st := f.tenantCounters(t, "globex"); st.Rejected != 0 {
		t.Fatalf("globex rejected = %d, want 0", st.Rejected)
	}
}

// TestTenantReloadDrift pins per-tenant reloads: drifting one tenant's
// statistics and reloading it via /reload?tenant= moves only that
// tenant's fingerprint; the other tenant's answers stay byte-identical.
func TestTenantReloadDrift(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, nil)
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)

	for _, name := range []string{"acme", "globex"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s warm-up: %d %s", name, code, body)
		}
	}
	fpBefore := f.tenantHealth(t, "acme").Fingerprint
	_, wantGlobex := f.do(t, http.MethodPost, "/whatif", "globex", probe)

	f.setRows("acme", "dim2_7", 4_242_424)
	code, body := f.do(t, http.MethodPost, "/reload?tenant=acme&wait=1", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/reload?tenant=acme: %d %s", code, body)
	}
	var out ReloadOutcome
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "acme" || out.Result != "swapped" {
		t.Fatalf("reload outcome %+v, want acme swapped", out)
	}
	if out.Fingerprint == fpBefore {
		t.Fatal("acme's fingerprint did not move with its statistics")
	}
	if got := f.tenantHealth(t, "globex").Fingerprint; got != f.tenantHealth(t, "globex").Fingerprint || got == out.Fingerprint {
		t.Fatalf("globex fingerprint %s moved with acme's reload", got)
	}
	code, body = f.do(t, http.MethodPost, "/whatif", "globex", probe)
	if code != http.StatusOK || !bytes.Equal(body, wantGlobex) {
		t.Fatalf("globex answers changed after acme's reload: %d", code)
	}

	// A reload routed by header works identically.
	code, body = f.do(t, http.MethodPost, "/reload?wait=1", "globex", nil)
	if code != http.StatusOK {
		t.Fatalf("header-routed reload: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "globex" || out.Result != "skipped" {
		t.Fatalf("header-routed reload outcome %+v, want globex skipped (no drift)", out)
	}
}

// TestMultiTenantHealthAndStatz pins the observability shape of a roster
// of three: the registry overview on /healthz, per-tenant detail behind
// ?tenant=, and — where /statz had per-tenant sections — one set of
// /metrics series per tenant.
func TestMultiTenantHealthAndStatz(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 2, nil)
	probe := []byte(`{"indexes":[]}`)
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusOK {
		t.Fatalf("acme warm-up: %d %s", code, body)
	}

	code, body := f.do(t, http.MethodGet, "/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	var health struct {
		Status       string            `json:"status"`
		Tenants      int               `json:"tenants"`
		Resident     int               `json:"tenants_resident"`
		ResidentCap  int               `json:"resident_cap"`
		TenantStatus map[string]string `json:"tenant_status"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Tenants != 3 || health.Resident != 1 || health.ResidentCap != 2 {
		t.Fatalf("overview %+v, want ok/3 tenants/1 resident/cap 2", health)
	}
	if health.TenantStatus["acme"] != "ok" || health.TenantStatus["globex"] != "cold" {
		t.Fatalf("tenant_status %v, want acme ok and globex cold", health.TenantStatus)
	}

	code, body = f.do(t, http.MethodGet, "/healthz?tenant=acme", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz?tenant=acme: %d", code)
	}
	var detail map[string]any
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail["tenant"] != "acme" || detail["status"] != "ok" || detail["fingerprint"] == nil {
		t.Fatalf("tenant detail %v, want acme detail with fingerprint", detail)
	}
	if code, _ := f.do(t, http.MethodGet, "/healthz?tenant=hooli", "", nil); code != http.StatusNotFound {
		t.Fatalf("/healthz?tenant=hooli: %d, want 404", code)
	}

	if got := strings.Count(scrape(t, f.ts.URL), "\npinum_tenant_resident{"); got != 3 {
		t.Fatalf("/metrics has %d pinum_tenant_resident series, want one per tenant", got)
	}
	if st := f.tenantCounters(t, "acme"); !st.Resident || st.Requests == 0 {
		t.Fatalf("acme series %+v, want resident with requests", st)
	}
	if st, status := f.tenantCounters(t, "initech"), f.tenantHealth(t, "initech").Status; st.Resident || status != "cold" {
		t.Fatalf("initech series %+v status %q, want cold", st, status)
	}
}

// TestFailedColdLoadIsNotAColdLoad pins the conservation identity the
// benchmark checks at round end: cold loads − evictions is the number of
// resident tenants, whatever failed on the way. A load that does not
// publish is a failed reload, not a cold load.
func TestFailedColdLoadIsNotAColdLoad(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, nil)
	t.Cleanup(faultpoint.Reset)
	probe := []byte(`{"indexes":[]}`)
	conserved := func(when string) {
		t.Helper()
		for _, name := range mtOrder {
			st := f.tenantCounters(t, name)
			resident := int64(0)
			if st.Resident {
				resident = 1
			}
			if st.ColdLoads-st.Evictions != resident {
				t.Errorf("%s: %s has cold_loads=%d evictions=%d resident=%v", when, name, st.ColdLoads, st.Evictions, st.Resident)
			}
		}
	}

	if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
		t.Fatal(err)
	}
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusServiceUnavailable {
		t.Fatalf("cold load under serve.rebuild=error: %d %s, want 503", code, body)
	}
	if st := f.tenantCounters(t, "acme"); st.ColdLoads != 0 || st.ReloadsFailed != 1 {
		t.Fatalf("after a failed cold load: cold_loads=%d failed=%d, want 0 and 1", st.ColdLoads, st.ReloadsFailed)
	}
	conserved("after the failed load")

	faultpoint.Clear("serve.rebuild")
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusOK {
		t.Fatalf("cold load after the fault cleared: %d %s", code, body)
	}
	if st := f.tenantCounters(t, "acme"); st.ColdLoads != 1 || st.ReloadsFailed != 1 {
		t.Fatalf("after the load that published: cold_loads=%d failed=%d, want 1 and 1", st.ColdLoads, st.ReloadsFailed)
	}
	conserved("after the published load")
}
