package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// fixture is a started test server plus everything needed to recompute
// its answers independently.
type fixture struct {
	star     *workload.Star
	queries  []*query.Query
	analyses []*optimizer.Analysis
	srv      *Server
	ts       *httptest.Server
}

// newFixture boots a static server over snapshot-roundtripped caches
// (build → save → load → rebuild) on the star workload.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	star, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := star.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			t.Fatal(err)
		}
	}
	built, err := core.BuildAllSlim(analyses, star.Catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Serve the caches rebuilt from a saved snapshot, so the fixture's
	// caches took the persistence path.
	fp := plancache.Fingerprint(star.Catalog, star.Stats, optimizer.DefaultCostParams())
	snapPath := filepath.Join(t.TempDir(), "star.pcache")
	if err := plancache.Save(snapPath, plancache.NewSnapshot(fp, built)); err != nil {
		t.Fatal(err)
	}
	snap, err := plancache.Load(snapPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	caches, err := plancache.BuildCaches(snap, queries, analyses)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Catalog:  star.Catalog,
		Stats:    star.Stats,
		Queries:  queries,
		Analyses: analyses,
		Caches:   caches,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{star: star, queries: queries, analyses: analyses, srv: srv, ts: ts}
}

// defaultTenant returns the tenant unrouted requests hit.
func (s *Server) defaultTenant() *tenant { return s.tenants[s.defaultName] }

func (f *fixture) post(t *testing.T, path string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestWhatIfMatchesInProcess compares served what-if costs, bit for bit,
// against direct evaluation on independently built tree-backed caches.
func TestWhatIfMatchesInProcess(t *testing.T) {
	f := newFixture(t)
	trees, err := core.BuildAll(f.analyses, f.star.Catalog, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ws := whatif.NewSession(f.star.Catalog)
	reqs := []WhatIfRequest{
		{},
		{Indexes: []IndexSpec{{Table: "fact", Columns: []string{"a1", "m1"}}}},
		{Indexes: []IndexSpec{
			{Table: "fact", Columns: []string{"fk_dim1_1", "m1"}},
			{Table: "dim1_1", Columns: []string{"a1"}},
			{Table: "dim1_2", Columns: []string{"id", "a1"}},
		}},
	}
	for ri, req := range reqs {
		var got WhatIfResponse
		if resp := f.post(t, "/whatif", req, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", ri, resp.StatusCode)
		}
		cfg := &query.Config{}
		for _, spec := range req.Indexes {
			ix, err := ws.CreateIndex(spec.Table, spec.Columns...)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Indexes = append(cfg.Indexes, ix)
		}
		wantTotal := 0.0
		for i, c := range trees {
			want, _, err := c.Cost(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantTotal += want
			if math.Float64bits(got.Queries[i].Cost) != math.Float64bits(want) {
				t.Errorf("request %d, %s: served %v, in-process %v",
					ri, f.queries[i].Name, got.Queries[i].Cost, want)
			}
		}
		if math.Float64bits(got.Total) != math.Float64bits(wantTotal) {
			t.Errorf("request %d: served total %v, in-process %v", ri, got.Total, wantTotal)
		}
	}
}

// TestRecommendMatchesAdvisorRun compares the served recommendation with
// a plain in-process Advisor.Run over freshly built tree-backed caches.
func TestRecommendMatchesAdvisorRun(t *testing.T) {
	f := newFixture(t)
	var got RecommendResponse
	if resp := f.post(t, "/recommend", RecommendRequest{BudgetGB: 5}, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	ad := advisor.New(f.star.Catalog, f.star.Stats, storage.BytesForGB(5))
	if err := ad.AddQueries(f.queries, nil); err != nil {
		t.Fatal(err)
	}
	want, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chosen) != len(want.Chosen) {
		t.Fatalf("served %d picks, in-process %d", len(got.Chosen), len(want.Chosen))
	}
	for i := range got.Chosen {
		if got.Chosen[i] != want.Chosen[i].Key() {
			t.Errorf("pick %d: served %s, in-process %s", i, got.Chosen[i], want.Chosen[i].Key())
		}
	}
	if math.Float64bits(got.BaseCost) != math.Float64bits(want.BaseCost) ||
		math.Float64bits(got.FinalCost) != math.Float64bits(want.FinalCost) {
		t.Errorf("served base/final %v/%v, in-process %v/%v",
			got.BaseCost, got.FinalCost, want.BaseCost, want.FinalCost)
	}
	if got.TotalBytes != want.TotalBytes || got.Rounds != want.Rounds {
		t.Errorf("served bytes/rounds %d/%d, in-process %d/%d",
			got.TotalBytes, got.Rounds, want.TotalBytes, want.Rounds)
	}
}

// TestExplainDecomposition checks the explain contract: total cost equals
// internal plus the coefficient-weighted leaf costs.
func TestExplainDecomposition(t *testing.T) {
	f := newFixture(t)
	var got ExplainResponse
	req := ExplainRequest{
		SQL:     "SELECT fact.m1 FROM fact, dim1_1 WHERE fact.fk_dim1_1 = dim1_1.id ORDER BY dim1_1.a1",
		Indexes: []IndexSpec{{Table: "dim1_1", Columns: []string{"a1", "id"}}},
	}
	if resp := f.post(t, "/explain", req, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Plan == "" || len(got.Leaves) != 2 {
		t.Fatalf("unexpected explain payload: %+v", got)
	}
	sum := got.Internal
	for _, leaf := range got.Leaves {
		sum += leaf.Coef * leaf.AccessCost
	}
	if math.Abs(sum-got.Cost) > 1e-6*math.Abs(got.Cost) {
		t.Errorf("decomposition does not add up: internal+leaves=%v, cost=%v", sum, got.Cost)
	}
}

// TestConcurrentWhatIf hammers /whatif from many goroutines with distinct
// configurations and requires every answer to equal its precomputed
// expectation — under -race this also proves the shared-cache path clean.
func TestConcurrentWhatIf(t *testing.T) {
	f := newFixture(t)
	dims := []string{"dim1_1", "dim1_2", "dim1_3", "dim1_4", "dim1_5", "dim1_6", "dim1_7", "dim1_8"}
	type testCase struct {
		req  WhatIfRequest
		want WhatIfResponse
	}
	cases := make([]testCase, len(dims))
	for i, d := range dims {
		req := WhatIfRequest{Indexes: []IndexSpec{
			{Table: d, Columns: []string{"a1", "id"}},
			{Table: "fact", Columns: []string{fmt.Sprintf("fk_%s", d), "m1"}},
		}}
		want, err := f.srv.WhatIf(&req)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = testCase{req: req, want: *want}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rep := 0; rep < 8; rep++ {
		for _, tc := range cases {
			wg.Add(1)
			go func(tc testCase) {
				defer wg.Done()
				data, _ := json.Marshal(tc.req)
				resp, err := http.Post(f.ts.URL+"/whatif", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var got WhatIfResponse
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got.Total) != math.Float64bits(tc.want.Total) {
					errs <- fmt.Errorf("concurrent total %v, expected %v", got.Total, tc.want.Total)
				}
			}(tc)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRequestValidation pins the error contract: wrong method, malformed
// body, unknown fields, unknown tables and bad budgets are client errors,
// and a budget whose byte count does not fit an int64 is one naming the
// limit, not a 200 that picks nothing.
func TestRequestValidation(t *testing.T) {
	f := newFixture(t)

	resp, err := http.Get(f.ts.URL + "/whatif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /whatif: status %d, want 405", resp.StatusCode)
	}

	bad := []struct {
		path string
		body string
		want string // in the error message, when set
	}{
		{"/whatif", `{"indexes":[{"table":"nope","columns":["a1"]}]}`, ""},
		{"/whatif", `{"indexes":[{"table":"fact","columns":[]}]}`, ""},
		{"/whatif", `{"bogus":1}`, ""},
		{"/whatif", `not json`, ""},
		{"/recommend", `{"budget_gb":-1}`, ""},
		{"/recommend", `{"budget_gb":1e10}`, "int64 byte limit"},
		{"/recommend", `{"budget_gb":1e300}`, "int64 byte limit"},
		{"/explain", `{"sql":""}`, ""},
		{"/explain", `{"sql":"SELECT nope FROM nowhere"}`, ""},
		// A repeated key is refused at every object level, named as its
		// second occurrence spells it.
		{"/whatif", `{"indexes":[{"table":"fact","columns":["a1"]}],"indexes":[{"columns":["m1"]}]}`, `duplicate key "indexes"`},
		{"/whatif", `{"indexes":[{"table":"fact","TABLE":"dim1_1","columns":["a1"]}]}`, `duplicate key "TABLE"`},
		{"/whatif", `{"indexes":[],"weights":[{"name":"Q1","name":"Q2","weight":2}]}`, `duplicate key "name"`},
		{"/recommend", `{"budget_gb":5,"budget_gb":1}`, `duplicate key "budget_gb"`},
		{"/explain", `{"sql":"SELECT a1 FROM fact","SQL":"SELECT m1 FROM fact"}`, `duplicate key "SQL"`},
	}
	for _, tc := range bad {
		resp, err := http.Post(f.ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]string
		json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		if payload["error"] == "" || !strings.Contains(payload["error"], tc.want) {
			t.Errorf("POST %s %q: error %q, want a message containing %q", tc.path, tc.body, payload["error"], tc.want)
		}
	}
}

// TestExplainRefusesPastRelationCap: a query past what the planner admits
// is the client's error — 400 naming the limit — not an endpoint failure
// and no panic. One joins more relations than a plan can name
// (optimizer.MaxRels); the self-join cliques have more csg-cmp pairs than
// the planner enumerates (14 aliases: 2 375 101 pairs; 17: past the
// mask-indexed table too) and are refused before any join is planned.
func TestExplainRefusesPastRelationCap(t *testing.T) {
	f := newFixture(t)
	var from, where []string
	for i := 0; i <= optimizer.MaxRels; i++ {
		from = append(from, fmt.Sprintf("fact f%d", i))
		if i > 0 {
			where = append(where, fmt.Sprintf("f%d.fk_dim1_1 = f%d.fk_dim1_1", i-1, i))
		}
	}
	cases := []struct{ sql, want string }{
		{"SELECT f0.m1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "), "64"},
	}
	for _, n := range []int{14, 17} {
		from, where = nil, nil
		for i := 0; i < n; i++ {
			from = append(from, fmt.Sprintf("dim1_1 d%d", i))
			for j := 0; j < i; j++ {
				where = append(where, fmt.Sprintf("d%d.id = d%d.id", j, i))
			}
		}
		cases = append(cases, struct{ sql, want string }{
			"SELECT d0.id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "),
			fmt.Sprintf("%d relations", n),
		})
	}
	for _, tc := range cases {
		body, err := json.Marshal(ExplainRequest{SQL: tc.sql})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.ts.URL+"/explain", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]string
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(payload["error"], tc.want) {
			t.Errorf("/explain of %.40s…: %d %q, want 400 naming %q", tc.sql, resp.StatusCode, payload["error"], tc.want)
		}
	}
	if n := f.srv.panics.Value(); n != 0 {
		t.Errorf("%d handler panics recorded", n)
	}
	for _, typ := range eventTypes(t, f.ts.URL) {
		if typ == "panic" {
			t.Error("a panic event was recorded")
		}
	}
}

// TestHealthAndStatz checks the liveness payload and that the per-endpoint
// request counters on /metrics actually count. (The name dates from the
// /statz endpoint, whose counters these were.)
func TestHealthAndStatz(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Queries int    `json:"queries"`
		Entries int    `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Queries != len(f.queries) || health.Entries == 0 {
		t.Fatalf("unexpected health payload: %+v", health)
	}

	f.post(t, "/whatif", WhatIfRequest{}, nil)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	body := scrape(t, f.ts.URL)
	if got := metricValue(t, body, `pinum_http_requests_total{endpoint="/whatif"}`); got < 2 {
		t.Errorf("/metrics reports %v /whatif requests, want >= 2", got)
	}
	if got := metricValue(t, body, `pinum_http_requests_total{endpoint="/healthz"}`); got < 1 {
		t.Errorf("/metrics reports no /healthz requests")
	}
}

// TestResolveConfigInternedAllocs pins the request path's spec
// resolution: four specs the interner already holds cost the configuration
// and its slice, sized once — the interner is probed with a key built on
// the stack.
func TestResolveConfigInternedAllocs(t *testing.T) {
	set := newFixture(t).srv.defaultTenant().current()
	specs := []IndexSpec{
		{Table: "fact", Columns: []string{"a1", "m1"}},
		{Table: "dim1_1", Columns: []string{"a1"}},
		{Table: "dim1_2", Columns: []string{"id", "a1"}},
		{Table: "fact", Columns: []string{"fk_dim1_1", "m1"}},
	}
	if _, err := set.resolveConfig(specs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		cfg, err := set.resolveConfig(specs)
		if err != nil || len(cfg.Indexes) != len(specs) {
			t.Fatalf("resolveConfig: %v, %v", cfg, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("resolveConfig on four interned specs: %.1f allocs, want ≤ 2", allocs)
	}
}

// TestFullInternerStillAnswers pins the at-cap contract: once the interner
// holds its maximum, a never-seen spec is priced through a request-local
// descriptor — the same bytes an uncapped server answers, the same 400 for
// a bad spec — instead of wedging the tenant until its next reload, and the
// interner stops growing.
func TestFullInternerStillAnswers(t *testing.T) {
	capped, open := newFixture(t), newFixture(t)
	capped.srv.defaultTenant().current().maxInterned = 2
	raw := func(f *fixture, path string, body any) (int, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	specs := []IndexSpec{
		{Table: "fact", Columns: []string{"a1"}},
		{Table: "fact", Columns: []string{"a2", "a1"}},
		{Table: "dim1_1", Columns: []string{"a1"}},
		{Table: "dim1_1", Columns: []string{"id", "a2"}},
		{Table: "fact", Columns: []string{"m1", "a1", "a2"}},
	}
	for round := 0; round < 2; round++ { // the second round repeats known and local specs alike
		for i, spec := range specs {
			req := WhatIfRequest{Indexes: []IndexSpec{spec, specs[(i+1)%len(specs)]}}
			code, got := raw(capped, "/whatif", req)
			wantCode, want := raw(open, "/whatif", req)
			if code != http.StatusOK || wantCode != http.StatusOK {
				t.Fatalf("spec %d: status %d at the cap, %d uncapped: %s", i, code, wantCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("spec %d: capped server answers\n%s\nuncapped\n%s", i, got, want)
			}
		}
	}
	if code, body := raw(capped, "/whatif", WhatIfRequest{Indexes: []IndexSpec{{Table: "fact", Columns: []string{"nope"}}}}); code != http.StatusBadRequest {
		t.Errorf("bad spec at the cap: status %d, want 400: %s", code, body)
	}
	if code, body := raw(capped, "/explain", ExplainRequest{SQL: capped.queries[3].SQL, Indexes: specs}); code != http.StatusOK {
		t.Errorf("/explain at the cap: status %d: %s", code, body)
	}
	if got := capped.srv.defaultTenant().current().internedCount(); got != 2 {
		t.Errorf("capped interner holds %d indexes, want 2", got)
	}
	if got := open.srv.defaultTenant().current().internedCount(); got != len(specs) {
		t.Errorf("uncapped interner holds %d indexes, want %d", got, len(specs))
	}
	// What an operator watches against the cap.
	if got := metricValue(t, scrape(t, capped.ts.URL), `pinum_tenant_interned_indexes{tenant="default"}`); got != 2 {
		t.Errorf("/metrics pinum_tenant_interned_indexes = %v, want 2", got)
	}
}
