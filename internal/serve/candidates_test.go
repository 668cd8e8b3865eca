package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/faultpoint"
)

// These tests pin the first-use candidate set: what /recommend and
// /healthz answer does not depend on who asked first, generation runs
// once per set and not at all for a set only asked /whatif, and a failed
// generation is retried, never answered from.

var recommendProbe = RecommendRequest{BudgetGB: 5, MaxIndexes: 4}

// eagerRecommend is the reference: the candidate set generated up front
// by the advisor that then runs the search, over freshly built caches.
func eagerRecommend(t *testing.T, f *fixture, req RecommendRequest) []byte {
	t.Helper()
	return advisorReference(t, &Environment{Catalog: f.star.Catalog, Stats: f.star.Stats, Queries: f.queries, Analyses: f.analyses}, req)
}

func (f *fixture) recommend(t *testing.T, req RecommendRequest) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBytes(t, f.ts.URL+"/recommend", data)
}

func (f *fixture) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body
}

// countHits makes faultpoint count hits (it does only once some fault is
// armed) without arming anything the server reaches.
func countHits(t *testing.T) {
	t.Helper()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Set("test.count-hits", "error"); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendFirstUseMatchesEagerReference(t *testing.T) {
	f := newFixture(t)
	want := eagerRecommend(t, f, recommendProbe)
	for call := 1; call <= 3; call++ {
		code, body := f.recommend(t, recommendProbe)
		if code != http.StatusOK {
			t.Fatalf("call %d: %d %s", call, code, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("call %d differs from the eagerly generated reference:\n%s\nwant:\n%s", call, body, want)
		}
	}
}

func TestConcurrentFirstRecommendGeneratesOnce(t *testing.T) {
	countHits(t)
	f := newFixture(t)
	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(recommendProbe)
			resp, err := http.Post(f.ts.URL+"/recommend", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	want := eagerRecommend(t, f, recommendProbe)
	for i := range bodies {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], want) {
			t.Errorf("request %d: %d, body differs from the reference:\n%s", i, codes[i], bodies[i])
		}
	}
	if got := faultpoint.Count("serve.candidates"); got != 1 {
		t.Errorf("%d concurrent first /recommend generated %d times, want 1", n, got)
	}
}

// setSeries keeps, of a /metrics body, what a snapshot set reports and no
// request moves: the snapshot-shape and planner gauges, the interner, and
// the residency, reload and process failure counters.
func setSeries(t *testing.T, body string) string {
	t.Helper()
	var kept []string
	for _, line := range strings.Split(body, "\n") {
		for _, prefix := range []string{"pinum_snapshot_", "pinum_planner_", "pinum_tenant_interned_indexes",
			"pinum_tenant_resident", "pinum_tenant_degraded", "pinum_tenant_reloads_total", "pinum_tenant_cold_loads_total",
			"pinum_tenant_evictions_total", "pinum_tenant_rejected_total", "pinum_panics_total",
			"pinum_ingress_oversized_total", "pinum_http_unmatched_total"} {
			if strings.HasPrefix(line, prefix) {
				kept = append(kept, line)
			}
		}
	}
	if len(kept) < 12 {
		t.Fatalf("/metrics has %d of the set's series:\n%s", len(kept), strings.Join(kept, "\n"))
	}
	return strings.Join(kept, "\n")
}

// TestHealthAndStatzSameBeforeAndAfterRecommend: the "statz" half is now the
// set's /metrics series.
func TestHealthAndStatzSameBeforeAndAfterRecommend(t *testing.T) {
	countHits(t)
	f := newFixture(t)
	healthBefore := f.get(t, "/healthz")
	if got := faultpoint.Count("serve.candidates"); got != 1 {
		t.Fatalf("first /healthz generated %d times, want 1", got)
	}
	seriesBefore := setSeries(t, scrape(t, f.ts.URL))
	var health struct {
		Candidates *int `json:"candidates"`
		GenErrors  *int `json:"candidate_gen_errors"`
	}
	if err := json.Unmarshal(healthBefore, &health); err != nil {
		t.Fatal(err)
	}
	if health.Candidates == nil || *health.Candidates == 0 || health.GenErrors == nil {
		t.Fatalf("/healthz before any /recommend lacks the candidate counts: %s", healthBefore)
	}

	if code, body := f.recommend(t, recommendProbe); code != http.StatusOK {
		t.Fatalf("/recommend: %d %s", code, body)
	}
	if healthAfter := f.get(t, "/healthz"); !bytes.Equal(healthBefore, healthAfter) {
		t.Errorf("/healthz changed across the first /recommend:\n%s\nafter:\n%s", healthBefore, healthAfter)
	}
	if seriesAfter := setSeries(t, scrape(t, f.ts.URL)); seriesBefore != seriesAfter {
		t.Errorf("the set's /metrics series changed across the first /recommend:\n%s\nafter:\n%s", seriesBefore, seriesAfter)
	}
	if got := faultpoint.Count("serve.candidates"); got != 1 {
		t.Errorf("generated %d times in all, want 1", got)
	}

	// The other order: a set whose first asker is /recommend reports the
	// same health.
	g := newFixture(t)
	if code, body := g.recommend(t, recommendProbe); code != http.StatusOK {
		t.Fatalf("/recommend: %d %s", code, body)
	}
	if health := g.get(t, "/healthz"); !bytes.Equal(health, healthBefore) {
		t.Errorf("/healthz after a first /recommend:\n%s\nwant what a first /healthz reports:\n%s", health, healthBefore)
	}
}

func TestWhatIfOnlyTenantNeverGenerates(t *testing.T) {
	countHits(t)
	f := newMTFixture(t, mtSeeds, mtOrder, 1, nil)
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)
	// Cap 1: each load evicts the tenant before it, so acme is cold-loaded
	// (rebuilt), evicted, and cold-loaded again (from its snapshot).
	for _, name := range []string{"acme", "globex", "acme"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s /whatif: %d %s", name, code, body)
		}
	}
	// The set's source is read in place: /healthz?tenant= would generate.
	st, source := f.tenantCounters(t, "acme"), f.srv.tenants["acme"].current().source
	if st.ColdLoads != 2 || st.Evictions != 1 || source != sourceDisk {
		t.Fatalf("acme: cold_loads=%d evictions=%d source=%q, want 2 loads around 1 eviction, the last from disk",
			st.ColdLoads, st.Evictions, source)
	}
	if got := faultpoint.Count("serve.candidates"); got != 0 {
		t.Errorf("three /whatif-only cold loads generated candidates %d times, want 0", got)
	}
	if got := faultpoint.Count("serve.rebuild"); got != 3 {
		t.Fatalf("hit counting is off: serve.rebuild counted %d of 3 loads", got)
	}
}

func TestFailedGenerationIsRetriedNeverAnswered(t *testing.T) {
	for _, spec := range []string{"panic:1", "error:1"} {
		t.Run(spec, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			f := newFixture(t)
			want := eagerRecommend(t, f, recommendProbe)
			if err := faultpoint.Set("serve.candidates", spec); err != nil {
				t.Fatal(err)
			}
			code, body := f.recommend(t, recommendProbe)
			if code != http.StatusInternalServerError {
				t.Fatalf("/recommend under %s: %d %s, want one 500", spec, code, body)
			}
			if f.srv.defaultTenant().current().cand.Load() != nil {
				t.Fatal("a failed generation published a candidate set")
			}
			// Same set, fault spent: the next caller generates.
			code, body = f.recommend(t, recommendProbe)
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("/recommend after %s: %d\n%s\nwant the reference:\n%s", spec, code, body, want)
			}
			if got := faultpoint.Count("serve.candidates"); got != 2 {
				t.Errorf("generation attempted %d times, want 2 (one failed, one retried)", got)
			}
		})
	}
}
