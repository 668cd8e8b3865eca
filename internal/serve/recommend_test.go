package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/workload"
)

// wideEnv is the benchmark's 200-query whatif-wide tenant: twenty star
// query sets (seeds 1000–1019) over one catalog, named S<k>.Q<i>.
func wideEnv() (*Environment, error) {
	star, err := workload.StarSchema(1.0)
	if err != nil {
		return nil, err
	}
	env := &Environment{Catalog: star.Catalog, Stats: star.Stats}
	for k := int64(0); k < 20; k++ {
		set, err := star.Queries(1000 + k)
		if err != nil {
			return nil, err
		}
		for i, q := range set {
			q.Name = fmt.Sprintf("S%d.Q%d", k+1, i+1)
			a, err := optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams())
			if err != nil {
				return nil, err
			}
			env.Queries = append(env.Queries, q)
			env.Analyses = append(env.Analyses, a)
		}
	}
	return env, nil
}

// newWideServer serves wideEnv as the default tenant, loaded, with cfg's
// lifecycle settings.
func newWideServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Tenants = []TenantConfig{{Name: DefaultTenant, Loader: wideEnv}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.ReloadTenant("", false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// advisorReference is what a served /recommend must answer, byte for byte:
// an in-process Advisor.Run over freshly built caches of env's workload,
// with the request's weights, budget and cap and the advisor's own
// candidate generation, shaped by RecommendResponseFrom.
func advisorReference(t *testing.T, env *Environment, req RecommendRequest) []byte {
	t.Helper()
	caches, err := core.BuildAllSlim(env.Analyses, env.Catalog, 0)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[string]float64)
	for _, w := range req.Weights {
		weights[w.Name] = w.Weight
	}
	ad := advisor.New(env.Catalog, env.Stats, storage.BytesForGB(req.BudgetGB))
	ad.MaxIndexes = req.MaxIndexes
	for i, q := range env.Queries {
		if err := ad.AddPrepared(q, env.Analyses[i], caches[i], weights[q.Name]); err != nil {
			t.Fatal(err)
		}
	}
	ad.GenerateCandidates()
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeJSON(RecommendResponseFrom(res, env.Queries))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRecommendBodiesMatchAdvisorRun compares whole served /recommend
// bodies with the in-process reference beyond the ten-query 5 GB probe: a
// reweighted, capped request, and the 200-query tenant at 50 GB.
func TestRecommendBodiesMatchAdvisorRun(t *testing.T) {
	t.Run("weights+max_indexes", func(t *testing.T) {
		f := newFixture(t)
		req := RecommendRequest{BudgetGB: 3, MaxIndexes: 3, Weights: []WeightOverride{
			{Name: f.queries[9].Name, Weight: 4}, {Name: f.queries[2].Name, Weight: 0.5},
		}}
		want := eagerRecommend(t, f, req)
		code, got := f.recommend(t, req)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("served %d:\n%s\nwant:\n%s", code, got, want)
		}
		if unweighted := eagerRecommend(t, f, RecommendRequest{BudgetGB: 3, MaxIndexes: 3}); bytes.Equal(unweighted, want) {
			t.Fatal("the weights change nothing; the case is vacuous")
		}
	})
	t.Run("200 queries at 50 GB", func(t *testing.T) {
		if testing.Short() {
			t.Skip("a 200-query search twice")
		}
		_, ts := newWideServer(t, Config{})
		env, err := wideEnv()
		if err != nil {
			t.Fatal(err)
		}
		req := RecommendRequest{BudgetGB: 50}
		want := advisorReference(t, env, req)
		code, got := postBytes(t, ts.URL+"/recommend", []byte(`{"budget_gb":50}`))
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("served %d:\n%s\nwant:\n%s", code, got, want)
		}
	})
}

// TestRecommendStopsAtDeadline: a /recommend whose search outlasts the
// request deadline answers 504 within the deadline plus about one greedy
// round, and leaves no goroutine behind. The 200-query tenant at 500 GB
// searches 1 353 candidates for seconds at one worker.
func TestRecommendStopsAtDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	srv, ts := newWideServer(t, Config{Workers: 1, RequestTimeout: timeout})
	set := srv.defaultTenant().current()
	cs, err := set.candidates() // off the clock, as a /healthz would
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.indexes) != 1353 {
		t.Fatalf("%d candidates, want the 1 353 this test is sized for", len(cs.indexes))
	}
	// One round: a search capped at one pick, every candidate eligible.
	queries := make([]costmatrix.Query, len(set.caches))
	for i, c := range set.caches {
		queries[i] = costmatrix.Query{Cache: c, Weight: 1}
	}
	r0 := time.Now()
	one, err := advisor.Search(context.Background(), queries, cs.indexes, storage.BytesForGB(500), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := time.Since(r0)
	if one.Rounds != 1 {
		t.Fatalf("%d rounds, want 1", one.Rounds)
	}

	// The baseline holds a kept-alive connection, as the request after it
	// does.
	if code, body := postBytes(t, ts.URL+"/whatif", []byte(`{"indexes":[]}`)); code != http.StatusOK {
		t.Fatalf("/whatif: %d %s", code, body)
	}
	base := runtime.NumGoroutine()
	start := time.Now()
	code, body := postBytes(t, ts.URL+"/recommend", []byte(`{"budget_gb":500}`))
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("/recommend past its deadline: %d %s, want 504", code, body)
	}
	if limit := timeout + 2*round + 250*time.Millisecond; elapsed > limit {
		t.Errorf("504 after %v; a round takes %v, want at most %v", elapsed, round, limit)
	}
	t.Logf("504 after %v (deadline %v, one round %v)", elapsed, timeout, round)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the abandoned search, %d before", n, base)
	}
}
