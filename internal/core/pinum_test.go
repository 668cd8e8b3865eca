package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

func mustStar(t testing.TB) *workload.Star {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatalf("StarSchema: %v", err)
	}
	return s
}

func mustQueries(t testing.TB, s *workload.Star) []*query.Query {
	t.Helper()
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	return qs
}

func analyze(t testing.TB, s *workload.Star, q *query.Query) *optimizer.Analysis {
	t.Helper()
	a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatalf("NewAnalysis(%s): %v", q.Name, err)
	}
	return a
}

func TestQ5AnalogueComboCount(t *testing.T) {
	s := mustStar(t)
	q, err := s.Q5Analogue()
	if err != nil {
		t.Fatalf("Q5Analogue: %v", err)
	}
	if got := q.ComboCount(); got != 648 {
		t.Fatalf("Q5 analogue has %d interesting order combinations, want 648", got)
	}
}

func TestBuildProducesUsefulPlans(t *testing.T) {
	s := mustStar(t)
	q, err := s.Q5Analogue()
	if err != nil {
		t.Fatalf("Q5Analogue: %v", err)
	}
	a := analyze(t, s, q)
	cache, err := BuildSlim(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatalf("BuildSlim: %v", err)
	}
	if cache.Stats.OptimizerCalls != 2 {
		t.Errorf("PINUM made %d optimizer calls, want 2", cache.Stats.OptimizerCalls)
	}
	if cache.Stats.PlansCached == 0 {
		t.Fatalf("PINUM cached no plans")
	}
	// The redundancy observation: far fewer unique plans than combinations.
	if cache.Stats.PlansCached >= cache.Stats.CombosEnumerated/2 {
		t.Errorf("cached %d plans for %d combinations; expected heavy redundancy",
			cache.Stats.PlansCached, cache.Stats.CombosEnumerated)
	}
	t.Logf("Q5 analogue: %d combos, %d unique plans", cache.Stats.CombosEnumerated, cache.Stats.PlansCached)
}

// TestPINUMCostMatchesOptimizer is the paper's central exactness claim
// (observations 1–2 of §II): with the precise nested-loop pruning enabled,
// the cached model's cost must equal a fresh optimizer call on every
// random atomic configuration.
func TestPINUMCostMatchesOptimizer(t *testing.T) {
	s := mustStar(t)
	qs := mustQueries(t, s)
	rng := rand.New(rand.NewSource(7))
	for _, q := range qs[:6] { // the smaller queries keep the test fast
		q := q
		t.Run(q.Name, func(t *testing.T) {
			a := analyze(t, s, q)
			ws := whatif.NewSession(s.Catalog)
			cache, err := BuildPrecise(a, ws)
			if err != nil {
				t.Fatalf("BuildPrecise: %v", err)
			}
			for trial := 0; trial < 40; trial++ {
				cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
				if err != nil {
					t.Fatalf("RandomAtomicConfig: %v", err)
				}
				res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				got, _, err := cache.Cost(cfg)
				if err != nil {
					t.Fatalf("cache.Cost: %v", err)
				}
				want := res.Best.Cost
				if relErr(got, want) > 1e-6 {
					t.Fatalf("trial %d cfg %s: cache cost %.4f, optimizer cost %.4f (rel err %.2e)",
						trial, cfg, got, want, relErr(got, want))
				}
			}
		})
	}
}

// TestCoarseNLJAccuracy checks the default (paper-mode) cache: exact when
// nested loops are disabled, and within the paper's reported error band
// (≈9 % worst case) when they are enabled.
func TestCoarseNLJAccuracy(t *testing.T) {
	s := mustStar(t)
	qs := mustQueries(t, s)
	rng := rand.New(rand.NewSource(13))
	for _, q := range qs[:6] {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			a := analyze(t, s, q)
			ws := whatif.NewSession(s.Catalog)
			cache, err := BuildSlim(a, ws)
			if err != nil {
				t.Fatalf("BuildSlim: %v", err)
			}
			var worst float64
			for trial := 0; trial < 40; trial++ {
				cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
				if err != nil {
					t.Fatalf("RandomAtomicConfig: %v", err)
				}
				res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				got, _, err := cache.Cost(cfg)
				if err != nil {
					t.Fatalf("cache.Cost: %v", err)
				}
				if e := relErr(got, res.Best.Cost); e > worst {
					worst = e
				}
			}
			if worst > 0.15 {
				t.Errorf("coarse cache worst-case error %.1f%% exceeds 15%%", 100*worst)
			}
		})
	}
}

// TestPINUMEqualsINUM checks the one-call-equals-many-calls invariant: the
// PINUM cache and the conventional INUM cache estimate the same costs.
func TestPINUMEqualsINUM(t *testing.T) {
	s := mustStar(t)
	qs := mustQueries(t, s)
	rng := rand.New(rand.NewSource(11))
	for _, q := range qs[:4] {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			a := analyze(t, s, q)
			pin, err := BuildSlim(a, whatif.NewSession(s.Catalog))
			if err != nil {
				t.Fatalf("PINUM build: %v", err)
			}
			in, err := inum.Build(a, whatif.NewSession(s.Catalog))
			if err != nil {
				t.Fatalf("INUM build: %v", err)
			}
			if in.Stats.OptimizerCalls <= pin.Stats.OptimizerCalls {
				t.Errorf("INUM made %d calls, PINUM %d; INUM should need many more",
					in.Stats.OptimizerCalls, pin.Stats.OptimizerCalls)
			}
			ws := whatif.NewSession(s.Catalog)
			for trial := 0; trial < 25; trial++ {
				cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
				if err != nil {
					t.Fatalf("RandomAtomicConfig: %v", err)
				}
				pc, _, err := pin.Cost(cfg)
				if err != nil {
					t.Fatalf("pinum cost: %v", err)
				}
				ic, _, err := in.Cost(cfg)
				if err != nil {
					t.Fatalf("inum cost: %v", err)
				}
				// INUM may miss plans (its per-combination calls return
				// one plan each); it must never be cheaper than PINUM's
				// complete cache.
				if pc > ic*(1+1e-9) {
					t.Fatalf("trial %d: PINUM cost %.4f exceeds INUM cost %.4f", trial, pc, ic)
				}
			}
		})
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}
