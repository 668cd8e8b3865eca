package core

import (
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
)

// TestConstructionSpeedAdvantage asserts the paper's headline claim at test
// granularity: building the cache with PINUM's two exported calls is
// substantially faster than INUM's two-calls-per-combination loop.
func TestConstructionSpeedAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	s := mustStar(t)
	qs := mustQueries(t, s)
	q := qs[4] // a mid-size (4-table) query

	a := analyze(t, s, q)

	start := time.Now()
	pin, err := BuildSlim(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatalf("PINUM build: %v", err)
	}
	pinumTime := time.Since(start)

	start = time.Now()
	in, err := inum.Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatalf("INUM build: %v", err)
	}
	inumTime := time.Since(start)

	t.Logf("%s: combos=%d PINUM=%v (%d calls, %d plans) INUM=%v (%d calls, %d plans)",
		q.Name, a.Q.ComboCount(), pinumTime, pin.Stats.OptimizerCalls, pin.Stats.PlansCached,
		inumTime, in.Stats.OptimizerCalls, in.Stats.PlansCached)
	if pinumTime >= inumTime {
		t.Errorf("PINUM construction (%v) not faster than INUM (%v)", pinumTime, inumTime)
	}
}

// TestSingleCallCosts logs the cost of individual optimizer calls in each
// mode, to keep an eye on the export overhead the paper discusses in §IV.
func TestSingleCallCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing log skipped in -short mode")
	}
	s := mustStar(t)
	q, err := s.Q5Analogue()
	if err != nil {
		t.Fatalf("Q5Analogue: %v", err)
	}
	a := analyze(t, s, q)
	ws := whatif.NewSession(s.Catalog)
	cfg, err := inum.AllOrdersConfig(a, ws)
	if err != nil {
		t.Fatalf("AllOrdersConfig: %v", err)
	}

	start := time.Now()
	if _, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true}); err != nil {
		t.Fatalf("normal call: %v", err)
	}
	normal := time.Since(start)

	start = time.Now()
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true, ExportAll: true})
	if err != nil {
		t.Fatalf("export call: %v", err)
	}
	export := time.Since(start)
	t.Logf("normal call %v; export call %v (%d paths exported, %d considered)",
		normal, export, len(res.Exported), res.Stats.PathsConsidered)
}
