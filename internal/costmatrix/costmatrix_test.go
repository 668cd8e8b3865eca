package costmatrix

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// setup builds caches for the first n star-workload queries and returns the
// schema, the caches, and the weights used throughout these tests.
func setup(t testing.TB, n int) (*workload.Star, []*inum.Cache, []float64) {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:n]
	caches := make([]*inum.Cache, n)
	weights := make([]float64, n)
	for i, q := range qs {
		a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		caches[i], err = core.Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		weights[i] = float64(1 + i%3)
	}
	return s, caches, weights
}

func newEngine(t testing.TB, caches []*inum.Cache, weights []float64) *Engine {
	t.Helper()
	specs := make([]Query, len(caches))
	for i, c := range caches {
		specs[i] = Query{Cache: c, Weight: weights[i]}
	}
	e, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// candidatePool builds single-column hypothetical indexes on every
// attribute column of every table given — for the star schema's whole
// catalog, including tables no query references.
func candidatePool(t testing.TB, tables []*catalog.Table) []*catalog.Index {
	t.Helper()
	var pool []*catalog.Index
	for _, tb := range tables {
		for _, col := range tb.Columns {
			if strings.HasPrefix(col.Name, "fk_") {
				continue
			}
			pool = append(pool, storage.HypotheticalIndex(
				"cand_"+tb.Name+"_"+col.Name, tb, []string{col.Name}))
		}
	}
	return pool
}

// naiveWorkloadCost is the from-scratch reference: weight × Cache.Cost per
// query, summed in registration order — exactly what the engine must match
// bit for bit.
func naiveWorkloadCost(t testing.TB, caches []*inum.Cache, weights []float64, cfg []*catalog.Index) float64 {
	t.Helper()
	total := 0.0
	for i, c := range caches {
		cost, _, err := c.Cost(&query.Config{Indexes: cfg})
		if err != nil {
			t.Fatal(err)
		}
		total += weights[i] * cost
	}
	return total
}

// TestBaselineMatchesCacheCost checks the freshly built engine prices the
// empty configuration exactly as Cache.Cost does.
func TestBaselineMatchesCacheCost(t *testing.T) {
	_, caches, weights := setup(t, 4)
	e := newEngine(t, caches, weights)
	per := e.QueryCosts()
	for i, c := range caches {
		want, _, err := c.Cost(&query.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(per[i]) != math.Float64bits(want) {
			t.Errorf("query %d: engine baseline %v != Cache.Cost %v", i, per[i], want)
		}
	}
	want := naiveWorkloadCost(t, caches, weights, nil)
	if math.Float64bits(e.TotalCost()) != math.Float64bits(want) {
		t.Errorf("baseline total %v != naive %v", e.TotalCost(), want)
	}
}

// TestEvaluateAndApplyMatchCacheCost walks a pick sequence: at every step,
// every pool candidate's evaluation must be bit-identical to re-pricing
// applied+candidate from scratch, and after each Apply the stored state
// must be bit-identical to re-pricing the applied set.
func TestEvaluateAndApplyMatchCacheCost(t *testing.T) {
	s, caches, weights := setup(t, 4)
	e := newEngine(t, caches, weights)
	pool := candidatePool(t, s.Catalog.Tables())
	if len(pool) < 100 {
		t.Fatalf("pool has only %d candidates, want >= 100", len(pool))
	}
	// Picks span fact (touches every query), a dimension, and a table no
	// query references (must be a perfect no-op).
	var picks []*catalog.Index
	for _, name := range []string{"cand_fact_a1", "cand_dim1_1_a1", "cand_dim3_8_a2", "cand_fact_m1"} {
		for _, ix := range pool {
			if ix.Name == name {
				picks = append(picks, ix)
			}
		}
	}
	if len(picks) != 4 {
		t.Fatalf("found %d of the 4 named picks", len(picks))
	}

	var applied []*catalog.Index
	for step, pick := range picks {
		// Sample the pool rather than evaluating all |pool| × |caches|
		// from-scratch references every step (the naive side is slow).
		for i := 0; i < len(pool); i += 7 {
			cand := pool[i]
			got := e.EvaluateCandidate(cand)
			want := naiveWorkloadCost(t, caches, weights, append(applied[:len(applied):len(applied)], cand))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d, candidate %s: engine %v != naive %v", step, cand.Name, got, want)
			}
		}
		e.Apply(pick)
		applied = append(applied, pick)
		want := naiveWorkloadCost(t, caches, weights, applied)
		if math.Float64bits(e.TotalCost()) != math.Float64bits(want) {
			t.Fatalf("step %d: applied total %v != naive %v", step, e.TotalCost(), want)
		}
		per := e.QueryCosts()
		for i, c := range caches {
			w, _, err := c.Cost(&query.Config{Indexes: applied})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(per[i]) != math.Float64bits(w) {
				t.Errorf("step %d, query %d: stored %v != Cache.Cost %v", step, i, per[i], w)
			}
		}
	}
	if got := e.Stats().Applies; got != int64(len(picks)) {
		t.Errorf("Stats().Applies = %d, want %d picks", got, len(picks))
	}
}

// TestSelfJoinMatchesCacheCost exercises the engine on a query joining a
// table to itself: both relation slots live on one table, so a candidate
// on that table must fold into both leaves.
func TestSelfJoinMatchesCacheCost(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Catalog.Table("dim1_1")
	q := &query.Query{
		Name: "selfjoin",
		Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
		Joins: []query.Join{{
			Left:  query.ColRef{Rel: 0, Column: "a1"},
			Right: query.ColRef{Rel: 1, Column: "id"},
		}},
		Select:  []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
		OrderBy: []query.ColRef{{Rel: 0, Column: "a2"}},
	}
	a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.Build(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	caches := []*inum.Cache{cache}
	weights := []float64{1}
	e := newEngine(t, caches, weights)

	ws := whatif.NewSession(s.Catalog)
	mk := func(cols ...string) *catalog.Index {
		ix, err := ws.CreateIndex("dim1_1", cols...)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	cands := []*catalog.Index{mk("a1", "id"), mk("id", "a2"), mk("a2"), mk("a1")}
	var applied []*catalog.Index
	for _, pick := range cands {
		for _, cand := range cands {
			got := e.EvaluateCandidate(cand)
			want := naiveWorkloadCost(t, caches, weights, append(applied[:len(applied):len(applied)], cand))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("candidate %s over %d applied: engine %v != naive %v",
					cand.Key(), len(applied), got, want)
			}
		}
		e.Apply(pick)
		applied = append(applied, pick)
	}
	want := naiveWorkloadCost(t, caches, weights, applied)
	if math.Float64bits(e.TotalCost()) != math.Float64bits(want) {
		t.Errorf("final total %v != naive %v", e.TotalCost(), want)
	}
}

// impliedFolds is the number of entry folds EvaluateCandidate owes for ix
// on a fresh engine over caches, computed without the engine: per query,
// per entry, the relations on which the entry reads a slot that pricing
// the table under {ix} lowers below the empty configuration's price.
func impliedFolds(caches []*inum.Cache, ix *catalog.Index) int64 {
	n := int64(0)
	for _, c := range caches {
		without := c.A.PriceLeafSlots(nil, nil)
		with := c.A.PriceLeafSlots(nil, &query.Config{Indexes: []*catalog.Index{ix}})
		for i := range c.Plans {
			for _, s := range c.PlanSlots(i) {
				if with[s] < without[s] {
					n++
				}
			}
		}
	}
	return n
}

// TestStatsCounting checks the work counters: every EvaluateCandidate
// visits each query exactly once (as a delta or as a skip), it folds
// exactly the entries that read a slot the candidate lowered, applies are
// counted, and a candidate on an unreferenced table is skipped everywhere.
func TestStatsCounting(t *testing.T) {
	s, caches, weights := setup(t, 3)
	e := newEngine(t, caches, weights)
	if st := e.Stats(); st != (Stats{}) {
		t.Fatalf("fresh engine has non-zero stats: %+v", st)
	}
	fact := s.Catalog.Table("fact")
	unref := s.Catalog.Table("dim3_8") // no 42-seed query reaches level 3
	// Of the three queries' slots, fact(a1) lowers none and fact(m1) one.
	flat := storage.HypotheticalIndex("st_fact", fact, []string{"a1"})
	lowering := storage.HypotheticalIndex("st_fact_m1", fact, []string{"m1"})
	onUnref := storage.HypotheticalIndex("st_unref", unref, []string{"a1"})

	// Every query reads fact, so a fact candidate is a delta evaluation of
	// each, whether or not it lowers a slot.
	var planEvals int64
	for k, ix := range []*catalog.Index{flat, lowering} {
		before := e.TotalCost()
		got := e.EvaluateCandidate(ix)
		st := e.Stats()
		if st.CandidateEvals != int64(k+1) || st.QueryEvals != int64((k+1)*len(caches)) || st.QuerySkips != 0 {
			t.Errorf("%s: %+v, want every query evaluated", ix.Name, st)
		}
		want := impliedFolds(caches, ix)
		if folds := st.PlanEvals - planEvals; folds != want {
			t.Errorf("%s: %d entry folds, the slots it lowers imply %d", ix.Name, folds, want)
		}
		planEvals = st.PlanEvals
		if ix == flat {
			if want != 0 {
				t.Errorf("%s lowers slots read by %d entries; the check needs a candidate that lowers none", ix.Name, want)
			}
			if math.Float64bits(got) != math.Float64bits(before) {
				t.Errorf("%s lowers no slot but changed the total: %v != %v", ix.Name, got, before)
			}
		} else if want == 0 {
			t.Errorf("%s lowers no slot any entry reads; the check needs one that does", ix.Name)
		}
	}

	before := e.TotalCost()
	if got := e.EvaluateCandidate(onUnref); math.Float64bits(got) != math.Float64bits(before) {
		t.Errorf("unreferenced-table candidate changed the total: %v != %v", got, before)
	}
	st := e.Stats()
	if st.CandidateEvals != 3 || st.QuerySkips != int64(len(caches)) || st.PlanEvals != planEvals {
		t.Errorf("unreferenced candidate: %+v, want every query skipped and no entry folded", st)
	}
	if st.QueryEvals+st.QuerySkips != st.CandidateEvals*int64(len(caches)) {
		t.Errorf("evals %d + skips %d != candidates %d × queries %d",
			st.QueryEvals, st.QuerySkips, st.CandidateEvals, len(caches))
	}

	e.Apply(onUnref) // harmless no-op commit
	if math.Float64bits(e.TotalCost()) != math.Float64bits(before) {
		t.Error("applying an unreferenced-table index changed the total")
	}
	if st = e.Stats(); st.Applies != 1 {
		t.Errorf("applies %d, want 1", st.Applies)
	}
}

// TestConcurrentEvaluateMatchesSerial fans candidate evaluations over many
// goroutines and checks bit-identical results against a serial pass; under
// -race this also proves EvaluateCandidate is safe for concurrent use.
func TestConcurrentEvaluateMatchesSerial(t *testing.T) {
	s, caches, weights := setup(t, 4)
	e := newEngine(t, caches, weights)
	pool := candidatePool(t, s.Catalog.Tables())
	e.Apply(pool[0])

	serial := make([]float64, len(pool))
	for i, cand := range pool {
		serial[i] = e.EvaluateCandidate(cand)
	}
	parallel := make([]float64, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 8 {
				parallel[i] = e.EvaluateCandidate(pool[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range pool {
		if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
			t.Errorf("candidate %s: serial %v != parallel %v", pool[i].Name, serial[i], parallel[i])
		}
	}
}

// TestEvaluateCandidateAllocFree pins the engine's hot path over the whole
// star workload: a candidate evaluation copies each affected query's slot
// table to the stack, folds the candidate in and re-prices the entries
// that read a lowered slot — nothing reaches the heap, before or after
// picks are applied.
func TestEvaluateCandidateAllocFree(t *testing.T) {
	s, caches, weights := setup(t, 10)
	e := newEngine(t, caches, weights)
	pool := candidatePool(t, s.Catalog.Tables())
	for step := 0; step < 3; step++ {
		for i := step; i < len(pool); i += 11 {
			cand := pool[i]
			if allocs := testing.AllocsPerRun(10, func() { e.EvaluateCandidate(cand) }); allocs != 0 {
				t.Errorf("after %d picks: EvaluateCandidate(%s) allocates %v times per call, want 0", step, cand.Name, allocs)
			}
		}
		e.Apply(pool[step*13])
	}
}

// TestNewRejectsNilCache checks the constructor validates its input.
func TestNewRejectsNilCache(t *testing.T) {
	if _, err := New([]Query{{Cache: nil}}); err == nil {
		t.Error("nil cache accepted")
	}
}
