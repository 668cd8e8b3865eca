package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

func setup(t testing.TB, budgetGB float64, nQueries int) (*workload.Star, *Advisor, []*query.Query) {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:nQueries]
	ad := New(s.Catalog, s.Stats, storage.BytesForGB(budgetGB))
	for _, q := range qs {
		if err := ad.AddQuery(q, 1); err != nil {
			t.Fatal(err)
		}
	}
	return s, ad, qs
}

func TestRunRequiresQueries(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	ad := New(s.Catalog, s.Stats, storage.BytesForGB(1))
	if _, err := ad.Run(); err == nil {
		t.Error("advisor with no queries ran")
	}
}

func TestGreedySelectionRespectsBudget(t *testing.T) {
	_, ad, _ := setup(t, 3, 5)
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes > ad.BudgetBytes {
		t.Errorf("used %d bytes of %d budget", res.TotalBytes, ad.BudgetBytes)
	}
	var sum int64
	for _, ix := range res.Chosen {
		sum += storage.IndexBytes(ix)
	}
	if sum != res.TotalBytes {
		t.Errorf("TotalBytes %d != sum of chosen %d", res.TotalBytes, sum)
	}
	if res.FinalCost > res.BaseCost {
		t.Errorf("final cost %f above base %f", res.FinalCost, res.BaseCost)
	}
	if res.Rounds != len(res.Chosen) {
		t.Errorf("rounds %d != chosen %d", res.Rounds, len(res.Chosen))
	}
}

func TestBenefitIsMonotonePerQuery(t *testing.T) {
	_, ad, qs := setup(t, 5, 6)
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		e := res.PerQuery[q.Name]
		if e[1] > e[0]*(1+1e-9) {
			t.Errorf("%s: indexes made the estimate worse: %f -> %f", q.Name, e[0], e[1])
		}
	}
	if res.Speedup() < 0 || res.Speedup() > 1 {
		t.Errorf("speedup %f outside [0,1]", res.Speedup())
	}
}

func TestMaxIndexesCap(t *testing.T) {
	_, ad, _ := setup(t, 10, 5)
	ad.MaxIndexes = 2
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) > 2 {
		t.Errorf("chose %d indexes, cap was 2", len(res.Chosen))
	}
}

func TestZeroBudgetChoosesNothing(t *testing.T) {
	_, ad, _ := setup(t, 0, 3)
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 0 {
		t.Errorf("chose %d indexes with zero budget", len(res.Chosen))
	}
	if res.FinalCost != res.BaseCost {
		t.Error("cost changed without indexes")
	}
}

// optimizerCalls sums the optimizer calls the registered caches were
// built with.
func optimizerCalls(ad *Advisor) int {
	n := 0
	for _, qs := range ad.queries {
		n += qs.Cache.Stats.OptimizerCalls
	}
	return n
}

func TestNoOptimizerCallsDuringGreedyLoop(t *testing.T) {
	_, ad, _ := setup(t, 5, 4)
	callsAfterCaches := optimizerCalls(ad)
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimizerCalls != callsAfterCaches {
		t.Errorf("greedy loop made optimizer calls: %d -> %d", callsAfterCaches, res.OptimizerCalls)
	}
	// The paper's point: 2 calls per query, regardless of candidates.
	if callsAfterCaches != 2*4 {
		t.Errorf("cache construction used %d calls, want 8", callsAfterCaches)
	}
}

// TestParallelRunMatchesSerial is the tentpole's determinism guarantee: the
// parallel greedy search must return byte-identical results to the serial
// one — same indexes in the same pick order, bit-equal costs.
func TestParallelRunMatchesSerial(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:6]
	mk := func(par int) *Result {
		ad := New(s.Catalog, s.Stats, storage.BytesForGB(5))
		ad.Parallelism = par
		if err := ad.AddQueries(qs, nil); err != nil {
			t.Fatal(err)
		}
		res, err := ad.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := mk(1)
	parallel := mk(8)
	if len(serial.Chosen) == 0 {
		t.Fatal("serial run chose nothing; the comparison is vacuous")
	}
	if len(serial.Chosen) != len(parallel.Chosen) {
		t.Fatalf("serial chose %d indexes, parallel %d", len(serial.Chosen), len(parallel.Chosen))
	}
	for i := range serial.Chosen {
		if serial.Chosen[i].Key() != parallel.Chosen[i].Key() {
			t.Errorf("pick %d: serial %s, parallel %s", i, serial.Chosen[i].Key(), parallel.Chosen[i].Key())
		}
	}
	if math.Float64bits(serial.FinalCost) != math.Float64bits(parallel.FinalCost) {
		t.Errorf("final cost differs: serial %v, parallel %v", serial.FinalCost, parallel.FinalCost)
	}
	if math.Float64bits(serial.BaseCost) != math.Float64bits(parallel.BaseCost) {
		t.Errorf("base cost differs: serial %v, parallel %v", serial.BaseCost, parallel.BaseCost)
	}
	if serial.TotalBytes != parallel.TotalBytes || serial.Rounds != parallel.Rounds {
		t.Errorf("serial (%d bytes, %d rounds) != parallel (%d bytes, %d rounds)",
			serial.TotalBytes, serial.Rounds, parallel.TotalBytes, parallel.Rounds)
	}
	for name, se := range serial.PerQuery {
		pe, ok := parallel.PerQuery[name]
		if !ok || se != pe {
			t.Errorf("%s: per-query costs differ: serial %v, parallel %v", name, se, pe)
		}
	}
}

// TestAddQueriesMatchesAddQuery checks the batch registration path leaves
// the advisor in the same state as the serial per-query path.
func TestAddQueriesMatchesAddQuery(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:4]

	serial := New(s.Catalog, s.Stats, storage.BytesForGB(3))
	for _, q := range qs {
		if err := serial.AddQuery(q, 2); err != nil {
			t.Fatal(err)
		}
	}
	batch := New(s.Catalog, s.Stats, storage.BytesForGB(3))
	batch.Parallelism = 4
	if err := batch.AddQueries(qs, []float64{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if len(batch.queries) != len(serial.queries) {
		t.Fatalf("batch registered %d queries, serial %d", len(batch.queries), len(serial.queries))
	}
	for i := range serial.queries {
		sq, bq := serial.queries[i], batch.queries[i]
		if sq.Query.Name != bq.Query.Name || sq.Weight != bq.Weight {
			t.Errorf("query %d: (%s, %v) != (%s, %v)", i, sq.Query.Name, sq.Weight, bq.Query.Name, bq.Weight)
		}
		sBase, _, sErr := sq.Cache.Cost(&query.Config{})
		bBase, _, bErr := bq.Cache.Cost(&query.Config{})
		if sErr != nil || bErr != nil || math.Float64bits(sBase) != math.Float64bits(bBase) {
			t.Errorf("%s: base cost %v (%v) != %v (%v)", sq.Query.Name, sBase, sErr, bBase, bErr)
		}
		if sq.Cache.Stats.OptimizerCalls != bq.Cache.Stats.OptimizerCalls ||
			sq.Cache.Stats.PlansCached != bq.Cache.Stats.PlansCached {
			t.Errorf("%s: cache stats differ: %+v vs %+v", sq.Query.Name, sq.Cache.Stats, bq.Cache.Stats)
		}
	}
	if b, s := optimizerCalls(batch), optimizerCalls(serial); b != s {
		t.Errorf("batch spent %d optimizer calls, serial %d", b, s)
	}
	sres, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	bres, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sres.FinalCost) != math.Float64bits(bres.FinalCost) {
		t.Errorf("final costs differ: %v vs %v", sres.FinalCost, bres.FinalCost)
	}
	if len(sres.Chosen) != len(bres.Chosen) {
		t.Fatalf("chose %d vs %d indexes", len(sres.Chosen), len(bres.Chosen))
	}
	for i := range sres.Chosen {
		if sres.Chosen[i].Key() != bres.Chosen[i].Key() {
			t.Errorf("pick %d: %s vs %s", i, sres.Chosen[i].Key(), bres.Chosen[i].Key())
		}
	}
}

func TestAddQueriesWeightValidation(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	ad := New(s.Catalog, s.Stats, storage.BytesForGB(1))
	if err := ad.AddQueries(qs[:3], []float64{1, 2}); err == nil {
		t.Error("mismatched weights accepted")
	}
}

func TestExternalCandidates(t *testing.T) {
	s, ad, qs := setup(t, 5, 2)
	a, err := optimizer.NewAnalysis(qs[0], s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	ix := storage.HypotheticalIndex("custom", s.Catalog.Table("fact"), []string{"a1", "m1"})
	if !ad.AddCandidate(ix) {
		t.Error("first AddCandidate rejected")
	}
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount != 1 {
		t.Errorf("candidate count %d, want 1 (only the external one)", res.CandidateCount)
	}
}

// TestAddCandidateDedupesByName checks the shared dedup set: repeated
// external candidates and external duplicates of generated candidates are
// both rejected by name.
func TestAddCandidateDedupesByName(t *testing.T) {
	s, ad, _ := setup(t, 5, 2)
	ix := storage.HypotheticalIndex("custom", s.Catalog.Table("fact"), []string{"a1", "m1"})
	if !ad.AddCandidate(ix) {
		t.Fatal("first AddCandidate rejected")
	}
	if ad.AddCandidate(ix) {
		t.Error("duplicate AddCandidate accepted")
	}
	same := storage.HypotheticalIndex("custom", s.Catalog.Table("fact"), []string{"m2"})
	if ad.AddCandidate(same) {
		t.Error("same-named candidate accepted")
	}
	n := ad.GenerateCandidates()
	if n <= 1 {
		t.Fatalf("generation produced %d candidates", n)
	}
	if ad.AddCandidate(ad.candidates[1]) {
		t.Error("generated candidate re-added externally")
	}
	if len(ad.candidates) != n {
		t.Errorf("candidate list grew to %d after duplicate adds, want %d", len(ad.candidates), n)
	}
	if errs := ad.GenerationErrors(); len(errs) != 0 {
		t.Errorf("healthy workload recorded generation errors: %v", errs)
	}
}

// runReference is the advisor's test oracle: the greedy search with every
// configuration re-priced from scratch through Cache.Cost, one serial loop.
// It is independent of the search it checks — it calls neither Search
// nor anything in costmatrix — and restates the budget filter, the weighted
// objective Σ wᵢ·cᵢ in query order and the strict-improvement pick, so a
// divergence in Search's loop or in the engine's arithmetic shows as a
// different pick or different cost bits.
func runReference(ad *Advisor) (*Result, error) {
	if len(ad.candidates) == 0 {
		ad.GenerateCandidates()
	}
	price := func(chosen []*catalog.Index) (float64, []float64, error) {
		cfg := &query.Config{Indexes: chosen}
		total, per := 0.0, make([]float64, len(ad.queries))
		for i, qs := range ad.queries {
			c, _, err := qs.Cache.Cost(cfg)
			if err != nil {
				return 0, nil, err
			}
			total += qs.Weight * c
			per[i] = c
		}
		return total, per, nil
	}
	res := &Result{PerQuery: make(map[string][2]float64), CandidateCount: len(ad.candidates)}
	base, basePer, err := price(nil)
	if err != nil {
		return nil, err
	}
	remaining := slices.Clone(ad.candidates)
	var chosen []*catalog.Index
	var used int64
	current := base
	for ad.MaxIndexes <= 0 || len(chosen) < ad.MaxIndexes {
		bestIdx, bestCost := -1, current
		for i, cand := range remaining {
			if used+storage.IndexBytes(cand) > ad.BudgetBytes {
				continue
			}
			c, _, err := price(append(slices.Clip(chosen), cand))
			if err != nil {
				return nil, err
			}
			if c < bestCost-1e-9 {
				bestIdx, bestCost = i, c
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, remaining[bestIdx])
		used += storage.IndexBytes(remaining[bestIdx])
		current = bestCost
		remaining = slices.Delete(remaining, bestIdx, bestIdx+1)
		res.Rounds++
	}
	final, finalPer, err := price(chosen)
	if err != nil {
		return nil, err
	}
	res.Chosen, res.TotalBytes, res.BaseCost, res.FinalCost = chosen, used, base, final
	for i, qs := range ad.queries {
		res.PerQuery[qs.Query.Name] = [2]float64{basePer[i], finalPer[i]}
	}
	return res, nil
}

// assertIdenticalResults fails unless the two results are bit-identical:
// same picks in the same per-round order, bit-equal base/final and
// per-query costs, same byte budget and round count.
func assertIdenticalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(want.Chosen) == 0 {
		t.Fatalf("%s: reference chose nothing; the comparison is vacuous", label)
	}
	if len(got.Chosen) != len(want.Chosen) {
		t.Fatalf("%s: chose %d indexes, reference %d", label, len(got.Chosen), len(want.Chosen))
	}
	for i := range want.Chosen {
		if got.Chosen[i].Key() != want.Chosen[i].Key() {
			t.Errorf("%s: round %d pick %s, reference %s", label, i, got.Chosen[i].Key(), want.Chosen[i].Key())
		}
	}
	if math.Float64bits(got.BaseCost) != math.Float64bits(want.BaseCost) {
		t.Errorf("%s: base cost %v, reference %v", label, got.BaseCost, want.BaseCost)
	}
	if math.Float64bits(got.FinalCost) != math.Float64bits(want.FinalCost) {
		t.Errorf("%s: final cost %v, reference %v", label, got.FinalCost, want.FinalCost)
	}
	if got.TotalBytes != want.TotalBytes || got.Rounds != want.Rounds {
		t.Errorf("%s: (%d bytes, %d rounds), reference (%d bytes, %d rounds)",
			label, got.TotalBytes, got.Rounds, want.TotalBytes, want.Rounds)
	}
	if len(got.PerQuery) != len(want.PerQuery) {
		t.Fatalf("%s: %d per-query entries, reference %d", label, len(got.PerQuery), len(want.PerQuery))
	}
	for name, we := range want.PerQuery {
		ge, ok := got.PerQuery[name]
		if !ok || math.Float64bits(ge[0]) != math.Float64bits(we[0]) ||
			math.Float64bits(ge[1]) != math.Float64bits(we[1]) {
			t.Errorf("%s: %s per-query costs %v, reference %v", label, name, ge, we)
		}
	}
}

// TestRunMatchesReferenceStarWorkload is the engine's equivalence
// guarantee on the full star workload: the incremental engine's chosen
// set, per-round picks, and costs are bit-identical to the naive
// full-repricing oracle (runReference), at every Parallelism setting — and
// the engine stats prove the table index actually pruned work.
func TestRunMatchesReferenceStarWorkload(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		ad := New(s.Catalog, s.Stats, storage.BytesForGB(5))
		ad.Parallelism = par
		if err := ad.AddQueries(qs, nil); err != nil {
			t.Fatal(err)
		}
		ref, err := runReference(ad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ad.Run()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("parallelism=%d", par)
		assertIdenticalResults(t, label, got, ref)

		// Engine-work accounting: every candidate evaluation visits each
		// query exactly once, as a delta or as a skip.
		st := got.Engine
		if st.QueryEvals == 0 || st.CandidateEvals == 0 {
			t.Errorf("%s: engine did no work: %+v", label, st)
		}
		if st.QuerySkips == 0 {
			t.Errorf("%s: table index skipped nothing on a workload with unreferenced tables: %+v", label, st)
		}
		if st.QueryEvals+st.QuerySkips != st.CandidateEvals*int64(len(qs)) {
			t.Errorf("%s: evals %d + skips %d != candidate evals %d × %d queries",
				label, st.QueryEvals, st.QuerySkips, st.CandidateEvals, len(qs))
		}
		if st.Applies != int64(got.Rounds) {
			t.Errorf("%s: %d applies for %d rounds", label, st.Applies, got.Rounds)
		}
	}
}

// TestEngineFoldsOnlyWhatMoved guards the engine's work reduction on the
// 10-query star workload at 1, 5 and 20 GB: the search folds at most 0.3 ×
// the entries a full re-fold of every query evaluation would. That count is
// Σ len(Plans) over the evaluations the search performed, replayed here
// from its picks: each round evaluates every remaining candidate that fits
// the budget left, and a candidate evaluates every query that reads its
// table.
func TestEngineFoldsOnlyWhatMoved(t *testing.T) {
	for _, gb := range []float64{1, 5, 20} {
		_, ad, _ := setup(t, gb, 10)
		res, err := ad.Run()
		if err != nil {
			t.Fatal(err)
		}
		var evals, full, used int64
		remaining := ad.Candidates()
		for round := 0; ; round++ {
			for _, cand := range remaining {
				if used+storage.IndexBytes(cand) > ad.BudgetBytes {
					continue
				}
				for _, qs := range ad.queries {
					if slices.ContainsFunc(qs.Query.Rels, func(r query.Rel) bool { return r.Table.Name == cand.Table }) {
						evals++
						full += int64(len(qs.Cache.Plans))
					}
				}
			}
			if round == len(res.Chosen) {
				break
			}
			pick := res.Chosen[round]
			used += storage.IndexBytes(pick)
			remaining = slices.DeleteFunc(remaining, func(ix *catalog.Index) bool { return ix == pick })
		}
		st := res.Engine
		if evals != st.QueryEvals {
			t.Fatalf("%g GB: the replay counts %d query evaluations, the engine %d", gb, evals, st.QueryEvals)
		}
		t.Logf("%g GB: %d rounds, %d entry folds of a full re-fold's %d (%.1f %%)",
			gb, res.Rounds, st.PlanEvals, full, 100*float64(st.PlanEvals)/float64(full))
		if st.PlanEvals == 0 || float64(st.PlanEvals) > 0.3*float64(full) {
			t.Errorf("%g GB: %d entry folds, want in (0, 0.3 × %d]", gb, st.PlanEvals, full)
		}
	}
}

// selfJoinQuery builds a query joining dim1_1 to itself, plus a filter, so
// one table owns two relation slots with different requirements.
func selfJoinQuery(t *testing.T, s *workload.Star, name string, orderCol string) *query.Query {
	t.Helper()
	d := s.Catalog.Table("dim1_1")
	if d == nil {
		t.Fatal("no dim1_1 table")
	}
	q := &query.Query{
		Name: name,
		Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
		Joins: []query.Join{{
			Left:  query.ColRef{Rel: 0, Column: "a1"},
			Right: query.ColRef{Rel: 1, Column: "id"},
		}},
		Filters: []query.Filter{{
			Col: query.ColRef{Rel: 0, Column: "a2"}, Op: query.Between, Value: 1, Value2: 1000,
		}},
		Select:  []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
		OrderBy: []query.ColRef{{Rel: 1, Column: orderCol}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRunMatchesReferenceRandomizedWorkloads re-runs the equivalence check
// over randomized multi-table workloads (different generation seeds, mixed
// weights) that include self-join queries.
func TestRunMatchesReferenceRandomizedWorkloads(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 19, 23} {
		qs, err := s.Queries(seed)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs[:5],
			selfJoinQuery(t, s, fmt.Sprintf("SJ%d-a", seed), "a2"),
			selfJoinQuery(t, s, fmt.Sprintf("SJ%d-b", seed), "a3"))
		weights := make([]float64, len(qs))
		for i := range weights {
			weights[i] = float64(1 + (int(seed)+i)%4)
		}
		ad := New(s.Catalog, s.Stats, storage.BytesForGB(3))
		ad.Parallelism = 4
		if err := ad.AddQueries(qs, weights); err != nil {
			t.Fatal(err)
		}
		ref, err := runReference(ad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ad.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalResults(t, fmt.Sprintf("seed=%d", seed), got, ref)
	}
}

// TestRunMatchesReferenceSelfJoinMix holds Run to the oracle on the workload
// plancache's slim/tree equivalence suite prices: six star queries and two
// self-joins, weights 1 + i%3, a 4 GB budget.
func TestRunMatchesReferenceSelfJoinMix(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs[:6], selfJoinQuery(t, s, "SJ-a", "a2"), selfJoinQuery(t, s, "SJ-b", "a3"))
	weights := make([]float64, len(qs))
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	ad := New(s.Catalog, s.Stats, storage.BytesForGB(4))
	if err := ad.AddQueries(qs, weights); err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, "self-join mix", got, ref)
}

// TestCandidateIndexesIsGenerateCandidates: the rule on a fresh session
// yields, in order, the keys GenerateCandidates registers on an advisor
// whose session already holds the caches' covering indexes — one rule,
// whichever session it declares on — and a large set for a 7-way join.
func TestCandidateIndexesIsGenerateCandidates(t *testing.T) {
	s, ad, _ := setup(t, 5, 10)
	ad.GenerateCandidates()
	analyses := make([]*optimizer.Analysis, len(ad.queries))
	for i, qs := range ad.queries {
		analyses[i] = qs.A
	}
	if q10, _ := CandidateIndexes(whatif.NewSession(s.Catalog), analyses[9:]); len(q10) < 20 {
		t.Errorf("only %d candidates for the 7-way join %s", len(q10), analyses[9].Q.Name)
	}
	got, errs := CandidateIndexes(whatif.NewSession(s.Catalog), analyses)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(got) != len(ad.candidates) {
		t.Fatalf("rule yields %d candidates, GenerateCandidates %d", len(got), len(ad.candidates))
	}
	for i, ix := range got {
		if ix.Key() != ad.candidates[i].Key() {
			t.Errorf("candidate %d: rule %s, GenerateCandidates %s", i, ix.Key(), ad.candidates[i].Key())
		}
	}
}

// TestSearchStopsWhenCancelled: a search whose context is done returns its
// error, wrapped, before the first round; with a live context it is Run.
func TestSearchStopsWhenCancelled(t *testing.T) {
	_, ad, _ := setup(t, 5, 10)
	want, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]costmatrix.Query, len(ad.queries))
	for i, qs := range ad.queries {
		specs[i] = costmatrix.Query{Cache: qs.Cache, Weight: qs.Weight}
	}
	ctx, cancel := context.WithCancel(context.Background())
	got, err := Search(ctx, specs, ad.candidates, ad.BudgetBytes, ad.MaxIndexes, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, "live context", got, want)
	cancel()
	if res, err := Search(ctx, specs, ad.candidates, ad.BudgetBytes, ad.MaxIndexes, 2); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled search: %v, %v; want context.Canceled and no result", res, err)
	}
}
