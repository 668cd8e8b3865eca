// Package advisor implements the paper's §V-E index selection tool: a
// greedy algorithm that, given a workload and a disk-space budget, picks
// the index set with the best estimated benefit. Every benefit evaluation
// goes through the PINUM plan caches, so adding thousands of candidates
// costs arithmetic, not optimizer calls — the property that lets the simple
// greedy search use "a significantly larger candidate index set" than
// commercial designers.
//
// The tool has two parts. CandidateIndexes is the one candidate rule: it
// statically analyses the queries into a large syntactic candidate set.
// Search is the one greedy loop: it runs on the incremental cost engine of
// internal/costmatrix, where each round prices chosen+candidate as a delta
// over the shared per-(query, plan, relation) cost matrix instead of
// re-pricing the whole workload, and a table→queries index skips queries
// the candidate cannot affect. Results are bit-identical to the full
// re-pricing search, which the tests keep as the oracle. Advisor binds the
// two to a workload it builds or is handed; a server that already holds
// its caches and candidate set calls Search directly.
package advisor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
)

// QueryState bundles one workload query with its analysis and PINUM cache.
type QueryState struct {
	Query *query.Query
	A     *optimizer.Analysis
	Cache *inum.Cache
	// Weight scales the query's cost in the workload objective
	// (frequency in the workload; 1 by default).
	Weight float64
}

// Result reports the advisor's suggestion.
type Result struct {
	// Chosen is the selected index set, in pick order (one entry per
	// greedy round, so this doubles as the per-round pick log).
	Chosen []*catalog.Index
	// TotalBytes is the footprint of the chosen set.
	TotalBytes int64
	// BaseCost and FinalCost are workload cost estimates before/after.
	BaseCost, FinalCost float64
	// PerQuery maps query name (Cache.Q.Name) → (base, final) cost
	// estimates.
	PerQuery map[string][2]float64
	// CandidateCount is the number of candidate indexes examined.
	CandidateCount int
	// OptimizerCalls is the total number of optimizer invocations spent
	// (cache construction only — the greedy loop itself makes none).
	OptimizerCalls int
	// Rounds is the number of greedy iterations performed.
	Rounds int
	// Engine reports the incremental cost engine's work: how many
	// per-query delta evaluations the greedy rounds performed
	// (Engine.QueryEvals), how many the table→queries index skipped
	// outright (Engine.QuerySkips), and how many cached entries the
	// evaluations re-priced because they read a slot the candidate
	// lowered (Engine.PlanEvals).
	Engine costmatrix.Stats
	// GenerationErrors records candidate-generation failures
	// (GenerateCandidates index creations that were rejected); the
	// corresponding candidates are absent from the search. Search leaves it
	// empty; Advisor.Run fills it.
	GenerationErrors []error
	// Duration is the search's wall time, cost engine construction
	// included.
	Duration time.Duration
}

// Advisor selects indexes for a workload under a space budget.
type Advisor struct {
	cat *catalog.Catalog
	st  *stats.Store
	// BudgetBytes caps the total size of the suggested index set.
	BudgetBytes int64
	// MaxIndexes optionally caps the number of suggested indexes
	// (0 = unlimited).
	MaxIndexes int
	// Parallelism bounds the worker pool used for batch cache construction
	// (AddQueries) and for fanning out candidate evaluations inside Run's
	// greedy rounds. 0 means GOMAXPROCS (core.Fan's default resolution);
	// 1 forces the serial path. Results are bit-identical at every
	// setting.
	Parallelism int

	queries    []*QueryState
	candidates []*catalog.Index
	seen       map[string]bool // candidate names, the shared dedup set
	genErrs    []error
	ws         *whatif.Session
}

// New returns an advisor over the catalog and statistics.
func New(cat *catalog.Catalog, st *stats.Store, budgetBytes int64) *Advisor {
	return &Advisor{
		cat:         cat,
		st:          st,
		BudgetBytes: budgetBytes,
		seen:        make(map[string]bool),
		ws:          whatif.NewSession(cat),
	}
}

// AddQuery registers a workload query with the given frequency weight,
// building its analysis and PINUM plan cache on the advisor's what-if
// session, then adding them as AddPrepared does.
func (ad *Advisor) AddQuery(q *query.Query, weight float64) error {
	a, err := optimizer.NewAnalysis(q, ad.st, optimizer.DefaultCostParams())
	if err != nil {
		return err
	}
	cache, err := core.BuildSlim(a, ad.ws)
	if err != nil {
		return fmt.Errorf("advisor: building cache for %s: %w", q.Name, err)
	}
	return ad.AddPrepared(q, a, cache, weight)
}

// AddPrepared registers a workload query whose analysis and plan cache
// already exist (built elsewhere, or loaded from a snapshot). The cache is
// shared, not copied: pricing only reads it, and the greedy search's own
// state lives in the per-run cost engine. A weight ≤ 0 counts as 1. An
// empty cache is refused by Run, when the cost engine is built.
func (ad *Advisor) AddPrepared(q *query.Query, a *optimizer.Analysis, cache *inum.Cache, weight float64) error {
	if weight <= 0 {
		weight = 1
	}
	ad.queries = append(ad.queries, &QueryState{Query: q, A: a, Cache: cache, Weight: weight})
	return nil
}

// AddQueries registers a whole workload at once, building the PINUM plan
// caches across the advisor's worker pool (core.BuildAllSlim). weights may be
// nil, meaning weight 1 for every query; otherwise it must be parallel to
// queries. Queries are added in input order through AddPrepared, so the
// advisor's state is identical to calling AddQuery serially.
func (ad *Advisor) AddQueries(queries []*query.Query, weights []float64) error {
	if len(weights) != 0 && len(weights) != len(queries) {
		return fmt.Errorf("advisor: %d weights for %d queries", len(weights), len(queries))
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		a, err := optimizer.NewAnalysis(q, ad.st, optimizer.DefaultCostParams())
		if err != nil {
			return err
		}
		analyses[i] = a
	}
	caches, err := core.BuildAllSlim(analyses, ad.cat, ad.Parallelism)
	if err != nil {
		return fmt.Errorf("advisor: building caches: %w", err)
	}
	for i, q := range queries {
		var w float64
		if len(weights) != 0 {
			w = weights[i]
		}
		if err := ad.AddPrepared(q, analyses[i], caches[i], w); err != nil {
			return err
		}
	}
	return nil
}

// CandidateIndexes is the advisor's candidate rule, §V-E's "statically
// analyses the queries to find a large set of candidate indexes". For every
// relation of every query it declares on ws, in this order:
//
//   - one single-column index per referenced column;
//   - per interesting order, one two-column index per (order column, other
//     referenced column) pair, then one covering index (order column first,
//     then every other referenced column);
//   - one index on all the relation's referenced columns, in their order.
//
// The result lists each distinct descriptor once, in first-declaration
// order (ws deduplicates by table and columns). Each declaration ws
// rejects is returned as an error and leaves its candidate out.
func CandidateIndexes(ws *whatif.Session, analyses []*optimizer.Analysis) ([]*catalog.Index, []error) {
	var (
		out  []*catalog.Index
		errs []error
		seen = make(map[string]bool)
	)
	add := func(table string, cols ...string) {
		ix, err := ws.CreateIndex(table, cols...)
		if err != nil {
			errs = append(errs, fmt.Errorf("advisor: candidate %s(%s): %w", table, strings.Join(cols, ","), err))
			return
		}
		if !seen[ix.Name] {
			seen[ix.Name] = true
			out = append(out, ix)
		}
	}
	for _, a := range analyses {
		for i := range a.Rels {
			ri := &a.Rels[i]
			cols := ri.Needed
			for _, c := range cols {
				add(ri.Table.Name, c)
			}
			for _, lead := range ri.Interesting {
				covering := []string{lead}
				for _, c := range cols {
					if c != lead {
						add(ri.Table.Name, lead, c)
						covering = append(covering, c)
					}
				}
				if len(covering) > 1 {
					add(ri.Table.Name, covering...)
				}
			}
			if len(cols) > 1 {
				add(ri.Table.Name, cols...)
			}
		}
	}
	return out, errs
}

// GenerateCandidates registers CandidateIndexes over the registered
// queries, on the advisor's what-if session, and returns the number of
// candidates now registered. Index-creation failures are recorded
// (GenerationErrors, surfaced on the Result) instead of silently dropped.
func (ad *Advisor) GenerateCandidates() int {
	analyses := make([]*optimizer.Analysis, len(ad.queries))
	for i, qs := range ad.queries {
		analyses[i] = qs.A
	}
	cands, errs := CandidateIndexes(ad.ws, analyses)
	ad.genErrs = append(ad.genErrs, errs...)
	for _, ix := range cands {
		ad.AddCandidate(ix)
	}
	return len(ad.candidates)
}

// GenerationErrors returns the candidate-generation failures recorded so
// far.
func (ad *Advisor) GenerationErrors() []error { return ad.genErrs }

// Candidates returns the registered candidate indexes in registration
// order.
func (ad *Advisor) Candidates() []*catalog.Index {
	return slices.Clone(ad.candidates)
}

// AddCandidate registers a candidate index unless one of the same name is
// already registered — the one dedup gate for generated and externally
// supplied candidates. It reports whether the candidate was new.
func (ad *Advisor) AddCandidate(ix *catalog.Index) bool {
	if ad.seen == nil {
		ad.seen = make(map[string]bool)
	}
	if ad.seen[ix.Name] {
		return false
	}
	ad.seen[ix.Name] = true
	ad.candidates = append(ad.candidates, ix)
	return true
}

// Run searches the registered workload (Search, without a deadline) over
// the registered candidates, generating them first if none are.
func (ad *Advisor) Run() (*Result, error) {
	if len(ad.candidates) == 0 {
		ad.GenerateCandidates()
	}
	specs := make([]costmatrix.Query, len(ad.queries))
	for i, qs := range ad.queries {
		specs[i] = costmatrix.Query{Cache: qs.Cache, Weight: qs.Weight}
	}
	res, err := Search(context.Background(), specs, ad.candidates, ad.BudgetBytes, ad.MaxIndexes, ad.Parallelism)
	if err != nil {
		return nil, err
	}
	res.GenerationErrors = slices.Clone(ad.genErrs)
	return res, nil
}

// Search is the greedy selection loop on the incremental cost engine: in
// each round, evaluate every remaining candidate that fits budgetBytes
// alongside the already-chosen set as a delta over the shared cost matrix,
// keep the one with the highest benefit, and stop when the budget is
// exhausted, maxIndexes are chosen (0 = no cap) or no candidate helps.
// Candidate evaluations within a round fan over parallelism workers
// (core.Fan's resolution: 0 = GOMAXPROCS); the result is bit-identical to
// the serial search and to re-pricing the whole workload through
// Cache.Cost per candidate (the test oracle). Search reads queries and
// candidates and writes neither. It checks ctx before each round and
// returns ctx's error, wrapped, once ctx is done.
func Search(ctx context.Context, queries []costmatrix.Query, candidates []*catalog.Index, budgetBytes int64, maxIndexes, parallelism int) (*Result, error) {
	start := time.Now()
	if len(queries) == 0 {
		return nil, fmt.Errorf("advisor: no queries registered")
	}
	eng, err := costmatrix.New(queries)
	if err != nil {
		return nil, err
	}
	res := &Result{PerQuery: make(map[string][2]float64), CandidateCount: len(candidates)}
	res.BaseCost = eng.TotalCost()
	for i, c := range eng.QueryCosts() {
		res.PerQuery[queries[i].Cache.Q.Name] = [2]float64{c, c}
		res.OptimizerCalls += queries[i].Cache.Stats.OptimizerCalls
	}

	remaining := slices.Clone(candidates)
	current := res.BaseCost
	for maxIndexes <= 0 || len(res.Chosen) < maxIndexes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("advisor: search stopped after %d rounds: %w", res.Rounds, err)
		}
		// Candidates that still fit the budget this round.
		eligible := make([]int, 0, len(remaining))
		for i, cand := range remaining {
			if res.TotalBytes+storage.IndexBytes(cand) <= budgetBytes {
				eligible = append(eligible, i)
			}
		}
		costs := make([]float64, len(eligible))
		core.Fan(len(eligible), parallelism, func() func(int) {
			return func(j int) {
				costs[j] = eng.EvaluateCandidate(remaining[eligible[j]])
			}
		})
		// Deterministic reduce: scan in candidate order with the same
		// strict-improvement rule the serial loop used, so ties break to
		// the lowest candidate index and the pick is bit-identical at any
		// parallelism.
		bestIdx := -1
		bestCost := current
		for j, i := range eligible {
			//pinum:costarith-ok greedy strict-improvement threshold, not a cost formula; identical on serial and parallel paths (TestParallelRunMatchesSerial)
			if c := costs[j]; c < bestCost-1e-9 {
				bestCost = c
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		pick := remaining[bestIdx]
		res.Chosen = append(res.Chosen, pick)
		res.TotalBytes += storage.IndexBytes(pick)
		current = bestCost
		remaining = slices.Delete(remaining, bestIdx, bestIdx+1)
		eng.Apply(pick)
		res.Rounds++
	}

	res.FinalCost = eng.TotalCost()
	for i, c := range eng.QueryCosts() {
		name := queries[i].Cache.Q.Name
		res.PerQuery[name] = [2]float64{res.PerQuery[name][0], c}
	}
	res.Engine = eng.Stats()
	res.Duration = time.Since(start)
	return res, nil
}

// Speedup returns the estimated workload speedup fraction (the paper
// reports 95 % on the star workload).
func (r *Result) Speedup() float64 {
	if r.BaseCost <= 0 {
		return 0
	}
	//pinum:costarith-ok reporting-only ratio of two already-computed totals; feeds no plan or selection decision
	s := 1 - r.FinalCost/r.BaseCost
	return math.Max(0, s)
}
