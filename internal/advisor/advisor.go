// Package advisor implements the paper's §V-E index selection tool: a
// greedy algorithm that, given a workload and a disk-space budget, picks
// the index set with the best estimated benefit. Every benefit evaluation
// goes through the PINUM plan caches, so adding thousands of candidates
// costs arithmetic, not optimizer calls — the property that lets the simple
// greedy search use "a significantly larger candidate index set" than
// commercial designers.
//
// The greedy search runs on the incremental cost engine of
// internal/costmatrix: each round prices chosen+candidate as a delta over
// the shared per-(query, plan, relation) cost matrix instead of re-pricing
// the whole workload, and a table→queries index skips queries the
// candidate cannot affect. Results are bit-identical to the full
// re-pricing search, which the tests keep as the oracle.
package advisor

import (
	"fmt"
	"math"
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
	// BaseCost is the estimated cost with no indexes at all.
	BaseCost float64
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
	// PerQuery maps query name → (base, final) cost estimates.
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
	// corresponding candidates are absent from the search.
	GenerationErrors []error
	Duration         time.Duration
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
	calls      int
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
// already exist — the serving layer's path, where one immutable cache set
// is built (or loaded from a snapshot) at startup and every /recommend
// request prices it through a fresh Advisor. The cache is shared, not
// copied: pricing only reads it, and the greedy search's own state lives
// in the per-run cost engine. A weight ≤ 0 counts as 1.
func (ad *Advisor) AddPrepared(q *query.Query, a *optimizer.Analysis, cache *inum.Cache, weight float64) error {
	if weight <= 0 {
		weight = 1
	}
	ad.calls += cache.Stats.OptimizerCalls
	base, _, err := cache.Cost(&query.Config{})
	if err != nil {
		return fmt.Errorf("advisor: base cost for %s: %w", q.Name, err)
	}
	ad.queries = append(ad.queries, &QueryState{
		Query: q, A: a, Cache: cache, Weight: weight, BaseCost: base,
	})
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

// GenerateCandidates derives the syntactic candidate set from the
// registered queries ("statically analyses the queries to find a large set
// of candidate indexes"): single-column indexes on every referenced column,
// two-column order+column indexes, and covering indexes per interesting
// order and per relation. Index-creation failures are recorded
// (GenerationErrors, surfaced on the Result) instead of silently dropped.
func (ad *Advisor) GenerateCandidates() int {
	add := func(table string, cols ...string) {
		ix, err := ad.ws.CreateIndex(table, cols...)
		if err != nil {
			ad.genErrs = append(ad.genErrs,
				fmt.Errorf("advisor: candidate %s(%s): %w", table, strings.Join(cols, ","), err))
			return
		}
		ad.addCandidate(ix)
	}
	for _, qs := range ad.queries {
		for i := range qs.A.Rels {
			ri := &qs.A.Rels[i]
			cols := ri.Needed
			for _, c := range cols {
				add(ri.Table.Name, c)
			}
			for _, lead := range ri.Interesting {
				for _, c := range cols {
					if c != lead {
						add(ri.Table.Name, lead, c)
					}
				}
				covering := []string{lead}
				for _, c := range cols {
					if c != lead {
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
	return len(ad.candidates)
}

// GenerationErrors returns the candidate-generation failures recorded so
// far.
func (ad *Advisor) GenerationErrors() []error { return ad.genErrs }

// Candidates returns the registered candidate indexes in registration
// order. A long-lived server generates the workload's candidate set once
// and feeds it to every per-request advisor through AddCandidate instead
// of regenerating it per request.
func (ad *Advisor) Candidates() []*catalog.Index {
	return append([]*catalog.Index(nil), ad.candidates...)
}

// AddCandidate registers an externally supplied candidate index,
// deduplicating by name against both earlier AddCandidate calls and
// generated candidates. It reports whether the candidate was new.
func (ad *Advisor) AddCandidate(ix *catalog.Index) bool {
	return ad.addCandidate(ix)
}

// addCandidate appends ix unless a candidate of the same name is already
// registered — the one dedup gate both GenerateCandidates and AddCandidate
// go through.
func (ad *Advisor) addCandidate(ix *catalog.Index) bool {
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

// Run executes the greedy selection loop on the incremental cost engine:
// in each round, evaluate every remaining candidate alongside the
// already-chosen set as a delta over the shared cost matrix, keep the one
// with the highest benefit, and stop when the budget is exhausted or no
// candidate helps. Candidate evaluations within a round run across the
// advisor's worker pool (Parallelism); the result is bit-identical to the
// serial search and to re-pricing the whole workload through Cache.Cost per
// candidate (the test oracle).
func (ad *Advisor) Run() (*Result, error) {
	start := time.Now()
	if len(ad.queries) == 0 {
		return nil, fmt.Errorf("advisor: no queries registered")
	}
	specs := make([]costmatrix.Query, len(ad.queries))
	for i, qs := range ad.queries {
		specs[i] = costmatrix.Query{Cache: qs.Cache, Weight: qs.Weight}
	}
	eng, err := costmatrix.New(specs)
	if err != nil {
		return nil, err
	}
	return ad.runGreedy(eng, start), nil
}

// runGreedy is the selection loop: budget filtering, the per-round fan-out
// over the engine, and the deterministic reduce.
func (ad *Advisor) runGreedy(eng *costmatrix.Engine, start time.Time) *Result {
	if len(ad.candidates) == 0 {
		ad.GenerateCandidates()
	}
	res := &Result{PerQuery: make(map[string][2]float64), CandidateCount: len(ad.candidates)}

	res.BaseCost = eng.TotalCost()
	for i, c := range eng.QueryCosts() {
		res.PerQuery[ad.queries[i].Query.Name] = [2]float64{c, c}
	}

	remaining := append([]*catalog.Index(nil), ad.candidates...)
	var chosen []*catalog.Index
	var usedBytes int64
	current := res.BaseCost

	for {
		if ad.MaxIndexes > 0 && len(chosen) >= ad.MaxIndexes {
			break
		}
		// Candidates that still fit the budget this round.
		eligible := make([]int, 0, len(remaining))
		for i, cand := range remaining {
			if usedBytes+storage.IndexBytes(cand) <= ad.BudgetBytes {
				eligible = append(eligible, i)
			}
		}
		costs := make([]float64, len(eligible))
		core.Fan(len(eligible), ad.Parallelism, func() func(int) {
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
		chosen = append(chosen, pick)
		usedBytes += storage.IndexBytes(pick)
		current = bestCost
		remaining = append(remaining[:bestIdx:bestIdx], remaining[bestIdx+1:]...)
		eng.Apply(pick)
		res.Rounds++
	}

	res.Chosen = chosen
	res.TotalBytes = usedBytes
	res.FinalCost = eng.TotalCost()
	res.OptimizerCalls = ad.calls
	for i, c := range eng.QueryCosts() {
		e := res.PerQuery[ad.queries[i].Query.Name]
		e[1] = c
		res.PerQuery[ad.queries[i].Query.Name] = e
	}
	res.Engine = eng.Stats()
	res.GenerationErrors = append([]error(nil), ad.genErrs...)
	res.Duration = time.Since(start)
	return res
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
