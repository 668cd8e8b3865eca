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
// re-pricing search, which RunReference retains as the oracle.
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
	// (Engine.QueryEvals) and how many the table→queries index skipped
	// outright (Engine.QuerySkips). All-zero after RunReference, which
	// re-prices every query for every candidate.
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
// building its analysis and PINUM plan cache.
func (ad *Advisor) AddQuery(q *query.Query, weight float64) error {
	if weight <= 0 {
		weight = 1
	}
	a, err := optimizer.NewAnalysis(q, ad.st, optimizer.DefaultCostParams())
	if err != nil {
		return err
	}
	cache, err := core.Build(a, ad.ws)
	if err != nil {
		return fmt.Errorf("advisor: building cache for %s: %w", q.Name, err)
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

// AddPrepared registers a workload query whose analysis and plan cache
// already exist — the serving layer's path, where one immutable cache set
// is built (or loaded from a snapshot) at startup and every /recommend
// request prices it through a fresh Advisor. The cache is shared, not
// copied: pricing only reads it, and the greedy search's own state lives
// in the per-run cost engine.
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
// caches across the advisor's worker pool (core.BuildAll). weights may be
// nil, meaning weight 1 for every query; otherwise it must be parallel to
// queries. Queries are appended in input order, so the advisor's state is
// identical to calling AddQuery serially.
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
	caches, err := core.BuildAll(analyses, ad.cat, ad.Parallelism, false)
	if err != nil {
		return fmt.Errorf("advisor: building caches: %w", err)
	}
	for i, q := range queries {
		w := 1.0
		if len(weights) != 0 && weights[i] > 0 {
			w = weights[i]
		}
		ad.calls += caches[i].Stats.OptimizerCalls
		base, _, err := caches[i].Cost(&query.Config{})
		if err != nil {
			return fmt.Errorf("advisor: base cost for %s: %w", q.Name, err)
		}
		ad.queries = append(ad.queries, &QueryState{
			Query: q, A: analyses[i], Cache: caches[i], Weight: w, BaseCost: base,
		})
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

// workloadCost estimates the weighted workload cost under a configuration
// set (the chosen indexes). Each query independently picks its best atomic
// sub-configuration: for every relation, the cost model already minimises
// over the configuration's indexes on that table, so passing the full set
// is equivalent to the best atomic choice per cached plan. It allocates
// nothing beyond the Config wrapper — RunReference runs it once per
// candidate per greedy round.
func (ad *Advisor) workloadCost(chosen []*catalog.Index) (float64, error) {
	cfg := &query.Config{Indexes: chosen}
	total := 0.0
	for _, qs := range ad.queries {
		c, _, err := qs.Cache.Cost(cfg)
		if err != nil {
			return 0, err
		}
		//pinum:costarith-ok the workload objective Σ wᵢ·cᵢ on the reference path; the engine mirror is pinned by TestRunMatchesReferenceStarWorkload
		total += qs.Weight * c
	}
	return total, nil
}

// workloadCostPer is workloadCost plus the per-query cost breakdown
// (aligned with ad.queries), for the bookend calls that fill
// Result.PerQuery on the reference path.
func (ad *Advisor) workloadCostPer(chosen []*catalog.Index) (float64, []float64, error) {
	cfg := &query.Config{Indexes: chosen}
	total := 0.0
	per := make([]float64, len(ad.queries))
	for i, qs := range ad.queries {
		c, _, err := qs.Cache.Cost(cfg)
		if err != nil {
			return 0, nil, err
		}
		//pinum:costarith-ok same objective as workloadCost with the per-query breakdown kept; pinned by TestRunMatchesReferenceStarWorkload
		total += qs.Weight * c
		per[i] = c
	}
	return total, per, nil
}

// pricer abstracts how a greedy run prices configurations, so the
// engine-backed search (Run) and the full-repricing reference
// (RunReference) share one selection loop and differ only in arithmetic
// cost — never in results.
type pricer interface {
	// baseline returns the workload cost and per-query costs (aligned with
	// ad.queries) under no indexes.
	baseline() (float64, []float64, error)
	// evaluateRound prices chosen+remaining[i] for every i in eligible,
	// fanning the evaluations over the advisor's worker pool, and returns
	// one workload cost per eligible entry.
	evaluateRound(chosen, remaining []*catalog.Index, eligible []int) ([]float64, error)
	// commit applies the round's pick to any incremental state.
	commit(pick *catalog.Index)
	// final returns the workload cost and per-query costs under chosen.
	final(chosen []*catalog.Index) (float64, []float64, error)
	// stats reports the engine work performed (all-zero for the reference).
	stats() costmatrix.Stats
}

// referencePricer prices every configuration from scratch through
// Cache.Cost — the pre-engine greedy search, kept as the oracle the
// equivalence tests and benchmarks compare the incremental engine against.
type referencePricer struct{ ad *Advisor }

func (p *referencePricer) baseline() (float64, []float64, error) {
	return p.ad.workloadCostPer(nil)
}

func (p *referencePricer) final(chosen []*catalog.Index) (float64, []float64, error) {
	return p.ad.workloadCostPer(chosen)
}

func (p *referencePricer) commit(*catalog.Index) {}

func (p *referencePricer) stats() costmatrix.Stats { return costmatrix.Stats{} }

// evaluateRound re-prices the whole workload per candidate. Each worker
// owns one configuration slice (a copy of the chosen prefix plus a final
// slot it rewrites per candidate), so goroutines never share a backing
// array — which relies on Cache.Cost not retaining the slice it is passed.
func (p *referencePricer) evaluateRound(chosen, remaining []*catalog.Index, eligible []int) ([]float64, error) {
	costs := make([]float64, len(eligible))
	errs := make([]error, len(eligible))
	core.Fan(len(eligible), p.ad.Parallelism, func() func(int) {
		// Each worker reuses one config slice; only its last slot varies.
		cfg := make([]*catalog.Index, len(chosen)+1)
		copy(cfg, chosen)
		return func(j int) {
			cfg[len(chosen)] = remaining[eligible[j]]
			costs[j], errs[j] = p.ad.workloadCost(cfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return costs, nil
}

// enginePricer prices rounds through the incremental cost engine: each
// candidate evaluation touches only the plans on the candidate's table,
// and committed picks update the matrix in place.
type enginePricer struct {
	ad  *Advisor
	eng *costmatrix.Engine
}

func (p *enginePricer) baseline() (float64, []float64, error) {
	return p.eng.TotalCost(), p.eng.QueryCosts(), nil
}

func (p *enginePricer) final([]*catalog.Index) (float64, []float64, error) {
	return p.eng.TotalCost(), p.eng.QueryCosts(), nil
}

func (p *enginePricer) commit(pick *catalog.Index) { p.eng.Apply(pick) }

func (p *enginePricer) stats() costmatrix.Stats { return p.eng.Stats() }

func (p *enginePricer) evaluateRound(_, remaining []*catalog.Index, eligible []int) ([]float64, error) {
	costs := make([]float64, len(eligible))
	core.Fan(len(eligible), p.ad.Parallelism, func() func(int) {
		return func(j int) {
			costs[j] = p.eng.EvaluateCandidate(remaining[eligible[j]])
		}
	})
	return costs, nil
}

// Run executes the greedy selection loop on the incremental cost engine:
// in each round, evaluate every remaining candidate alongside the
// already-chosen set as a delta over the shared cost matrix, keep the one
// with the highest benefit, and stop when the budget is exhausted or no
// candidate helps. Candidate evaluations within a round run across the
// advisor's worker pool (Parallelism); the result is bit-identical to the
// serial search and to RunReference.
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
	return ad.runGreedy(&enginePricer{ad: ad, eng: eng}, start)
}

// RunReference executes the same greedy selection by re-pricing every
// query × candidate from scratch through Cache.Cost each round — the
// pre-engine search. It is retained as the oracle: equivalence tests
// assert Run's chosen set, per-round picks, and costs are bit-identical to
// it, and benchmarks quantify the engine's speedup against it.
func (ad *Advisor) RunReference() (*Result, error) {
	start := time.Now()
	if len(ad.queries) == 0 {
		return nil, fmt.Errorf("advisor: no queries registered")
	}
	return ad.runGreedy(&referencePricer{ad: ad}, start)
}

// runGreedy is the selection loop both pricers share: budget filtering,
// the per-round fan-out, and the deterministic reduce.
func (ad *Advisor) runGreedy(p pricer, start time.Time) (*Result, error) {
	if len(ad.candidates) == 0 {
		ad.GenerateCandidates()
	}
	res := &Result{PerQuery: make(map[string][2]float64), CandidateCount: len(ad.candidates)}

	baseTotal, basePer, err := p.baseline()
	if err != nil {
		return nil, err
	}
	res.BaseCost = baseTotal
	for i, qs := range ad.queries {
		res.PerQuery[qs.Query.Name] = [2]float64{basePer[i], basePer[i]}
	}

	remaining := append([]*catalog.Index(nil), ad.candidates...)
	var chosen []*catalog.Index
	var usedBytes int64
	current := baseTotal

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
		costs, err := p.evaluateRound(chosen, remaining, eligible)
		if err != nil {
			return nil, err
		}
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
		p.commit(pick)
		res.Rounds++
	}

	finalTotal, finalPer, err := p.final(chosen)
	if err != nil {
		return nil, err
	}
	res.Chosen = chosen
	res.TotalBytes = usedBytes
	res.FinalCost = finalTotal
	res.OptimizerCalls = ad.calls
	for i, qs := range ad.queries {
		e := res.PerQuery[qs.Query.Name]
		e[1] = finalPer[i]
		res.PerQuery[qs.Query.Name] = e
	}
	res.Engine = p.stats()
	res.GenerationErrors = append([]error(nil), ad.genErrs...)
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
