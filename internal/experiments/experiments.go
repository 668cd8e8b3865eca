// Package experiments implements the drivers that regenerate every table
// and figure of the paper's evaluation (§VI), printing rows in the same
// shape the paper reports:
//
//	E1  §VI-B  what-if index accuracy (cost with built vs simulated index)
//	E2  §VI-C  cost-model accuracy over random atomic configurations
//	E3  Fig. 4/5  cache-construction and access-cost collection times
//	E4  Fig. 6/7  index selection tool: execution time before/after
//	E5  §IV  optimizer-call redundancy (combinations vs unique plans)
package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/data"
	"github.com/pinumdb/pinum/internal/executor"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// Env bundles the shared experimental environment: the 10 GB-scale star
// schema and the 10-query workload.
type Env struct {
	Star    *workload.Star
	Queries []*query.Query
	Seed    int64
	// Workers bounds the worker pools used for batch cache construction
	// and the advisor's parallel greedy search in E4 (0 = GOMAXPROCS,
	// 1 = serial). Selection results and cost estimates are identical at
	// every setting. E3 ignores it: its deliverable is isolated per-query
	// construction timings, which parallel builds would contaminate with
	// scheduler contention.
	Workers int
}

// NewEnv builds the standard environment (statistics at the paper's 10 GB
// scale; nothing is materialised).
func NewEnv(seed int64) (*Env, error) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		return nil, err
	}
	qs, err := s.Queries(seed)
	if err != nil {
		return nil, err
	}
	return &Env{Star: s, Queries: qs, Seed: seed}, nil
}

func (e *Env) analysis(q *query.Query) (*optimizer.Analysis, error) {
	return optimizer.NewAnalysis(q, e.Star.Stats, optimizer.DefaultCostParams())
}

// ---------------------------------------------------------------- E1 ----

// E1Row is one trial of the what-if accuracy experiment.
type E1Row struct {
	Query    string
	Config   string
	Actual   float64 // optimizer cost with measured (built) index sizes
	Estimate float64 // optimizer cost with leaf-only what-if sizes
	Error    float64 // |Estimate-Actual| / Actual
}

// E1Result aggregates the 50 trials of §VI-B.
type E1Result struct {
	Rows     []E1Row
	AvgError float64
	MaxError float64
}

// RunE1 repeats the paper's experiment: estimate query cost with the same
// index once simulated (what-if: leaf pages only) and once "implemented"
// (full B-tree: internal pages included), 50 times over random index sets.
func RunE1(env *Env, trials int) (*E1Result, error) {
	if trials <= 0 {
		trials = 50
	}
	rng := rand.New(rand.NewSource(env.Seed + 1))
	res := &E1Result{}
	for trial := 0; trial < trials; trial++ {
		q := env.Queries[rng.Intn(len(env.Queries))]
		a, err := env.analysis(q)
		if err != nil {
			return nil, err
		}
		ws := whatif.NewSession(env.Star.Catalog)
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.9)
		if err != nil {
			return nil, err
		}
		if len(cfg.Indexes) == 0 {
			continue
		}
		// The "actual" configuration replaces each leaf-only what-if
		// descriptor with a fully-built descriptor of the same key.
		actualCfg := &query.Config{}
		for _, ix := range cfg.Indexes {
			t := env.Star.Catalog.Table(ix.Table)
			actualCfg.Indexes = append(actualCfg.Indexes,
				storage.BuiltIndex(ix.Name+"_built", t, ix.Columns))
		}
		est, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
		if err != nil {
			return nil, err
		}
		act, err := optimizer.Optimize(a, actualCfg, optimizer.Options{EnableNestLoop: true})
		if err != nil {
			return nil, err
		}
		e := relErr(est.Best.Cost, act.Best.Cost)
		res.Rows = append(res.Rows, E1Row{
			Query: q.Name, Config: cfg.String(),
			Actual: act.Best.Cost, Estimate: est.Best.Cost, Error: e,
		})
	}
	for _, r := range res.Rows {
		res.AvgError += r.Error
		if r.Error > res.MaxError {
			res.MaxError = r.Error
		}
	}
	if len(res.Rows) > 0 {
		res.AvgError /= float64(len(res.Rows))
	}
	return res, nil
}

// String renders the E1 summary in the paper's terms.
func (r *E1Result) String() string {
	return fmt.Sprintf(
		"E1 what-if index accuracy (%d trials)\n"+
			"  average cost-estimation error: %.2f%%  (paper: 0.33%%)\n"+
			"  maximum cost-estimation error: %.2f%%  (paper: 1.05%%)\n",
		len(r.Rows), 100*r.AvgError, 100*r.MaxError)
}

// ---------------------------------------------------------------- E2 ----

// E2Row reports cost-model accuracy for one query.
type E2Row struct {
	Query       string
	Configs     int
	PinumAvgErr float64
	PinumMaxErr float64
	InumAvgErr  float64
	InumMaxErr  float64
}

// E2Result is the §VI-C table.
type E2Result struct {
	Rows []E2Row
}

// RunE2 compares the cached cost models against direct optimizer calls on
// random atomic configurations (the paper uses 1000 per query).
func RunE2(env *Env, configsPerQuery int, queries []*query.Query) (*E2Result, error) {
	if configsPerQuery <= 0 {
		configsPerQuery = 1000
	}
	if queries == nil {
		queries = env.Queries
	}
	rng := rand.New(rand.NewSource(env.Seed + 2))
	res := &E2Result{}
	for _, q := range queries {
		a, err := env.analysis(q)
		if err != nil {
			return nil, err
		}
		pin, err := core.BuildSlim(a, whatif.NewSession(env.Star.Catalog))
		if err != nil {
			return nil, err
		}
		in, err := inum.Build(a, whatif.NewSession(env.Star.Catalog))
		if err != nil {
			return nil, err
		}
		ws := whatif.NewSession(env.Star.Catalog)
		row := E2Row{Query: q.Name}
		for trial := 0; trial < configsPerQuery; trial++ {
			cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
			if err != nil {
				return nil, err
			}
			opt, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
			if err != nil {
				return nil, err
			}
			want := opt.Best.Cost
			pc, _, err := pin.Cost(cfg)
			if err != nil {
				return nil, err
			}
			ic, _, err := in.Cost(cfg)
			if err != nil {
				return nil, err
			}
			pe, ie := relErr(pc, want), relErr(ic, want)
			row.Configs++
			row.PinumAvgErr += pe
			row.InumAvgErr += ie
			row.PinumMaxErr = math.Max(row.PinumMaxErr, pe)
			row.InumMaxErr = math.Max(row.InumMaxErr, ie)
		}
		if row.Configs > 0 {
			row.PinumAvgErr /= float64(row.Configs)
			row.InumAvgErr /= float64(row.Configs)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the E2 table.
func (r *E2Result) String() string {
	var b strings.Builder
	b.WriteString("E2 cost-model accuracy vs direct optimizer calls\n")
	b.WriteString("  query  configs  PINUM avg/max err      INUM avg/max err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-5s  %7d  %6.2f%% / %6.2f%%     %6.2f%% / %6.2f%%\n",
			row.Query, row.Configs,
			100*row.PinumAvgErr, 100*row.PinumMaxErr,
			100*row.InumAvgErr, 100*row.InumMaxErr)
	}
	b.WriteString("  (paper, PINUM: six queries <1% error, three ≈4%, one ≈9%; INUM ≈7% average)\n")
	return b.String()
}

// ---------------------------------------------------------------- E3 ----

// E3Row reports construction costs for one query (one group of bars in
// Fig. 4/5).
type E3Row struct {
	Query  string
	Tables int
	Combos int

	InumCacheTime   time.Duration
	InumCacheCalls  int
	PinumCacheTime  time.Duration
	PinumCacheCalls int

	// Planner-work counters aggregated across each build's optimizer
	// calls: how many candidate paths the pruning screens discarded and
	// how many join-clause set computations the DP split enumeration
	// performed. These make the planner's work (clause bitsets consulted
	// once per split, packed-key dedup, bucketed subsumption) observable
	// alongside the wall-clock columns.
	InumPlanner  optimizer.PlannerStats
	PinumPlanner optimizer.PlannerStats

	// PinumMem is the retained memory of the PINUM cache.
	PinumMem inum.MemStats

	InumAccessTime  time.Duration
	InumAccessCalls int
	PinumAccessTime time.Duration
	// AccessErrors counts optimizer failures across both access-cost
	// collections (AccessCostTable.Errors); a non-zero value means the
	// timing row is built from incomplete tables.
	AccessErrors int

	Candidates int
}

// Speedup ratios.
func (r *E3Row) CacheSpeedup() float64 {
	if r.PinumCacheTime <= 0 {
		return 0
	}
	return float64(r.InumCacheTime) / float64(r.PinumCacheTime)
}

func (r *E3Row) AccessSpeedup() float64 {
	if r.PinumAccessTime <= 0 {
		return 0
	}
	return float64(r.InumAccessTime) / float64(r.PinumAccessTime)
}

// E3Result is the Fig. 4/5 data.
type E3Result struct {
	Rows []E3Row
}

// RunE3 measures, per query, the wall-clock time to (a) fill the plan
// cache and (b) collect candidate-index access costs, with conventional
// INUM (one optimizer call per combination / per index) and with PINUM's
// hooks (two calls / one call). Builds are timed in isolation (one
// worker) so the reported durations reproduce the paper's per-query
// methodology; Env.Workers does not apply here.
func RunE3(env *Env, queries []*query.Query) (*E3Result, error) {
	if queries == nil {
		queries = env.Queries
	}
	res := &E3Result{}
	// Both constructions go through the batch builder, but with a single
	// worker: E3's deliverable is the paper's per-query construction
	// timing (Fig. 4/5), and timing each build in isolation — no sibling
	// builds competing for cores — is what keeps the absolute durations
	// and the INUM/PINUM ratio faithful to the paper's methodology.
	// Env.Workers deliberately does not apply here; it parallelizes E4's
	// advisor, where only results (identical at any setting) matter.
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		a, err := env.analysis(q)
		if err != nil {
			return nil, err
		}
		analyses[i] = a
	}
	pins, err := core.BuildAllSlim(analyses, env.Star.Catalog, 1)
	if err != nil {
		return nil, err
	}
	ins, err := core.BuildAllWith(analyses, env.Star.Catalog, 1, func(bool) core.BuildFunc { return inum.Build })
	if err != nil {
		return nil, err
	}
	for qi, q := range queries {
		a := analyses[qi]
		row := E3Row{Query: q.Name, Tables: len(q.Rels), Combos: q.ComboCount()}

		// Only the build stats outlive this iteration; dropping the cache
		// references lets each be collected once its row is read.
		row.PinumCacheTime = pins[qi].Stats.Duration
		row.PinumCacheCalls = pins[qi].Stats.OptimizerCalls
		row.PinumPlanner = pins[qi].Stats.Planner
		row.PinumMem = pins[qi].Stats.Mem
		pins[qi] = nil

		row.InumCacheTime = ins[qi].Stats.Duration
		row.InumCacheCalls = ins[qi].Stats.OptimizerCalls
		row.InumPlanner = ins[qi].Stats.Planner
		ins[qi] = nil

		// Candidate indexes for the access-cost lookup comparison.
		cands, errs := advisor.CandidateIndexes(whatif.NewSession(env.Star.Catalog), []*optimizer.Analysis{a})
		if len(errs) != 0 {
			return nil, errors.Join(errs...)
		}
		row.Candidates = len(cands)

		naive := inum.CollectAccessCostsNaive(a, cands)
		row.InumAccessTime = naive.Duration
		row.InumAccessCalls = naive.Calls

		batch := core.CollectAccessCosts(a, cands)
		row.PinumAccessTime = batch.Duration
		row.AccessErrors = naive.Errors + batch.Errors

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the Fig. 4/5 table.
func (r *E3Result) String() string {
	var b strings.Builder
	b.WriteString("E3 cache-construction and access-cost collection times (Fig. 4/5)\n")
	b.WriteString("  query  tbl  combos  INUM cache (calls)    PINUM cache (calls)   speedup |  INUM access (calls)   PINUM access   speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-5s  %3d  %6d  %12v (%4d)  %12v (%4d)  %6.1fx | %12v (%4d)  %12v  %6.1fx\n",
			row.Query, row.Tables, row.Combos,
			row.InumCacheTime.Round(time.Microsecond), row.InumCacheCalls,
			row.PinumCacheTime.Round(time.Microsecond), row.PinumCacheCalls,
			row.CacheSpeedup(),
			row.InumAccessTime.Round(time.Microsecond), row.InumAccessCalls,
			row.PinumAccessTime.Round(time.Microsecond),
			row.AccessSpeedup())
		fmt.Fprintf(&b, "         planner work: INUM %d considered / %d pruned / %d clause lookups, PINUM %d / %d / %d\n",
			row.InumPlanner.PathsConsidered, row.InumPlanner.PathsPruned, row.InumPlanner.ClauseLookups,
			row.PinumPlanner.PathsConsidered, row.PinumPlanner.PathsPruned, row.PinumPlanner.ClauseLookups)
		fmt.Fprintf(&b, "         enumeration: %d DP states visited, %d disconnected masks skipped\n",
			row.PinumPlanner.EnumStates, row.PinumPlanner.MasksSkipped)
		fmt.Fprintf(&b, "         frontier: INUM %d inserts / %d dominated on arrival / %d evicted, PINUM %d / %d / %d\n",
			row.InumPlanner.FrontierInserts, row.InumPlanner.FrontierDrops, row.InumPlanner.FrontierEvictions,
			row.PinumPlanner.FrontierInserts, row.PinumPlanner.FrontierDrops, row.PinumPlanner.FrontierEvictions)
		fmt.Fprintf(&b, "         cache memory: %s\n", row.PinumMem)
		if row.AccessErrors > 0 {
			fmt.Fprintf(&b, "  %-5s  WARNING: %d optimizer failures during access-cost collection; timings above are from incomplete tables\n",
				row.Query, row.AccessErrors)
		}
	}
	b.WriteString("  (paper: PINUM ≥5–10x for cache construction, ~5x for access costs,\n")
	b.WriteString("   ≥2 orders of magnitude for queries joining >3 tables)\n")
	return b.String()
}

// ---------------------------------------------------------------- E4 ----

// E4Row is one query's execution time before/after index selection
// (Fig. 7).
type E4Row struct {
	Query    string
	Original time.Duration
	WithIdx  time.Duration
	EstBase  float64
	EstFinal float64
}

// E4Result is the index-selection experiment outcome.
type E4Result struct {
	Rows []E4Row
	// Chosen describes the advisor's suggested indexes.
	Chosen []string
	// BudgetBytes and UsedBytes report the space constraint.
	BudgetBytes, UsedBytes int64
	// AvgSpeedup is the mean per-query execution-time reduction.
	AvgSpeedup float64
	// EstSpeedup is the advisor's own cost-model speedup estimate.
	EstSpeedup float64
	// Scale is the materialisation scale used for executions.
	Scale float64
	// DeltaEvals and SkippedEvals report the incremental cost engine's
	// greedy-search work: per-query delta evaluations performed vs.
	// evaluations the table→queries index skipped outright.
	DeltaEvals, SkippedEvals int64
}

// RunE4 runs the §V-E index selection tool on the 10-query workload with
// the paper's 5 GB budget (chosen at full 10 GB-scale statistics), then
// measures real executions on a scaled-down materialised database with and
// without the suggested indexes.
func RunE4(env *Env, execScale float64, budgetGB float64) (*E4Result, error) {
	if execScale <= 0 {
		execScale = 0.001
	}
	if budgetGB <= 0 {
		budgetGB = 5
	}
	ad := advisor.New(env.Star.Catalog, env.Star.Stats, storage.BytesForGB(budgetGB))
	ad.Parallelism = env.Workers
	if err := ad.AddQueries(env.Queries, nil); err != nil {
		return nil, err
	}
	sel, err := ad.Run()
	if err != nil {
		return nil, err
	}

	// Materialise a scaled-down copy of the same schema for execution.
	small, err := workload.StarSchema(execScale)
	if err != nil {
		return nil, err
	}
	smallQs, err := small.Queries(env.Seed)
	if err != nil {
		return nil, err
	}
	db, err := data.Materialize(small.Catalog, env.Seed+7)
	if err != nil {
		return nil, err
	}

	// Transfer the chosen index definitions onto the scaled schema.
	ws := whatif.NewSession(small.Catalog)
	cfg := &query.Config{}
	for _, ix := range sel.Chosen {
		nix, err := ws.CreateIndex(ix.Table, ix.Columns...)
		if err != nil {
			return nil, err
		}
		cfg.Indexes = append(cfg.Indexes, nix)
	}

	res := &E4Result{
		BudgetBytes:  ad.BudgetBytes,
		UsedBytes:    sel.TotalBytes,
		EstSpeedup:   sel.Speedup(),
		Scale:        execScale,
		DeltaEvals:   sel.Engine.QueryEvals,
		SkippedEvals: sel.Engine.QuerySkips,
	}
	for _, ix := range sel.Chosen {
		res.Chosen = append(res.Chosen, ix.Key())
	}

	for _, q := range smallQs {
		// Plan the executed queries with the in-memory cost profile so
		// the chosen plans fit the substrate they actually run on.
		a, err := optimizer.NewAnalysis(q, small.Stats, optimizer.InMemoryCostParams())
		if err != nil {
			return nil, err
		}
		orig, err := timedRun(db, a, q, nil)
		if err != nil {
			return nil, fmt.Errorf("E4 %s original: %w", q.Name, err)
		}
		fast, err := timedRun(db, a, q, cfg)
		if err != nil {
			return nil, fmt.Errorf("E4 %s with indexes: %w", q.Name, err)
		}
		e := sel.PerQuery[q.Name]
		res.Rows = append(res.Rows, E4Row{
			Query: q.Name, Original: orig, WithIdx: fast,
			EstBase: e[0], EstFinal: e[1],
		})
	}
	n := 0
	for _, row := range res.Rows {
		if row.Original > 0 {
			res.AvgSpeedup += 1 - float64(row.WithIdx)/float64(row.Original)
			n++
		}
	}
	if n > 0 {
		res.AvgSpeedup /= float64(n)
	}
	return res, nil
}

// timedRun optimizes under cfg and executes the chosen plan, returning the
// best wall-clock execution time of three runs (plan time excluded, as in
// the paper's execution-time figure; the minimum suppresses scheduler and
// allocator noise at sub-millisecond scales).
func timedRun(db *data.Database, a *optimizer.Analysis, q *query.Query, cfg *query.Config) (time.Duration, error) {
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
	if err != nil {
		return 0, err
	}
	// Pre-build any indexes the plan needs so index build time is not
	// charged to the execution (indexes are built once, used many times).
	if err := prebuildIndexes(db, res.Best); err != nil {
		return 0, err
	}
	ex := executor.New(db, q)
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if _, err := ex.Run(res.Best); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func prebuildIndexes(db *data.Database, p *optimizer.Path) error {
	if p == nil {
		return nil
	}
	if p.Index != nil {
		if _, err := db.BuildIndex(p.Index); err != nil {
			return err
		}
	}
	if err := prebuildIndexes(db, p.Child); err != nil {
		return err
	}
	if err := prebuildIndexes(db, p.Outer); err != nil {
		return err
	}
	return prebuildIndexes(db, p.Inner)
}

// String renders the Fig. 6/7 tables.
func (r *E4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 index selection tool (budget %.1f GB, used %.2f GB, %d indexes; executions at scale %g)\n",
		storage.GigaBytes(r.BudgetBytes), storage.GigaBytes(r.UsedBytes), len(r.Chosen), r.Scale)
	b.WriteString("  query  original exec   with indexes   speedup |  est. cost before → after\n")
	for _, row := range r.Rows {
		sp := 0.0
		if row.Original > 0 {
			sp = 1 - float64(row.WithIdx)/float64(row.Original)
		}
		fmt.Fprintf(&b, "  %-5s  %13v  %13v  %6.1f%% |  %12.0f → %12.0f\n",
			row.Query, row.Original.Round(time.Microsecond), row.WithIdx.Round(time.Microsecond),
			100*sp, row.EstBase, row.EstFinal)
	}
	fmt.Fprintf(&b, "  average execution speedup: %.1f%%  (paper: 95%%)\n", 100*r.AvgSpeedup)
	fmt.Fprintf(&b, "  cost-model estimated speedup: %.1f%%\n", 100*r.EstSpeedup)
	fmt.Fprintf(&b, "  cost engine: %d query deltas computed, %d skipped by the table index\n",
		r.DeltaEvals, r.SkippedEvals)
	fmt.Fprintf(&b, "  suggested indexes:\n")
	for _, c := range r.Chosen {
		fmt.Fprintf(&b, "    %s\n", c)
	}
	return b.String()
}

// ---------------------------------------------------------------- E5 ----

// E5Result is the §IV redundancy analysis.
type E5Result struct {
	Rows []core.Redundancy
	// TotalCombos and TotalUnique aggregate over the workload, matching
	// the paper's "43 useful plans out of 266 combinations" summary.
	TotalCombos, TotalUnique int
}

// RunE5 measures, for the Q5 analogue and every workload query, how many
// interesting order combinations exist versus how many unique plans the
// complete cache holds.
func RunE5(env *Env) (*E5Result, error) {
	res := &E5Result{}
	q5, err := env.Star.Q5Analogue()
	if err != nil {
		return nil, err
	}
	for _, q := range append([]*query.Query{q5}, env.Queries...) {
		a, err := env.analysis(q)
		if err != nil {
			return nil, err
		}
		red, err := core.MeasureRedundancy(a, whatif.NewSession(env.Star.Catalog))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, red)
		if q != q5 {
			res.TotalCombos += red.Combinations
			res.TotalUnique += red.UniquePlans
		}
	}
	return res, nil
}

// String renders the redundancy table.
func (r *E5Result) String() string {
	var b strings.Builder
	b.WriteString("E5 optimizer-call redundancy (§IV)\n")
	b.WriteString("  query        combos  unique plans  redundant calls\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-11s  %6d  %12d  %14.0f%%\n",
			row.Query, row.Combinations, row.UniquePlans, 100*row.RedundantCallFraction)
	}
	fmt.Fprintf(&b, "  workload total: %d unique plans out of %d combinations  (paper: 43 of 266)\n",
		r.TotalUnique, r.TotalCombos)
	b.WriteString("  (paper, TPC-H Q5: 64 unique plans of 648 combinations → ~90% redundant)\n")
	return b.String()
}

// ---------------------------------------------------------------- E6 ----

// E6Row reports the join-enumeration work for one shape/size: the DP
// states the connectivity-aware planner visits (csg-cmp pairs) against the
// splits a dense submask sweep walks, with the wall-clock of one ExportAll
// cache-construction call.
type E6Row struct {
	Shape string
	Rels  int
	Joins int
	// FastStates is the planner's EnumStates counter, DenseStates the
	// dense sweep's split count (optimizer.DenseSplits); MasksSkipped
	// counts the disconnected relation subsets the dense sweep visits in
	// vain.
	FastStates   int
	DenseStates  int
	MasksSkipped int
	// Exported is the exported plan count.
	Exported int
	// FrontierInserts / FrontierDrops / FrontierEvictions are the planner's
	// retained-path frontier counters for the call.
	FrontierInserts   int
	FrontierDrops     int
	FrontierEvictions int
	FastTime          time.Duration
	// Mem is the retained memory of a plan cache filled from the call's
	// exported set.
	Mem inum.MemStats
}

// StateSaving is the DP-state reduction factor.
func (r *E6Row) StateSaving() float64 {
	if r.FastStates <= 0 {
		return 0
	}
	return float64(r.DenseStates) / float64(r.FastStates)
}

// E6Result is the enumeration experiment's table.
type E6Result struct {
	Rows []E6Row
}

// e6Specs are the shape/size points the experiment samples, covering every
// generated topology at the sizes the workload's biggest queries reach.
func e6Specs(seed int64) []workload.ShapeSpec {
	return []workload.ShapeSpec{
		{Shape: workload.ShapeChain, Rels: 4, Seed: seed},
		{Shape: workload.ShapeChain, Rels: 7, Seed: seed},
		{Shape: workload.ShapeCycle, Rels: 7, Seed: seed},
		{Shape: workload.ShapeSnowflake, Rels: 7, Seed: seed},
		{Shape: workload.ShapeStar, Rels: 7, Seed: seed},
		{Shape: workload.ShapeClique, Rels: 5, Seed: seed},
		{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: seed},
	}
}

// RunE6 measures, per join-graph shape, how much of the dense DP sweep the
// connectivity-aware enumeration (DPccp) avoids, on the same ExportAll
// call cache construction makes. Star queries show the smallest saving
// (every fact-dimension subset is connected); chains and snowflakes the
// largest, which is exactly the gap PR 3's dense sweep left open.
func RunE6(env *Env) (*E6Result, error) {
	res := &E6Result{}
	// The timed call is core.Build's nested-loop export call (PaperPrune
	// keeps the exported sets at the paper's size; the enumeration-state
	// counters are identical under any Options since the DP split walk
	// doesn't depend on pruning).
	opt := optimizer.Options{EnableNestLoop: true, ExportAll: true, PaperPrune: true}
	for _, spec := range e6Specs(env.Seed) {
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			return nil, err
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			return nil, err
		}
		cfg := workload.ShapeAllOrdersConfig(cat, q)

		// Best of three runs, as the execution experiment does:
		// single samples at sub-millisecond scales are allocator and
		// scheduler noise, and the very first call would additionally be
		// charged process warmup.
		fast, fastTime, err := timedOptimize(a, cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", q.Name, err)
		}

		// Fill a cache from the same call's export to measure what it
		// retains.
		c := inum.NewCache(a)
		if _, err := optimizer.NewWorkspace().Export(a, cfg, []optimizer.Options{opt}, nil, c.AddSummary); err != nil {
			return nil, fmt.Errorf("E6 %s: %w", q.Name, err)
		}

		res.Rows = append(res.Rows, E6Row{
			Shape:             spec.Shape.String(),
			Rels:              len(q.Rels),
			Joins:             len(q.Joins),
			FastStates:        fast.Stats.EnumStates,
			DenseStates:       optimizer.DenseSplits(len(q.Rels)),
			MasksSkipped:      fast.Stats.MasksSkipped,
			Exported:          len(fast.Exported),
			FrontierInserts:   fast.Stats.FrontierInserts,
			FrontierDrops:     fast.Stats.FrontierDrops,
			FrontierEvictions: fast.Stats.FrontierEvictions,
			FastTime:          fastTime,
			Mem:               c.MemStats(),
		})
	}
	return res, nil
}

// timedOptimize runs one optimizer call three times and returns the last
// result with the best wall-clock duration.
func timedOptimize(a *optimizer.Analysis, cfg *query.Config, opt optimizer.Options) (*optimizer.Result, time.Duration, error) {
	var res *optimizer.Result
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		r, err := optimizer.Optimize(a, cfg, opt)
		if err != nil {
			return nil, 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		res = r
	}
	return res, best, nil
}

// String renders the enumeration table.
func (r *E6Result) String() string {
	var b strings.Builder
	b.WriteString("E6 connectivity-aware join enumeration (DPccp) vs dense sweep\n")
	b.WriteString("  shape      rels joins  DP states fast/dense   saving  masks skipped  plans      fast call   cache KB\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %4d %5d  %9d / %-9d %5.1fx  %13d  %5d  %13v  %8.1f\n",
			row.Shape, row.Rels, row.Joins,
			row.FastStates, row.DenseStates, row.StateSaving(),
			row.MasksSkipped, row.Exported,
			row.FastTime.Round(time.Microsecond),
			float64(row.Mem.EntryBytes)/1024)
		fmt.Fprintf(&b, "             frontier %d inserts / %d dominated on arrival / %d evicted\n",
			row.FrontierInserts, row.FrontierDrops, row.FrontierEvictions)
	}
	b.WriteString("  (dense sweep: every submask split of every relation subset; DPccp: connected\n")
	b.WriteString("   subgraph/complement pairs only — results are bit-identical either way)\n")
	return b.String()
}

// ---------------------------------------------------------------- util --

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}
