// Package pinum is the public API of the PINUM library, a reproduction of
// "Caching All Plans with Just One Optimizer Call" (Dash, Alagiannis,
// Maier, Ailamaki — ICDE Workshops 2010).
//
// PINUM fills an INUM-style plan cache — the data structure that lets a
// physical-design tool estimate a query's cost under any index
// configuration with pure arithmetic — using just one optimizer call per
// nested-loop mode, by exporting the intermediate plans a bottom-up
// dynamic-programming optimizer builds anyway.
//
// The library bundles everything the paper's system needs, implemented
// from scratch: a statistics-driven catalog with what-if indexes, a
// PostgreSQL-style cost-based optimizer, the INUM baseline, the PINUM
// one-call cache construction, a greedy index advisor, and a small
// execution engine (heap files, B-trees, physical operators) for running
// the suggested designs on materialised data.
//
// Typical usage:
//
//	db := pinum.NewDatabase()
//	db.MustTable(&catalog.Table{...})
//	q, err := db.ParseQuery("SELECT ... FROM ...", "Q1")
//	cache, err := db.BuildPlanCache(q)       // 2 optimizer calls
//	cost, plan, err := cache.Cost(cfg)        // no optimizer calls
//	combo := cache.Combo(plan)                // the winner's interesting orders
//
// or, for index selection:
//
//	adv := db.NewAdvisor(5 * pinum.GB)
//	err = adv.AddQuery(q, 1)                  // query with frequency weight
//	result, err := adv.Run()                  // incremental greedy search
//	fmt.Println(result.Engine.QueryEvals,     // delta evaluations performed
//		result.Engine.QuerySkips)             // pruned by the table index
//
// Whole workloads batch-build their caches across a worker pool:
//
//	caches, err := db.BuildPlanCaches(queries, pinum.WithWorkers(8))
//
// A built cache drops every plan that can never be the unique cheapest
// because another plan is never dearer under any configuration, which
// changes no cost, and Cost returns the ordinal of the first cheapest plan
// in cache order.
package pinum

import (
	"fmt"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/data"
	"github.com/pinumdb/pinum/internal/executor"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/whatif"
)

// GB is one gigabyte (base-10, as the paper's budgets are).
const GB int64 = 1_000_000_000

// Re-exported core types, so downstream users need only this package plus
// internal/catalog for schema declarations.
type (
	// Query is a bound query ready for planning.
	Query = query.Query
	// Config is an index configuration (a set of indexes).
	Config = query.Config
	// Index describes a real or hypothetical index.
	Index = catalog.Index
	// Table describes a base relation.
	Table = catalog.Table
	// Column describes a table column.
	Column = catalog.Column
	// PlanCache is the INUM/PINUM plan cache with its linear cost model.
	PlanCache = inum.Cache
	// AdvisorResult reports an index-selection run.
	AdvisorResult = advisor.Result
	// EngineStats reports the work the advisor's incremental cost engine
	// performed during the greedy search (AdvisorResult.Engine): delta
	// evaluations computed vs. evaluations pruned by the table index.
	EngineStats = costmatrix.Stats
)

// Database is the top-level handle: a catalog, statistics, and the
// sessions built over them.
type Database struct {
	cat *catalog.Catalog
	st  *stats.Store
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{cat: catalog.New(), st: stats.NewStore()}
}

// NewDatabaseWith wraps an existing catalog and statistics store (the
// workload generators produce these).
func NewDatabaseWith(cat *catalog.Catalog, st *stats.Store) *Database {
	return &Database{cat: cat, st: st}
}

// Catalog exposes the underlying catalog.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Stats exposes the underlying statistics store.
func (db *Database) Stats() *stats.Store { return db.st }

// AddTable registers a table.
func (db *Database) AddTable(t *Table) error { return db.cat.AddTable(t) }

// MustTable registers a table, panicking on error (for declarative setup).
func (db *Database) MustTable(t *Table) {
	if err := db.cat.AddTable(t); err != nil {
		panic(err)
	}
}

// SetColumnStats installs statistics for table.column.
func (db *Database) SetColumnStats(table, column string, s *stats.ColumnStats) {
	db.st.Set(table, column, s)
}

// ParseQuery parses and binds a SQL text against the catalog.
func (db *Database) ParseQuery(sqlText, name string) (*Query, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return sql.Bind(stmt, db.cat, name)
}

// WhatIf opens a what-if session for declaring hypothetical indexes.
func (db *Database) WhatIf() *whatif.Session { return whatif.NewSession(db.cat) }

// Analyze derives the planning state for a query.
func (db *Database) Analyze(q *Query) (*optimizer.Analysis, error) {
	return optimizer.NewAnalysis(q, db.st, optimizer.DefaultCostParams())
}

// Optimize runs one conventional optimizer call under the configuration
// and returns the best plan, its cost, and an EXPLAIN rendering.
func (db *Database) Optimize(q *Query, cfg *Config) (cost float64, explain string, err error) {
	a, err := db.Analyze(q)
	if err != nil {
		return 0, "", err
	}
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
	if err != nil {
		return 0, "", err
	}
	return res.Best.Cost, optimizer.Explain(res.Best, q), nil
}

// BuildPlanCache fills a plan cache the PINUM way: two optimizer calls,
// intermediate plans exported (paper §V-D).
func (db *Database) BuildPlanCache(q *Query) (*PlanCache, error) {
	a, err := db.Analyze(q)
	if err != nil {
		return nil, err
	}
	return core.BuildSlim(a, whatif.NewSession(db.cat))
}

// BuildOption configures batch plan-cache construction (BuildPlanCaches).
type BuildOption func(*buildOptions)

type buildOptions struct {
	workers int
	precise bool
}

// WithWorkers sets the construction's core budget: n <= 0 (the default)
// means every available CPU. A batch of at most n/2 queries plans each
// query's two optimizer calls at once; a wider one builds one query per
// worker.
func WithWorkers(n int) BuildOption {
	return func(o *buildOptions) { o.workers = n }
}

// WithPrecise enables the §V-D high-accuracy nested-loop refinement for
// every cache in the batch.
func WithPrecise() BuildOption {
	return func(o *buildOptions) { o.precise = true }
}

// WithSlim changes nothing: a plan cache has one form, each entry only its
// plan's INUM decomposition.
//
// Deprecated: every cache is built this way; drop the option.
func WithSlim() BuildOption {
	return func(*buildOptions) {}
}

// BuildPlanCaches fills one PINUM plan cache per query across a bounded
// worker pool: each worker owns a private what-if session, and results are
// merged in query order, so caches[i] belongs to queries[i] and the output
// is deterministic regardless of scheduling. This is the batch entry point
// workload tools (the advisor, the experiment drivers) build on.
func (db *Database) BuildPlanCaches(queries []*Query, opts ...BuildOption) ([]*PlanCache, error) {
	var o buildOptions
	for _, f := range opts {
		f(&o)
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		a, err := db.Analyze(q)
		if err != nil {
			return nil, err
		}
		analyses[i] = a
	}
	return core.BuildAllWith(analyses, db.cat, o.workers, func(paired bool) core.BuildFunc { return core.Builder(o.precise, paired) })
}

// CacheFingerprint identifies the environment plan caches are built
// under: the catalog, its statistics, and the default cost parameters.
// SaveCaches embeds it in every snapshot and LoadCaches rejects
// snapshots whose fingerprint no longer matches.
func (db *Database) CacheFingerprint() uint64 {
	return plancache.Fingerprint(db.cat, db.st, optimizer.DefaultCostParams())
}

// SaveCaches writes the caches' plans — their INUM decompositions — to a
// versioned, checksummed snapshot file, fingerprinted against this
// database's catalog, statistics and cost parameters.
func (db *Database) SaveCaches(path string, caches []*PlanCache) error {
	return plancache.Save(path, plancache.NewSnapshot(db.CacheFingerprint(), caches))
}

// LoadCaches reads a snapshot and reconstructs one plan cache per
// query, matched by query name, with no optimizer calls. The snapshot
// must carry this database's current fingerprint (a snapshot built
// against a drifted schema, statistics or cost parameters is rejected)
// and must cover every query by name with matching SQL text. Loaded
// caches answer Cost bit-identically to the caches that were saved.
func (db *Database) LoadCaches(path string, queries []*Query) ([]*PlanCache, error) {
	snap, err := plancache.Load(path, db.CacheFingerprint())
	if err != nil {
		return nil, err
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = db.Analyze(q); err != nil {
			return nil, err
		}
	}
	return plancache.BuildCaches(snap, queries, analyses)
}

// BuildPlanCachePrecise fills the cache with the §V-D high-accuracy
// refinement (bigger cache, exact nested-loop costing).
func (db *Database) BuildPlanCachePrecise(q *Query) (*PlanCache, error) {
	a, err := db.Analyze(q)
	if err != nil {
		return nil, err
	}
	return core.BuildPrecise(a, whatif.NewSession(db.cat))
}

// BuildPlanCacheINUM fills the cache the conventional INUM way: one
// optimizer call per interesting order combination and nested-loop mode.
// It exists as the baseline the paper compares against.
func (db *Database) BuildPlanCacheINUM(q *Query) (*PlanCache, error) {
	a, err := db.Analyze(q)
	if err != nil {
		return nil, err
	}
	return inum.Build(a, whatif.NewSession(db.cat))
}

// NewAdvisor returns an index advisor with the given space budget.
func (db *Database) NewAdvisor(budgetBytes int64) *advisor.Advisor {
	return advisor.New(db.cat, db.st, budgetBytes)
}

// Materialize fills every table with deterministic synthetic data and
// returns an execution handle.
func (db *Database) Materialize(seed int64) (*Materialized, error) {
	d, err := data.Materialize(db.cat, seed)
	if err != nil {
		return nil, err
	}
	return &Materialized{db: db, data: d}, nil
}

// Materialized is a physically materialised database that can execute
// plans.
type Materialized struct {
	db   *Database
	data *data.Database
}

// Execute optimizes the query under cfg and runs the chosen plan,
// returning the result rows projected to the select list. Plans are chosen
// with the in-memory cost profile, matching the engine they run on.
func (m *Materialized) Execute(q *Query, cfg *Config) ([][]int64, error) {
	a, err := optimizer.NewAnalysis(q, m.db.st, optimizer.InMemoryCostParams())
	if err != nil {
		return nil, err
	}
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
	if err != nil {
		return nil, err
	}
	ex := executor.New(m.data, q)
	rs, err := ex.Run(res.Best)
	if err != nil {
		return nil, err
	}
	return rs.Project(), nil
}

// Data exposes the underlying materialised tables and indexes.
func (m *Materialized) Data() *data.Database { return m.data }

// Version identifies the library release.
const Version = "1.0.0"

// String summarises the database handle.
func (db *Database) String() string {
	return fmt.Sprintf("pinum.Database(%d tables)", len(db.cat.Tables()))
}
