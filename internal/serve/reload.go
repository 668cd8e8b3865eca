package serve

// Hot reload: this file owns the snapshot-set lifecycle — building an
// immutable set from a (re)loaded environment, deciding how much of the
// previous set can be reused, publishing the result with one atomic swap,
// and retrying with capped backoff when a build fails. Every piece of it
// is a tenant method: each tenant reloads, fails and heals on its own
// state machine. The request path lives in serve.go and only ever
// touches a set it loaded once.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/whatif"
)

// Environment is one consistent serving world: the catalog, statistics and
// analysed workload a snapshot set is built from. A tenant's Loader
// re-derives it on every reload so statistics drift is picked up; the
// loader of a Config without Tenants returns the one its fields describe.
type Environment struct {
	Catalog  *catalog.Catalog
	Stats    *stats.Store
	Queries  []*query.Query
	Analyses []*optimizer.Analysis
}

func (e *Environment) validate() error {
	if e == nil || e.Catalog == nil || e.Stats == nil {
		return errors.New("serve: environment needs a catalog and statistics")
	}
	if len(e.Queries) == 0 {
		return errors.New("serve: no queries")
	}
	if len(e.Analyses) != len(e.Queries) {
		return fmt.Errorf("serve: %d queries need matching analyses (%d)", len(e.Queries), len(e.Analyses))
	}
	// The workload must read the catalog it is served with: the fingerprint
	// walks Catalog's tables, and indexes are bound to them, so a query over
	// a same-named table of some other catalog would be fingerprinted on
	// tables it never prices and priced by name on every request.
	for _, q := range e.Queries {
		for _, r := range q.Rels {
			if e.Catalog.Table(r.Table.Name) != r.Table {
				return fmt.Errorf("serve: query %s reads a table that is not the environment catalog's %q", q.Name, r.Table.Name)
			}
		}
	}
	return nil
}

// Snapshot-set provenance, reported in /healthz.
const (
	sourceStartup     = "startup"
	sourceDisk        = "disk-snapshot"
	sourceRebuilt     = "rebuilt"
	sourceIncremental = "incremental"
)

// snapshotSet bundles everything a request reads into one immutable
// world: the environment, the plan caches, the precomputed base costs,
// the advisor candidate set, and the what-if index interner. Sets are
// shared through each tenant's cur pointer and must only be handled by
// pointer (the embedded mutexes make go vet reject copies); after
// construction nothing in a set changes except the interner behind its
// own mutex and the candidate set, which is built on first use and
// published once, so the atomic pointer flip in tenant.swap is the entire
// synchronization story of a reload — and of an eviction, which stores
// nil and lets in-flight requests finish on the set they hold.
type snapshotSet struct {
	env     *Environment
	caches  []*inum.Cache
	weights []float64 // every query's workload weight: 1
	// base holds the per-query costs under the empty configuration
	// (they are configuration-independent, so one computation serves
	// every request on this set). baseDigits is base rendered once for
	// the /whatif reply encoder.
	base       []float64
	baseDigits *baseDigits

	// cand is the advisor candidate set, generated once per set — on the
	// first /recommend or /healthz that asks (see candidates), so
	// a tenant only ever asked /whatif never pays for it. Deferring it is
	// safe because it is a pure function of the set's environment, and
	// tables and statistics do not change under a live analysis
	// (optimizer.NewAnalysis's contract): generated now or later, the
	// descriptors are the same. candMu serializes generation only; readers
	// of a generated set take no lock.
	candMu sync.Mutex
	cand   atomic.Pointer[candidateSet]

	// fingerprint identifies the (catalog, statistics, cost-parameter)
	// environment; tableFPs is its per-table refinement, used by the
	// next reload to reuse caches of queries whose tables didn't move.
	fingerprint uint64
	tableFPs    map[string]uint64
	queryIdx    map[string]int

	// source/reused/rebuilt record how this set came to be.
	source  string
	reused  int
	rebuilt int

	// ixMu guards the set's what-if index interner, which gives a repeated
	// spec one descriptor (and one name, which /explain prints) for the
	// set's lifetime and holds at most maxInterned of them. Nothing below
	// resolveConfig depends on descriptor identity: the caches price every
	// request from scratch into a request-local slot table.
	ixMu        sync.Mutex
	ws          *whatif.Session
	maxInterned int
}

// candidateSet is what one generation pass leaves: the descriptors every
// /recommend on the set searches, and how many candidates failed to
// generate — they are absent from every /recommend answer, so /healthz
// counts them rather than leaving degraded recommendations
// indistinguishable from correct ones.
type candidateSet struct {
	indexes   []*catalog.Index
	genErrors int
}

// newSnapshotSet assembles the immutable request-side state over built
// caches: weights, base costs and a fresh, empty interner. env is one the
// caller validated, and fp and tableFPs are its plancache.Fingerprints,
// which the caller walked once for the whole load.
func newSnapshotSet(env *Environment, caches []*inum.Cache, source string, fp uint64, tableFPs map[string]uint64) (*snapshotSet, error) {
	if len(caches) != len(env.Queries) {
		return nil, fmt.Errorf("serve: %d queries need matching caches (%d)", len(env.Queries), len(caches))
	}
	set := &snapshotSet{
		env:         env,
		caches:      caches,
		weights:     make([]float64, len(env.Queries)),
		base:        make([]float64, len(caches)),
		fingerprint: fp,
		tableFPs:    tableFPs,
		queryIdx:    make(map[string]int, len(env.Queries)),
		source:      source,
		ws:          whatif.NewSession(env.Catalog),
		maxInterned: maxInternedIndexes,
	}
	for i, q := range env.Queries {
		set.queryIdx[q.Name] = i
		set.weights[i] = 1
	}
	for i, c := range caches {
		cost, _, err := c.Cost(&query.Config{})
		if err != nil {
			return nil, fmt.Errorf("serve: base cost for %s: %w", env.Queries[i].Name, err)
		}
		set.base[i] = cost
	}
	set.baseDigits = newBaseDigits(set.base)
	return set, nil
}

// candidates returns the set's candidate set, generating it with the
// advisor's candidate rule on a fresh what-if session on first use, so
// every /recommend request on this set searches the same descriptors. Only
// a completed generation is ever published: a failure or a panic in here
// (the serve.candidates faultpoint injects both) leaves the set ungenerated
// and the next caller tries again — which a sync.Once, done even when its
// function panics, would turn into an empty candidate set that /recommend
// answers from.
func (set *snapshotSet) candidates() (*candidateSet, error) {
	if cs := set.cand.Load(); cs != nil {
		return cs, nil
	}
	set.candMu.Lock()
	defer set.candMu.Unlock()
	if cs := set.cand.Load(); cs != nil {
		return cs, nil
	}
	if err := faultpoint.Hit("serve.candidates"); err != nil {
		return nil, fmt.Errorf("generating candidates: %w", err)
	}
	indexes, errs := advisor.CandidateIndexes(whatif.NewSession(set.env.Catalog), set.env.Analyses)
	cs := &candidateSet{indexes: indexes, genErrors: len(errs)}
	set.cand.Store(cs)
	return cs, nil
}

// maxInternedIndexes caps each set's interner — the only per-tenant state
// that grows with the number of distinct indexes asked about: a client
// enumerating the factorially many valid column permutations must not be
// able to grow it without bound.
const maxInternedIndexes = 1 << 17

// resolveConfig resolves the requested index specs into a configuration.
// The set's session deduplicates by (table, columns), so a repeated spec
// resolves to the same named descriptor on every request. At the interner
// cap, previously-seen specs still resolve and a new one becomes a
// request-local descriptor — same validation, same pricing, garbage when
// the request ends — so a full interner costs nothing but the dedup.
func (set *snapshotSet) resolveConfig(specs []IndexSpec) (*query.Config, error) {
	cfg := &query.Config{Indexes: make([]*catalog.Index, 0, len(specs))}
	set.ixMu.Lock()
	defer set.ixMu.Unlock()
	local := 0
	for _, spec := range specs {
		ix := set.ws.Lookup(spec.Table, spec.Columns...)
		if ix == nil {
			var err error
			if set.ws.Count() < set.maxInterned {
				ix, err = set.ws.CreateIndex(spec.Table, spec.Columns...)
			} else {
				local++
				ix, err = set.ws.Transient(local, spec.Table, spec.Columns...)
			}
			if err != nil {
				return nil, badRequest("%v", err)
			}
		}
		cfg.Indexes = append(cfg.Indexes, ix)
	}
	return cfg, nil
}

// resolveWeights applies a request's per-query weight overrides on top of
// the set's workload weights, all 1. Overrides are validated loudly: a name
// not in the workload, a non-positive or non-finite weight, and — because
// last-wins would silently misprice the workload — a duplicated query
// name are each a 400 naming the offender. Without overrides the set's
// shared slice is returned untouched.
func (set *snapshotSet) resolveWeights(overrides []WeightOverride) ([]float64, error) {
	if len(overrides) == 0 {
		return set.weights, nil
	}
	out := make([]float64, len(set.weights))
	copy(out, set.weights)
	seen := make(map[string]bool, len(overrides))
	for _, o := range overrides {
		if seen[o.Name] {
			return nil, badRequest("weights: duplicate query %q (each query may be reweighted at most once)", o.Name)
		}
		seen[o.Name] = true
		i, ok := set.queryIdx[o.Name]
		if !ok {
			return nil, badRequest("weights: unknown query %q", o.Name)
		}
		if !(o.Weight > 0) || math.IsInf(o.Weight, 1) {
			return nil, badRequest("weights: query %q needs a positive finite weight, got %v", o.Name, o.Weight)
		}
		out[i] = o.Weight
	}
	return out, nil
}

func (set *snapshotSet) internedCount() int {
	set.ixMu.Lock()
	defer set.ixMu.Unlock()
	return set.ws.Count()
}

// ----------------------------------------------------- load phases -----

// loadPhase names what a load — cold load or reload — spends its time on,
// in the order the phases run. It is a fixed enum so the histograms are
// resolved once at New and the family's cardinality is bounded: there is
// deliberately no tenant label.
type loadPhase int

const (
	phaseLoader      loadPhase = iota // the tenant's Loader
	phaseFingerprint                  // plancache.Fingerprints
	phaseDecode                       // plancache.Load: read, verify and decode the snapshot file
	phaseBuild                        // plancache.BuildCaches over the decoded snapshot
	phaseOptimize                     // cache reuse and re-planning
	phaseAssemble                     // newSnapshotSet
	phaseSave                         // plancache.Save
	numLoadPhases
)

var loadPhaseNames = [numLoadPhases]string{"loader", "fingerprint", "decode", "build", "optimize", "assemble", "save"}

// loadTimes is one load's wall time per phase (zero: the phase did not
// run); it renders as the tail of the load's cold-load or reload event.
type loadTimes [numLoadPhases]time.Duration

func (lt *loadTimes) String() string {
	var b strings.Builder
	for p, d := range lt {
		if p > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s_ms=%.3f", loadPhaseNames[p], float64(d)/float64(time.Millisecond))
	}
	return b.String()
}

// observePhase closes one phase that began at start: into the load's own
// times and into pinum_load_phase_seconds{phase}.
func (s *Server) observePhase(lt *loadTimes, p loadPhase, start time.Time) {
	d := time.Since(start)
	lt[p] += d
	s.loadPhases[p].Observe(d.Seconds())
}

// --------------------------------------------------------- reloads -----

// ReloadOutcome is one reload's summary, returned by ReloadTenant and by
// POST /reload?wait=1.
type ReloadOutcome struct {
	// Tenant is the tenant the reload targeted.
	Tenant string `json:"tenant"`
	// Result is "swapped", "skipped" (environment fingerprint and
	// workload unchanged) or "failed".
	Result         string `json:"result"`
	Fingerprint    string `json:"fingerprint,omitempty"`
	SnapshotSource string `json:"snapshot_source,omitempty"`
	QueriesReused  int    `json:"queries_reused"`
	QueriesRebuilt int    `json:"queries_rebuilt"`
}

// ReloadTenant synchronously loads one tenant by name ("" = the default
// tenant): on a resident tenant a reload, on a cold one a cold load,
// counted as one; a failed cold load is only the caller's error.
func (s *Server) ReloadTenant(name string, force bool) (ReloadOutcome, error) {
	t, err := s.tenantByName(name)
	if err != nil {
		return ReloadOutcome{Tenant: name, Result: "failed"}, err
	}
	return t.reloadNow(force)
}

// reloadNow runs load under reloadMu and reports its outcome.
func (t *tenant) reloadNow(force bool) (ReloadOutcome, error) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	out := ReloadOutcome{Tenant: t.name, Result: "failed"}
	set, skipped, err := t.load(force)
	if err != nil {
		return out, err
	}
	out.Result, out.Fingerprint, out.SnapshotSource = "swapped", fmt.Sprintf("%016x", set.fingerprint), set.source
	if skipped {
		out.Result = "skipped"
	} else {
		out.QueriesReused, out.QueriesRebuilt = set.reused, set.rebuilt
	}
	return out, nil
}

// load is the one function that builds and publishes a tenant's snapshot
// set; every load runs it under reloadMu. It returns the live set (on a
// skip, the unchanged one). The tenant's state, not the caller, decides a
// failure: a serving set stays up and the tenant is marked degraded and
// retried; a cold tenant only fails its caller. Any success clears the
// degradation, the last error and the retry. force bypasses the skip, the
// disk snapshot and per-query reuse, re-optimizing everything.
func (t *tenant) load(force bool) (*snapshotSet, bool, error) {
	s := t.srv
	opID := s.nextTraceID()
	var lt loadTimes
	set, skipped, err := t.buildSetContained(force, opID, &lt)
	if err != nil {
		t.reloadsFailed.Inc()
		t.lastReloadErr.Store(err.Error())
		// Under resMu, so no eviction falls between the check and the
		// marking: only a resident tenant is degraded or retried.
		s.resMu.Lock()
		typ, serving := "cold-load-failed", t.current() != nil
		newlyDegraded := serving && !t.degraded.Swap(true)
		if serving {
			typ = "reload-failed"
			t.scheduleRetry()
		}
		s.resMu.Unlock()
		if newlyDegraded {
			s.recordEvent("degraded", t.name, opID, err.Error())
		}
		s.recordEvent(typ, t.name, opID, err.Error())
		return nil, false, err
	}
	t.degraded.Store(false)
	t.lastReloadErr.Store("")
	t.clearRetry()
	if skipped {
		t.reloadsSkipped.Inc()
		s.recordEvent("reload-skipped", t.name, opID, fmt.Sprintf("fingerprint %016x unchanged", set.fingerprint))
		return set, true, nil
	}
	typ := "reload"
	if t.publish(set, opID) {
		typ = "cold-load"
	}
	if t.snapshotPath != "" && set.source != sourceDisk {
		// Persist a rebuilt set so the next cold load skips the optimizer.
		// Best-effort: a failed save slows that load, not this server.
		start := time.Now()
		if err := plancache.Save(t.snapshotPath, plancache.NewSnapshot(set.fingerprint, set.caches)); err != nil {
			s.recordEvent("snapshot-save-failed", t.name, opID, err.Error())
		}
		s.observePhase(&lt, phaseSave, start)
	}
	s.recordEvent(typ, t.name, opID, fmt.Sprintf("fingerprint=%016x source=%s reused=%d rebuilt=%d %s",
		set.fingerprint, set.source, set.reused, set.rebuilt, &lt))
	return set, false, nil
}

// TriggerReload requests an asynchronous reload of every resident tenant
// (the SIGHUP path). Triggers are coalesced per tenant: at most one
// reload runs and one more waits; beyond that the trigger reports false
// for that tenant and the pending reload covers it. Cold tenants are
// skipped — they rebuild from fresh statistics on their next request
// anyway.
func (s *Server) TriggerReload(force bool) bool {
	any := false
	for _, name := range s.tenantNames {
		t := s.tenants[name]
		if t.current() == nil {
			continue
		}
		if t.triggerReload(force) {
			any = true
		}
	}
	return any
}

// triggerReload requests an asynchronous reload of this tenant.
func (t *tenant) triggerReload(force bool) bool {
	select {
	case t.reloadQueue <- struct{}{}:
		go func() {
			defer func() { <-t.reloadQueue }()
			t.reloadNow(force)
		}()
		return true
	default:
		return false
	}
}

// buildSetContained runs buildSet with panic containment: a panicking
// loader or rebuild becomes a counted, retried reload failure — the
// serving process and its current snapshots are never at risk. The panic
// event carries the load's operation ID opID.
func (t *tenant) buildSetContained(force bool, opID string, lt *loadTimes) (set *snapshotSet, skipped bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			t.srv.panics.Inc()
			t.srv.recordEvent("panic", t.name, opID, fmt.Sprintf("snapshot rebuild: %v", p))
			set, skipped, err = nil, false, fmt.Errorf("panic during snapshot rebuild: %v", p)
		}
	}()
	return t.buildSet(force, lt)
}

// buildSet derives a fresh environment and builds its snapshot set,
// cheapest tier first: the live set when nothing changed, the Config's
// prebuilt caches once, the disk snapshot when its fingerprint matches,
// then the previous set's caches for queries whose tables didn't move and
// re-optimization of the rest. The environment is walked once and each
// phase that runs is timed into lt and pinum_load_phase_seconds.
func (t *tenant) buildSet(force bool, lt *loadTimes) (*snapshotSet, bool, error) {
	s := t.srv
	prev := t.current()
	if prev == nil {
		if err := faultpoint.Hit("serve.tenant.load"); err != nil {
			return nil, false, err
		}
	}
	if err := faultpoint.Hit("serve.rebuild"); err != nil {
		return nil, false, fmt.Errorf("rebuild: %w", err)
	}
	start := time.Now()
	env, err := t.loader()
	s.observePhase(lt, phaseLoader, start)
	if err != nil {
		return nil, false, fmt.Errorf("loading environment: %w", err)
	}
	if err := env.validate(); err != nil {
		return nil, false, err
	}
	start = time.Now()
	fp, tfps := plancache.Fingerprints(env.Catalog, env.Stats, optimizer.DefaultCostParams())
	s.observePhase(lt, phaseFingerprint, start)

	if !force && prev != nil && fp == prev.fingerprint && sameWorkload(prev.env, env) {
		return prev, true, nil
	}
	if caches := t.prebuilt; caches != nil {
		t.prebuilt = nil
		set, err := t.assemble(env, caches, sourceStartup, fp, tfps, lt)
		return set, false, err
	}

	if !force && t.snapshotPath != "" {
		// A matching disk snapshot short-circuits all optimization. A
		// missing, stale or corrupt one is not a reload failure — the
		// rebuild below is the fallback, exactly like cold start.
		if caches, err := t.loadCaches(env, fp, lt); err == nil {
			set, err := t.assemble(env, caches, sourceDisk, fp, tfps, lt)
			return set, false, err
		}
	}

	if force {
		prev = nil // reuse nothing
	}
	caches, reused, err := t.optimize(env, prev, tfps, lt)
	if err != nil {
		return nil, false, err
	}
	source := sourceRebuilt
	if reused > 0 {
		source = sourceIncremental
	}
	set, err := t.assemble(env, caches, source, fp, tfps, lt)
	if err != nil {
		return nil, false, err
	}
	set.reused, set.rebuilt = reused, len(caches)-reused
	return set, false, nil
}

// loadCaches is the decode and build phases: the tenant's snapshot file,
// decoded and fingerprint-checked against fp, then rebuilt into caches. A
// missing, stale or corrupt file ends the load after decode.
func (t *tenant) loadCaches(env *Environment, fp uint64, lt *loadTimes) ([]*inum.Cache, error) {
	start := time.Now()
	snap, err := plancache.Load(t.snapshotPath, fp)
	t.srv.observePhase(lt, phaseDecode, start)
	if err != nil {
		return nil, err
	}
	defer t.srv.observePhase(lt, phaseBuild, time.Now())
	return plancache.BuildCaches(snap, env.Queries, env.Analyses)
}

// optimize is the optimize phase: caches for every query of env, reusing
// prev's (nil: reuse nothing) for queries whose tables' fingerprints did
// not move and planning the rest. It reports how many were reused.
func (t *tenant) optimize(env *Environment, prev *snapshotSet, tfps map[string]uint64, lt *loadTimes) ([]*inum.Cache, int, error) {
	defer t.srv.observePhase(lt, phaseOptimize, time.Now())
	caches := make([]*inum.Cache, len(env.Queries))
	reused := 0
	var rebuild []int
	for i, q := range env.Queries {
		if prev != nil && reusable(prev, q, tfps) {
			// Rebinding the previous set's entries to the new analysis
			// is deterministic bit-for-bit, so a reused query's costs are
			// byte-identical before and after the swap.
			internal, slots, coefs := prev.caches[prev.queryIdx[q.Name]].Rows()
			if c, err := inum.FromRows(env.Analyses[i], internal, slots, coefs); err == nil {
				caches[i] = c
				reused++
				continue
			}
		}
		rebuild = append(rebuild, i)
	}
	if len(rebuild) == 0 {
		return caches, reused, nil
	}
	// The rebuild is a batch on the pool's core budget: an incremental
	// reload that replans at most half as many queries as there are workers
	// plans each query's two calls at once.
	analyses := make([]*optimizer.Analysis, len(rebuild))
	for k, i := range rebuild {
		analyses[k] = env.Analyses[i]
	}
	built, err := core.BuildAllWith(analyses, env.Catalog, t.srv.cfg.Workers, func(paired bool) core.BuildFunc {
		build := core.Builder(false, paired)
		return func(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
			c, err := build(a, ws)
			if err != nil {
				return nil, fmt.Errorf("rebuilding %s: %w", a.Q.Name, err)
			}
			return c, nil
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for k, i := range rebuild {
		caches[i] = built[k]
	}
	return caches, reused, nil
}

// assemble is the last phase of every load that builds a set:
// newSnapshotSet over the caches and the fingerprints walked above.
func (t *tenant) assemble(env *Environment, caches []*inum.Cache, source string, fp uint64, tfps map[string]uint64, lt *loadTimes) (*snapshotSet, error) {
	defer t.srv.observePhase(lt, phaseAssemble, time.Now())
	return newSnapshotSet(env, caches, source, fp, tfps)
}

// reusable reports whether the previous set's cache for q can serve
// unchanged: same query (name and SQL) and none of its referenced
// tables' statistics fingerprints moved.
func reusable(prev *snapshotSet, q *query.Query, tfps map[string]uint64) bool {
	j, ok := prev.queryIdx[q.Name]
	if !ok || prev.env.Queries[j].SQL != q.SQL {
		return false
	}
	for _, rel := range q.Rels {
		newFP, ok := tfps[rel.Table.Name]
		if !ok {
			return false
		}
		if oldFP, ok := prev.tableFPs[rel.Table.Name]; !ok || oldFP != newFP {
			return false
		}
	}
	return true
}

func sameWorkload(a, b *Environment) bool {
	return slices.EqualFunc(a.Queries, b.Queries, func(x, y *query.Query) bool {
		return x.Name == y.Name && x.SQL == y.SQL
	})
}

// ----------------------------------------------------------- retry -----

// scheduleRetry arms the tenant's backoff timer after a failed load of a
// resident tenant (resMu held): DefaultRetryMin doubling per consecutive
// failure, capped at DefaultRetryMax (Server.retryMin/retryMax). The
// previous snapshot keeps serving the whole time.
func (t *tenant) scheduleRetry() {
	t.retryMu.Lock()
	defer t.retryMu.Unlock()
	if t.closed {
		return
	}
	t.retryAttempt++
	shift := t.retryAttempt - 1
	if shift > 20 {
		shift = 20
	}
	d := t.srv.retryMin << shift
	if d <= 0 || d > t.srv.retryMax {
		d = t.srv.retryMax
	}
	if t.retryTimer != nil {
		t.retryTimer.Stop()
	}
	t.retryTimer = time.AfterFunc(d, t.retryFire)
}

func (t *tenant) retryFire() {
	t.retryMu.Lock()
	t.retryTimer = nil
	closed := t.closed
	t.retryMu.Unlock()
	if closed {
		return
	}
	// A retry that fired on a tenant evicted since loads nothing.
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.current() != nil {
		t.load(false)
	}
}

func (t *tenant) clearRetry() {
	t.retryMu.Lock()
	defer t.retryMu.Unlock()
	t.retryAttempt = 0
	if t.retryTimer != nil {
		t.retryTimer.Stop()
		t.retryTimer = nil
	}
}

// stopRetry permanently disarms the tenant's retry machinery (Close).
func (t *tenant) stopRetry() {
	t.retryMu.Lock()
	t.closed = true
	t.retryMu.Unlock()
	t.clearRetry()
}

// handleReload serves POST /reload: ?tenant= (or the X-Pinum-Tenant
// header) picks the tenant, defaulting to the default tenant; ?wait=1
// runs synchronously; ?force=1 bypasses the skip and every reuse path.
func (s *Server) handleReload(r *http.Request) (any, error) {
	q := r.URL.Query()
	force := q.Get("force") == "1" || q.Get("force") == "true"
	t, err := s.resolveTenant(r, q.Get("tenant"))
	if err != nil {
		return nil, err
	}
	if q.Get("wait") == "1" || q.Get("wait") == "true" {
		out, err := t.reloadNow(force)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if t.triggerReload(force) {
		return map[string]string{"tenant": t.name, "result": "triggered"}, nil
	}
	return map[string]string{"tenant": t.name, "result": "already-pending"}, nil
}
