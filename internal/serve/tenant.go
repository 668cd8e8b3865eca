package serve

// Tenant registry: one pinum-serve process fronts a roster of workloads.
// Every tenant is an independently reloadable snapshotSet (the
// immutable-set + atomic-pointer model, instantiated per entry) keyed by
// tenant name, with the environment fingerprint validating its snapshot
// file on every load. Requests route by the `tenant` body field or the
// X-Pinum-Tenant header; absent both, they hit the default tenant, the
// roster's first entry. A single-tenant server is a roster of one.
//
// Residency: the registry knows every configured tenant, but only up to
// Config.MaxResident of them hold a live snapshot set at a time. A
// request for an evicted (or never-loaded) tenant triggers a singleflight
// cold load — snapshot store first (plancache.Load, fingerprint checked),
// full rebuild as the fallback — and then the least-recently-used
// resident tenant is evicted to restore the cap. Eviction is one atomic
// nil store: in-flight requests keep the immutable set they already
// loaded, so nothing ever blocks on the hot path; the set (and its
// caches and interner) becomes garbage once the last request drops it.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/optimizer"
)

// TenantHeader is the HTTP header that routes a request to a tenant; the
// `tenant` field in a request body is the equivalent in-band form. When
// both are present they must agree.
const TenantHeader = "X-Pinum-Tenant"

// DefaultTenant names the one tenant of a Config without Tenants, the
// roster of one pinum-serve serves without -tenants.
const DefaultTenant = "default"

// TenantConfig describes one served workload: one entry of Config.Tenants.
type TenantConfig struct {
	// Name routes requests and keys the tenant's snapshot in the store;
	// it must satisfy plancache.ValidTenantName.
	Name string
	// Loader re-derives this tenant's environment on every (re)load.
	Loader func() (*Environment, error)
	// SnapshotPath, when set, is this tenant's fingerprint-checked
	// snapshot file: consulted before rebuilding on every load, rewritten
	// after every rebuild.
	SnapshotPath string
	// MaxInFlight caps this tenant's concurrently evaluating compute
	// requests (0 = the server's MaxInFlight, negative = unlimited).
	MaxInFlight int
}

// tenant is one workload's complete serving state: the hot-swapped
// snapshot set, the reload/retry machinery that replaces it, the
// admission semaphore that bounds it, and the counters that surface it
// in /metrics, instantiated once per roster entry.
type tenant struct {
	name         string
	srv          *Server
	loader       func() (*Environment, error)
	snapshotPath string

	// cur is the tenant's live snapshot set; nil while the tenant is cold
	// (never loaded, or evicted by the residency cap). The swap is one
	// atomic pointer flip: handlers load the pointer exactly once per
	// request and never reach the field directly.
	//pinum:atomic-only current,swap
	cur atomic.Pointer[snapshotSet]

	// reloadMu serializes this tenant's loads and reloads — it is also
	// the cold-load singleflight: a thundering herd on a cold tenant
	// queues here while the first request builds, then reuses its set.
	reloadMu    sync.Mutex
	reloadQueue chan struct{}
	// prebuilt is the caches a Config without Tenants carries: the first
	// load's cheapest tier, used once and then dropped (reloadMu held).
	prebuilt []*inum.Cache

	// retryMu guards the failed-reload backoff timer state.
	retryMu      sync.Mutex
	retryTimer   *time.Timer
	retryAttempt int
	closed       bool

	// inflight is this tenant's admission semaphore (nil = unlimited).
	inflight chan struct{}

	// lastUsed is the registry clock tick of the last request routed
	// here; the residency sweep evicts the smallest value.
	lastUsed atomic.Int64

	// Registry handles for the tenant's counters, resolved once in
	// newTenant so request recording stays lock-free.
	reloadsOK      *obs.Counter
	reloadsSkipped *obs.Counter
	reloadsFailed  *obs.Counter
	coldLoads      *obs.Counter
	evictions      *obs.Counter
	rejected       *obs.Counter
	requests       *obs.Counter
	errors         *obs.Counter
	degraded       atomic.Bool
	lastReloadErr  atomic.Value // string

	// Snapshot-shape gauges, refreshed on every publish.
	snapQueries    *obs.Gauge
	snapReused     *obs.Gauge
	snapRebuilt    *obs.Gauge
	snapEntryBytes *obs.Gauge
	snapEnumStates *obs.Gauge
	snapFrInserts  *obs.Gauge
	snapFrDrops    *obs.Gauge
	snapFrEvict    *obs.Gauge
}

// registerTenantMetrics resolves one tenant's registry handles, all
// labeled tenant=<name>, plus the live gauges derived from its state.
func (s *Server) registerTenantMetrics(t *tenant) {
	tl := obs.L("tenant", t.name)
	t.requests = s.reg.Counter("pinum_tenant_requests_total",
		"Compute requests routed to the tenant.", tl)
	t.errors = s.reg.Counter("pinum_tenant_request_errors_total",
		"Tenant compute requests that returned an error.", tl)
	t.rejected = s.reg.Counter("pinum_tenant_rejected_total",
		"Requests refused with 429 by the tenant's admission cap.", tl)
	t.coldLoads = s.reg.Counter("pinum_tenant_cold_loads_total",
		"Sets published onto a cold tenant (startup, first touch, after eviction); minus evictions, the resident count.", tl)
	t.evictions = s.reg.Counter("pinum_tenant_evictions_total",
		"LRU residency evictions.", tl)
	const reloadHelp = "Load outcomes, by result: completed (a set replaced a live one), skipped, failed (any load, cold ones included)."
	t.reloadsOK = s.reg.Counter("pinum_tenant_reloads_total", reloadHelp, tl, obs.L("result", "completed"))
	t.reloadsSkipped = s.reg.Counter("pinum_tenant_reloads_total", reloadHelp, tl, obs.L("result", "skipped"))
	t.reloadsFailed = s.reg.Counter("pinum_tenant_reloads_total", reloadHelp, tl, obs.L("result", "failed"))
	s.reg.GaugeFunc("pinum_tenant_degraded",
		"1 while the tenant's last reload failed (the old set keeps serving).",
		func() float64 {
			if t.degraded.Load() {
				return 1
			}
			return 0
		}, tl)
	s.reg.GaugeFunc("pinum_tenant_resident",
		"1 while the tenant holds a live snapshot set.",
		func() float64 {
			if t.current() != nil {
				return 1
			}
			return 0
		}, tl)
	s.reg.GaugeFunc("pinum_tenant_in_flight",
		"Compute requests currently holding one of the tenant's admission slots.",
		func() float64 {
			if t.inflight == nil {
				return 0
			}
			return float64(len(t.inflight))
		}, tl)
	s.reg.GaugeFunc("pinum_tenant_interned_indexes",
		fmt.Sprintf("What-if indexes interned by the live set; past %d a new one is priced request-locally.", maxInternedIndexes),
		func() float64 {
			if set := t.current(); set != nil {
				return float64(set.internedCount())
			}
			return 0
		}, tl)
	t.snapQueries = s.reg.Gauge("pinum_snapshot_queries",
		"Queries served by the tenant's live snapshot set.", tl)
	t.snapReused = s.reg.Gauge("pinum_snapshot_queries_reused",
		"Queries whose caches the last (re)load reused without planning.", tl)
	t.snapRebuilt = s.reg.Gauge("pinum_snapshot_queries_rebuilt",
		"Queries the last (re)load re-planned.", tl)
	t.snapEntryBytes = s.reg.Gauge("pinum_snapshot_entry_bytes",
		"Approximate bytes held by the live set's plan-cache entries.", tl)
	t.snapEnumStates = s.reg.Gauge("pinum_planner_enum_states",
		"Planner enumeration states visited building the live set (0 when loaded from disk).", tl)
	t.snapFrInserts = s.reg.Gauge("pinum_planner_frontier_inserts",
		"Dominance-frontier insertions building the live set.", tl)
	t.snapFrDrops = s.reg.Gauge("pinum_planner_frontier_drops",
		"Dominated plans dropped at insertion building the live set.", tl)
	t.snapFrEvict = s.reg.Gauge("pinum_planner_frontier_evictions",
		"Frontier entries evicted by dominance building the live set.", tl)
}

// current returns the tenant's live snapshot set (nil while cold). It is
// the one read-side accessor for the swapped state.
func (t *tenant) current() *snapshotSet { return t.cur.Load() }

// swap publishes a set — or nil, which is how eviction retires one — and
// returns the one it replaced. The single write-side accessor.
func (t *tenant) swap(set *snapshotSet) *snapshotSet { return t.cur.Swap(set) }

// publish makes a built set live and settles the residency cap; load is
// its one caller. It counts the swap by what it replaced — nil is a cold
// load, a live set a completed reload — and reports whether it was cold.
// An eviction it causes carries the load's operation ID opID.
func (t *tenant) publish(set *snapshotSet, opID string) (cold bool) {
	if cold = t.swap(set) == nil; cold {
		t.coldLoads.Inc()
	} else {
		t.reloadsOK.Inc()
	}
	t.snapshotGauges(set)
	t.srv.everLoaded.Store(true)
	t.srv.touch(t)
	t.srv.noteResident(t, opID)
	return cold
}

// snapshotGauges refreshes the tenant's snapshot-shape metrics from a
// freshly published set: query counts, approximate entry bytes, and the
// aggregated planner work counters its builds recorded (all zero for a
// disk-loaded set, which did no planning).
func (t *tenant) snapshotGauges(set *snapshotSet) {
	var ps optimizer.PlannerStats
	var entryBytes int64
	for _, c := range set.caches {
		ps.Add(c.Stats.Planner)
		entryBytes += c.MemStats().EntryBytes
	}
	t.snapQueries.Set(float64(len(set.env.Queries)))
	t.snapReused.Set(float64(set.reused))
	t.snapRebuilt.Set(float64(set.rebuilt))
	t.snapEntryBytes.Set(float64(entryBytes))
	t.snapEnumStates.Set(float64(ps.EnumStates))
	t.snapFrInserts.Set(float64(ps.FrontierInserts))
	t.snapFrDrops.Set(float64(ps.FrontierDrops))
	t.snapFrEvict.Set(float64(ps.FrontierEvictions))
}

// admit takes an admission slot against this tenant's cap, or reports it
// full. Caps are per tenant by design: a storm on one tenant exhausts
// its own semaphore and 429s, while every other tenant's slots — and the
// health endpoints — stay free.
func (t *tenant) admit() error {
	if t.inflight == nil {
		return nil
	}
	select {
	case t.inflight <- struct{}{}:
		return nil
	default:
		t.rejected.Inc()
		return &httpError{
			code: http.StatusTooManyRequests,
			err:  fmt.Errorf("tenant %q is at its in-flight request limit (%d); retry later", t.name, cap(t.inflight)),
		}
	}
}

func (t *tenant) release() {
	if t.inflight != nil {
		<-t.inflight
	}
}

// statusWord is this tenant's health summary: cold (no resident set —
// never loaded or evicted), degraded (last reload failed; the previous
// set keeps serving), or ok.
func (t *tenant) statusWord() string {
	switch {
	case t.current() == nil:
		return "cold"
	case t.degraded.Load():
		return "degraded"
	default:
		return "ok"
	}
}

// ------------------------------------------------------- registry ------

// resolveTenant routes a request: the X-Pinum-Tenant header and the
// request body's tenant field must agree when both are set; absent both,
// the default tenant serves.
func (s *Server) resolveTenant(r *http.Request, bodyTenant string) (*tenant, error) {
	name := bodyTenant
	if header := r.Header.Get(TenantHeader); header != "" {
		if bodyTenant != "" && bodyTenant != header {
			return nil, badRequest("tenant %q in the request body disagrees with %s %q",
				bodyTenant, TenantHeader, header)
		}
		name = header
	}
	return s.tenantByName(name)
}

// tenantByName resolves a tenant name ("" = the default tenant).
func (s *Server) tenantByName(name string) (*tenant, error) {
	if name == "" {
		name = s.defaultName
	}
	t := s.tenants[name]
	if t == nil {
		return nil, &httpError{
			code: http.StatusNotFound,
			err:  fmt.Errorf("unknown tenant %q (%d configured)", name, len(s.tenants)),
		}
	}
	return t, nil
}

// touch stamps t with a fresh recency tick.
func (s *Server) touch(t *tenant) { t.lastUsed.Store(s.clock.Add(1)) }

// acquireSet returns the tenant's live snapshot set, cold-loading it
// first when it was evicted or never loaded. reloadMu makes the load
// singleflight: the herd queues behind one load and reuses its set. A
// failed cold load is this request's 503 and nothing more — no degraded
// flag, no retry — so the next request tries again while every other
// tenant keeps serving untouched.
func (s *Server) acquireSet(t *tenant) (*snapshotSet, error) {
	if set := t.current(); set != nil {
		s.touch(t)
		return set, nil
	}
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	set := t.current()
	if set == nil {
		var err error
		if set, _, err = t.load(false); err != nil {
			return nil, &httpError{
				code: http.StatusServiceUnavailable,
				err:  fmt.Errorf("tenant %q: snapshot load failed: %v", t.name, err),
			}
		}
	}
	s.touch(t)
	return set, nil
}

// residentCount reports how many tenants currently hold a live set.
func (s *Server) residentCount() int {
	n := 0
	for _, t := range s.tenants {
		if t.current() != nil {
			n++
		}
	}
	return n
}

// noteResident restores the residency invariant after a tenant became
// resident: while more than MaxResident tenants hold live sets, the
// least-recently-used one (other than the tenant that just loaded) is
// evicted. Concurrent cold loads may overshoot the cap transiently; the
// loop converges because every successful publish lands here. opID is the
// operation ID of the load, which each eviction's event carries.
func (s *Server) noteResident(justLoaded *tenant, opID string) {
	if s.residentCap <= 0 {
		return
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	for {
		resident := 0
		var victim *tenant
		for _, name := range s.tenantNames {
			t := s.tenants[name]
			if t.current() == nil {
				continue
			}
			resident++
			if t == justLoaded {
				continue
			}
			if victim == nil || t.lastUsed.Load() < victim.lastUsed.Load() {
				victim = t
			}
		}
		if resident <= s.residentCap || victim == nil {
			return
		}
		s.evictLocked(victim, opID)
	}
}

// evictLocked retires a tenant's resident set (resMu held): one atomic
// nil store, visible to the next request as a cold load. Requests
// holding the old set finish on it — sets are immutable, so eviction
// never blocks or breaks an in-flight evaluation. The retry timer and
// degraded flag are cleared: an evicted tenant rebuilds its state on the
// next request instead of resurrecting itself in the background. The
// serve.tenant.evict faultpoint (delay mode) widens the evict/load race
// window for tests; error mode is meaningless here and ignored. The event
// carries opID, the operation ID of the load that caused the eviction.
func (s *Server) evictLocked(t *tenant, opID string) {
	_ = faultpoint.Hit("serve.tenant.evict")
	if t.swap(nil) == nil {
		return
	}
	t.clearRetry()
	t.degraded.Store(false)
	t.evictions.Inc()
	s.recordEvent("eviction", t.name, opID, fmt.Sprintf("LRU, resident cap %d", s.residentCap))
}
