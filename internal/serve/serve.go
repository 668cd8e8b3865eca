// Package serve implements the concurrent what-if serving layer: an HTTP
// server that answers configuration questions with pure cost arithmetic —
// no optimizer calls on any request path that the caches cover — over
// hot-swappable plan-cache snapshots, one per tenant.
//
// Concurrency model: everything a request reads — plan caches, analyses,
// queries, catalog, base costs, the advisor candidate set (generated by
// the first request that reads it, then fixed) and the what-if index
// interner — is bundled into one immutable snapshotSet behind an atomic
// pointer. A request loads the pointer once and works on that set
// for its whole lifetime; a concurrent reload builds a complete new set in
// the background and publishes it with a single pointer store, so
// in-flight requests keep their consistent world and new requests see the
// new one (never a mix). A built inum.Cache is immutable and Cost prices
// a configuration into a leaf-slot table on its caller's stack, so
// /whatif requests evaluate the shared caches directly, with no lock
// below the handler, fanning per-query evaluations with
// core.FanCtxObserved: the handler's goroutine prices queries itself,
// beside at most Workers − 1 helpers claiming from the same counter, and
// no query is claimed once the request's deadline passed. Everything a
// request does mutate is request-local: /recommend runs advisor.Search over
// the set's caches and candidate set on a fresh incremental cost engine,
// stopping between greedy rounds once its deadline passed, and /explain
// runs a fresh optimizer call. The one mutable structure inside a set is
// the what-if index interner — a mutex-guarded session that resolves each
// requested (table, columns) spec to a stably named descriptor, capped so
// a client enumerating index permutations cannot grow it without bound;
// past the cap a never-seen spec is priced through a request-local
// descriptor.
//
// Multi-tenancy: one process fronts a roster of workloads (Config.Tenants),
// each an independent tenant — its own snapshot set, reload/retry state
// machine and admission semaphore — routed by the request's `tenant` field
// or the X-Pinum-Tenant header (see tenant.go). A residency cap bounds how
// many tenants hold live sets at once; evicted tenants cold-load from their
// snapshot file on next request. A Config without Tenants is a roster of
// one, DefaultTenant, over the prebuilt workload it carries.
//
// Robustness: handlers run behind panic recovery (a handler panic is a
// counted 500, not a dead process — core.Fan re-raises a fan-out helper's
// panic on the goroutine that called it, so pricing and rebuild workers
// are inside the same recovers), replies are rendered before their status
// is written (an un-renderable one is a counted 500 with an error body,
// never an empty 200), per-tenant admission control (past a
// tenant's MaxInFlight concurrent compute requests new ones get 429
// instead of queueing unboundedly — and without touching other tenants),
// bounded request bodies (413 past -max-body-bytes), and per-request
// deadlines. Reloads that fail — loader error, rebuild panic, corrupt
// snapshot — leave the old set serving and retry with capped exponential
// backoff, surfaced as "degraded" in /healthz and /readyz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/storage"
)

// Default lifecycle parameters, used when the corresponding Config field
// is zero.
const (
	// DefaultMaxInFlight bounds one tenant's concurrently evaluating
	// compute requests (/whatif, /recommend, /explain); excess requests
	// are refused with 429 instead of queueing unboundedly.
	DefaultMaxInFlight = 64
	// DefaultRequestTimeout bounds one compute request's evaluation.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultRetryMin/Max bound the reload retry backoff: after a failed
	// reload a tenant retries at DefaultRetryMin, doubling per attempt up
	// to DefaultRetryMax, while its old snapshot set keeps serving.
	DefaultRetryMin = time.Second
	DefaultRetryMax = time.Minute
	// DefaultMaxBodyBytes bounds one request body; oversized bodies are
	// a counted 413, never an unbounded allocation.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultSlowRequest is the slow-request threshold: a request slower
	// than this is recorded in the operational event log.
	DefaultSlowRequest = time.Second
)

// TraceHeader opts a request into tracing and supplies its trace ID; it is
// the one tracing switch. Traced compute responses carry a "trace" block
// of span timings; untraced responses are byte-identical to the
// pre-tracing server.
const TraceHeader = "X-Pinum-Trace"

// Config assembles a server over a roster of workloads.
//
// Tenants is the roster: each entry is its own workload, loaded, reloaded
// and evicted on its own, and routed by name; MaxResident bounds how many
// hold live sets at once. A Config without Tenants is a roster of one,
// DefaultTenant, whose loader returns the prebuilt workload in
// Catalog/Stats/Queries/Analyses/Caches: New loads it synchronously, the
// first load taking those caches instead of planning, and a reload can
// only rebuild that same environment (force-reload still exercises the
// full optimizer path).
//
// The server has one load path. Startup (New, ReloadTenant), reload and
// cold load all run it: a snapshot file carrying the environment's
// fingerprint loads, and a missing, stale or corrupt one is rebuilt and
// written back. pinum-serve -save-exit is that load of every tenant,
// followed by exit.
type Config struct {
	Catalog *catalog.Catalog
	Stats   *stats.Store
	// Queries is the served workload; Caches and Analyses are aligned
	// with it.
	Queries  []*query.Query
	Analyses []*optimizer.Analysis
	Caches   []*inum.Cache
	// Workers bounds the per-request evaluation pool, each /recommend
	// run's greedy parallelism, and rebuild parallelism (0 = GOMAXPROCS).
	Workers int

	// Tenants is the roster: each entry is an independently loaded,
	// reloaded and evicted workload. Requests route by tenant name;
	// unrouted requests hit the first entry. Empty means the one
	// DefaultTenant over Catalog/Stats/Queries/Analyses/Caches, which are
	// ignored otherwise.
	Tenants []TenantConfig
	// MaxResident caps how many tenants hold a live snapshot set at once
	// (0 = all of them). Past the cap, publishing one tenant's set
	// evicts the least-recently-used other tenant; evicted tenants
	// cold-load on their next request.
	MaxResident int

	// MaxInFlight caps one tenant's concurrently evaluating compute
	// requests (0 = DefaultMaxInFlight, negative = unlimited); a
	// TenantConfig.MaxInFlight overrides it per tenant.
	MaxInFlight int
	// MaxBodyBytes caps one request body (0 = DefaultMaxBodyBytes,
	// negative = unlimited).
	MaxBodyBytes int64
	// RequestTimeout bounds one compute request's evaluation
	// (0 = DefaultRequestTimeout, negative = no deadline).
	RequestTimeout time.Duration
	// StrictHealth makes /readyz return 503 while any resident tenant is
	// degraded (its last reload failed); by default degraded is a 200
	// with a status field, since the old snapshot still answers
	// correctly.
	StrictHealth bool
	// Logger, when set, receives one structured record per request and
	// operational event, each carrying a trace ID (-log-format in
	// pinum-serve).
	Logger *slog.Logger
	// SlowRequest is the slow-request threshold: requests slower than
	// this are recorded in the operational event log
	// (0 = DefaultSlowRequest, negative = disabled).
	SlowRequest time.Duration
}

// Server answers what-if, recommendation and explain questions over
// hot-swappable immutable snapshot sets, one per tenant. Create with
// New; serve with Handler; swap with ReloadTenant/TriggerReload (or
// POST /reload).
type Server struct {
	cfg Config

	// The tenant registry (see tenant.go). tenantNames is sorted;
	// defaultName is the tenant unrouted requests hit.
	tenants     map[string]*tenant
	tenantNames []string
	defaultName string

	// residentCap bounds live snapshot sets across tenants; resMu
	// serializes the LRU residency sweep; clock issues recency ticks.
	residentCap int
	resMu       sync.Mutex
	clock       atomic.Int64

	// everLoaded flips once any tenant publishes a set; readiness gates
	// on it.
	everLoaded atomic.Bool

	// Observability: the metrics registry behind /metrics, the
	// operational event ring behind /eventz, per-endpoint handle cache,
	// and pre-resolved process-wide counters.
	reg       *obs.Registry
	events    *obs.EventLog
	logger    *slog.Logger
	epMu      sync.Mutex
	ep        map[string]*endpointObs
	panics    *obs.Counter
	oversized *obs.Counter
	unmatched *obs.Counter
	// loadPhases times every tenant's loads from inside (see loadPhase).
	loadPhases [numLoadPhases]*obs.Histogram

	// traceBase/traceSeq mint process-unique trace IDs without math/rand:
	// the start time in base-36 plus a monotonic sequence.
	traceBase string
	traceSeq  atomic.Int64

	start time.Time
	mux   *http.ServeMux

	// retryMin/retryMax bound the failed-reload backoff
	// (DefaultRetryMin/Max); tests that need a fast retry, or none, set
	// them before the first reload.
	retryMin, retryMax time.Duration
}

// endpointObs are one endpoint's registry handles — requests, errors and
// the latency histogram — resolved once at registration so request
// recording is three lock-free atomic updates.
type endpointObs struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// New builds the server. Every roster tenant starts cold; it loads on its
// first request or explicit reload. A Config without Tenants loads its one
// tenant synchronously from the provided caches instead, and counts that
// load as its cold load. Every request runs on shared immutable data plus
// request-local scratch.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.SlowRequest == 0 {
		cfg.SlowRequest = DefaultSlowRequest
	}
	s := &Server{
		cfg:         cfg,
		tenants:     make(map[string]*tenant),
		residentCap: cfg.MaxResident,
		start:       time.Now(),
		mux:         http.NewServeMux(),
		reg:         obs.NewRegistry(),
		events:      obs.NewEventLog(obs.DefaultEventLogSize),
		logger:      cfg.Logger,
		ep:          make(map[string]*endpointObs),

		retryMin: DefaultRetryMin,
		retryMax: DefaultRetryMax,
	}
	s.traceBase = strconv.FormatInt(s.start.UnixNano(), 36)
	s.registerProcessMetrics()

	roster := cfg.Tenants
	if len(roster) == 0 {
		env := &Environment{Catalog: cfg.Catalog, Stats: cfg.Stats, Queries: cfg.Queries, Analyses: cfg.Analyses}
		roster = []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) { return env, nil }}}
	}
	for _, tc := range roster {
		if !plancache.ValidTenantName(tc.Name) {
			return nil, fmt.Errorf("serve: invalid tenant name %q", tc.Name)
		}
		if s.tenants[tc.Name] != nil {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		if tc.Loader == nil {
			return nil, fmt.Errorf("serve: tenant %q needs a Loader", tc.Name)
		}
		s.tenants[tc.Name] = s.newTenant(tc)
		s.tenantNames = append(s.tenantNames, tc.Name)
	}
	s.defaultName = roster[0].Name
	sort.Strings(s.tenantNames)
	if len(cfg.Tenants) == 0 {
		// The Config's caches are the first load's prebuilt tier; the copy
		// is never nil, so a Config without caches fails as a mismatch.
		t := s.tenants[DefaultTenant]
		t.prebuilt = append([]*inum.Cache{}, cfg.Caches...)
		if _, err := t.reloadNow(false); err != nil {
			return nil, err
		}
	}

	s.mux.HandleFunc("/whatif", s.instrument("/whatif", http.MethodPost, compute(s, s.whatIfOn)))
	s.mux.HandleFunc("/recommend", s.instrument("/recommend", http.MethodPost, compute(s, s.recommendOn)))
	s.mux.HandleFunc("/explain", s.instrument("/explain", http.MethodPost, compute(s, explainOn)))
	s.mux.HandleFunc("/reload", s.instrument("/reload", http.MethodPost, s.handleReload))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", http.MethodGet, s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", http.MethodGet, s.handleReady))
	s.mux.HandleFunc("/eventz", s.instrument("/eventz", http.MethodGet, s.handleEventz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleUnmatched)
	return s, nil
}

// registerProcessMetrics resolves the process-wide counter handles and
// installs the runtime gauges: goroutine count live, heap/GC numbers
// refreshed by one ReadMemStats per scrape.
func (s *Server) registerProcessMetrics() {
	s.panics = s.reg.Counter("pinum_panics_total",
		"Recovered panics across request handlers and snapshot rebuilds.")
	s.oversized = s.reg.Counter("pinum_ingress_oversized_total",
		"Request bodies refused with 413 for exceeding the body-size cap.")
	s.unmatched = s.reg.Counter("pinum_http_unmatched_total",
		"Requests for unregistered paths answered 404.")
	for p, name := range loadPhaseNames {
		s.loadPhases[p] = s.reg.Histogram("pinum_load_phase_seconds",
			"Wall time of one phase of a cold load or reload, by phase.", obs.L("phase", name))
	}
	s.reg.GaugeFunc("pinum_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("pinum_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	heap := s.reg.Gauge("pinum_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	gcPause := s.reg.Gauge("pinum_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause seconds.")
	gcCycles := s.reg.Gauge("pinum_gc_cycles_total",
		"Completed GC cycles.")
	s.reg.OnScrape(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(float64(ms.HeapAlloc))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
		gcCycles.Set(float64(ms.NumGC))
	})
}

// epFor resolves (registering on first use) one endpoint's handles.
func (s *Server) epFor(name string) *endpointObs {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	m := s.ep[name]
	if m == nil {
		m = &endpointObs{
			requests: s.reg.Counter("pinum_http_requests_total",
				"HTTP requests received, by endpoint.", obs.L("endpoint", name)),
			errors: s.reg.Counter("pinum_http_request_errors_total",
				"HTTP requests answered with an error status, by endpoint.", obs.L("endpoint", name)),
			latency: s.reg.Histogram("pinum_http_request_duration_seconds",
				"HTTP request latency in seconds, by endpoint.", obs.L("endpoint", name)),
		}
		s.ep[name] = m
	}
	return m
}

// Registry exposes the metrics registry (tests and embedders; the HTTP
// surface is GET /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// newTenant builds one registry entry. MaxInFlight 0 inherits the
// server-wide cap; negative means unlimited.
func (s *Server) newTenant(tc TenantConfig) *tenant {
	maxInFlight := tc.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = s.cfg.MaxInFlight
	}
	t := &tenant{
		name:         tc.Name,
		srv:          s,
		loader:       tc.Loader,
		snapshotPath: tc.SnapshotPath,
		reloadQueue:  make(chan struct{}, 2),
	}
	if maxInFlight > 0 {
		t.inflight = make(chan struct{}, maxInFlight)
	}
	s.registerTenantMetrics(t)
	return t
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops every tenant's reload retry machinery. In-flight requests
// finish normally; the caller owns the HTTP listener's own shutdown.
func (s *Server) Close() {
	for _, name := range s.tenantNames {
		s.tenants[name].stopRetry()
	}
}

// httpError carries a status code out of a handler.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// instrument wraps a handler with method filtering, panic containment,
// JSON error rendering and the endpoint's latency/throughput counters.
// The deadline and per-tenant admission control are compute's, so
// health/metrics endpoints stay exempt and a saturated server can still be
// observed. A request carrying the X-Pinum-Trace header gets a trace
// attached to its context here, so every downstream span lands on it.
func (s *Server) instrument(name, method string, fn func(*http.Request) (any, error)) http.HandlerFunc {
	m := s.epFor(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		var tr *obs.Trace
		if id := r.Header.Get(TraceHeader); id != "" {
			tr = obs.NewTraceAt(id, start)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		var (
			resp any
			err  error
		)
		if r.Method != method {
			err = &httpError{code: http.StatusMethodNotAllowed, err: fmt.Errorf("%s requires %s", name, method)}
		} else {
			resp, err = s.contain(name, fn, r)
		}
		// Render before the status goes out: a reply that cannot be
		// rendered is a counted 500 with an error body, never an empty or
		// truncated 200.
		var body *replyBuf
		if err == nil {
			body = getReplyBuf()
			defer putReplyBuf(body)
			if rerr := body.render(resp); rerr != nil {
				err = fmt.Errorf("rendering %s reply: %w", name, rerr)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		if err != nil {
			m.errors.Inc()
			status = http.StatusInternalServerError
			var he *httpError
			if errors.As(err, &he) {
				status = he.code
			} else if errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		} else {
			_, _ = w.Write(body.b) // a failed write is a client that left
		}
		s.record(name, m, time.Since(start), status, tr)
	}
}

// record is the per-request bookkeeping tail every endpoint funnels
// through. With tracing off and no structured logger the whole call is
// lock-free atomic updates — the serving hot path must not pay an
// allocation for observability it didn't ask for.
//
//pinum:allocfree tracing/logging-off fast path; pinned by TestRequestRecordAllocFree and BenchmarkRequestRecord
func (s *Server) record(name string, m *endpointObs, dur time.Duration, status int, tr *obs.Trace) {
	m.latency.Observe(dur.Seconds())
	if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
		s.recordSlow(name, dur, tr)
	}
	if s.logger != nil {
		s.logRequest(name, status, dur, tr)
	}
}

// recordSlow files one slow-request event; split from record so the fmt
// work stays off the annotated fast path.
func (s *Server) recordSlow(name string, dur time.Duration, tr *obs.Trace) {
	s.recordEvent("slow-request", "", tr.ID(),
		fmt.Sprintf("%s took %s (threshold %s)", name, dur.Round(time.Millisecond), s.cfg.SlowRequest))
}

// logRequest emits one structured record per request; requests that
// arrived without a trace get an ID minted here so every line is
// correlatable.
func (s *Server) logRequest(name string, status int, dur time.Duration, tr *obs.Trace) {
	id := tr.ID()
	if id == "" {
		id = s.nextTraceID()
	}
	level := slog.LevelInfo
	if status >= http.StatusInternalServerError {
		level = slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), level, "request",
		slog.String("endpoint", name),
		slog.Int("status", status),
		slog.Int64("dur_us", dur.Microseconds()),
		slog.String("trace_id", id),
	)
}

// nextTraceID mints a process-unique trace ID without math/rand (the
// serving tree bans nondeterminism outside annotated sites): the server
// start time in base-36 plus a monotonic sequence.
func (s *Server) nextTraceID() string {
	return s.traceBase + "-" + strconv.FormatInt(s.traceSeq.Add(1), 10)
}

// recordEvent files one operational event: the /eventz ring, the
// per-type counter, and (when structured logging is on) one log line.
func (s *Server) recordEvent(typ, tenantName, traceID, detail string) {
	s.events.Record(obs.Event{Type: typ, Tenant: tenantName, TraceID: traceID, Detail: detail})
	s.reg.Counter("pinum_events_total", "Operational events recorded, by type.", obs.L("type", typ)).Inc()
	if s.logger != nil {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "event",
			slog.String("type", typ),
			slog.String("tenant", tenantName),
			slog.String("trace_id", traceID),
			slog.String("detail", detail),
		)
	}
}

// contain runs one handler with panic recovery: a panicking handler
// becomes a counted 500 — and a recorded event — and the next request
// proceeds normally.
func (s *Server) contain(name string, fn func(*http.Request) (any, error), r *http.Request) (resp any, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			s.recordEvent("panic", "", obs.TraceFrom(r.Context()).ID(),
				fmt.Sprintf("handler %s: %v", name, p))
			err = fmt.Errorf("internal panic in %s handler: %v", name, p)
		}
	}()
	return fn(r)
}

// compute is the one way in for a compute endpoint: start the request's
// deadline, read the body once and decode it into a Req with the request
// type's own decode method (the decode span, both together), route to a
// tenant, count the request, take its admission slot, make it resident,
// run on against the immutable set — which on uses for its whole lifetime
// regardless of concurrent swaps or evictions — and attach the trace
// block when the request is traced.
func compute[Req any, PReq interface {
	*Req
	tenantName() string
	decode(body []byte) error
}, Resp interface{ setTrace(*obs.TraceView) }](
	s *Server, on func(context.Context, *snapshotSet, PReq) (Resp, error)) func(*http.Request) (any, error) {
	return func(r *http.Request) (any, error) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		t0 := time.Now()
		body, err := s.readBody(r)
		if err != nil {
			return nil, err
		}
		req := PReq(new(Req))
		if err := req.decode(body); err != nil {
			return nil, err
		}
		tr := obs.TraceFrom(ctx)
		tr.Add("decode", t0, time.Since(t0))
		rt := time.Now()
		t, err := s.resolveTenant(r, req.tenantName())
		tr.Add("route", rt, time.Since(rt))
		if err != nil {
			return nil, err
		}
		t.requests.Inc()
		if err := t.admit(); err != nil {
			t.errors.Inc()
			return nil, err
		}
		defer t.release()
		lt := time.Now()
		set, err := s.acquireSet(t)
		tr.Add("load", lt, time.Since(lt))
		if err != nil {
			t.errors.Inc()
			return nil, err
		}
		resp, err := on(ctx, set, req)
		if err != nil {
			t.errors.Inc()
			return nil, err
		}
		resp.setTrace(s.traceView(tr, resp))
		return resp, nil
	}
}

// handleMetrics serves the Prometheus text exposition. It bypasses
// instrument's JSON rendering but shares the same per-endpoint handles,
// so scrapes are themselves visible in the data they return.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := s.epFor("/metrics")
	m.requests.Inc()
	status := http.StatusOK
	if r.Method != http.MethodGet {
		m.errors.Inc()
		status = http.StatusMethodNotAllowed
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": "/metrics requires GET"})
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WriteText(w); err != nil {
			m.errors.Inc()
		}
	}
	s.record("/metrics", m, time.Since(start), status, nil)
}

// handleUnmatched is the mux catch-all: probes for paths this server
// never registered are counted (pinum_http_unmatched_total) instead of
// vanishing into a silent 404. No per-path series is created — request
// paths are attacker-controlled and would blow up metric cardinality.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	s.unmatched.Inc()
	if s.logger != nil {
		s.logRequest(r.URL.Path, http.StatusNotFound, 0, nil)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	json.NewEncoder(w).Encode(map[string]string{"error": "no such endpoint: " + r.URL.Path})
}

// handleEventz serves the operational event ring, oldest first.
func (s *Server) handleEventz(*http.Request) (any, error) {
	return map[string]any{
		"total":    s.events.Total(),
		"capacity": s.events.Cap(),
		"events":   s.events.Events(),
	}, nil
}

// ----------------------------------------------------------- whatif ----

// IndexSpec names one hypothetical index in a request.
type IndexSpec struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// WeightOverride reweights one workload query for the duration of a
// request. Each query may appear at most once; weights must be positive
// and finite.
type WeightOverride struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// WhatIfRequest prices the workload under a configuration.
type WhatIfRequest struct {
	// Tenant routes the request to one of the roster's tenants; it must
	// agree with the X-Pinum-Tenant header when both are set. Empty means
	// the default tenant.
	Tenant  string           `json:"tenant,omitempty"`
	Indexes []IndexSpec      `json:"indexes"`
	Weights []WeightOverride `json:"weights,omitempty"`
}

func (r WhatIfRequest) tenantName() string { return r.Tenant }

// QueryCost is one query's answer.
type QueryCost struct {
	Name string  `json:"name"`
	Base float64 `json:"base"`
	Cost float64 `json:"cost"`
}

// WhatIfResponse reports per-query and weighted workload costs.
type WhatIfResponse struct {
	Total     float64        `json:"total"`
	BaseTotal float64        `json:"base_total"`
	Speedup   float64        `json:"speedup"`
	Queries   []QueryCost    `json:"queries"`
	Trace     *obs.TraceView `json:"trace,omitempty"`

	// baseDigits is the answering set's pre-rendered base costs, which
	// the reply renderer copies instead of formatting; nil renders every
	// float.
	baseDigits *baseDigits
}

func (r *WhatIfResponse) setTrace(v *obs.TraceView) { r.Trace = v }

// WhatIf prices the workload under the given configuration on the
// tenant the request names (default tenant when empty): per-query cache
// lookups fan over the worker pool, and the weighted total is summed in
// workload order — the same arithmetic, in the same order, as the
// in-process advisor's workload costing, so results agree bit for bit.
func (s *Server) WhatIf(req *WhatIfRequest) (*WhatIfResponse, error) {
	t, err := s.tenantByName(req.Tenant)
	if err != nil {
		return nil, err
	}
	set, err := s.acquireSet(t)
	if err != nil {
		return nil, err
	}
	return s.whatIfOn(context.Background(), set, req)
}

func (s *Server) whatIfOn(ctx context.Context, set *snapshotSet, req *WhatIfRequest) (*WhatIfResponse, error) {
	cfg, err := set.resolveConfig(req.Indexes)
	if err != nil {
		return nil, err
	}
	weights, err := set.resolveWeights(req.Weights)
	if err != nil {
		return nil, err
	}
	n := len(set.caches)
	costs := make([]float64, n)
	errs := make([]error, n)
	tr := obs.TraceFrom(ctx)
	var observe func(int, time.Time, time.Duration)
	if tr != nil {
		observe = func(i int, qs time.Time, d time.Duration) {
			tr.Add("query:"+set.env.Queries[i].Name, qs, d)
		}
	}
	// One grouping serves every query of the fan-out: each folds only the
	// indexes on its own tables, plus any the catalog cannot place.
	ft := time.Now()
	g := optimizer.GroupByTable(set.env.Catalog.NameSpace(), cfg)
	fanErr := core.FanCtxObserved(ctx, n, s.cfg.Workers, func() func(int) {
		return func(i int) {
			costs[i], _, errs[i] = set.caches[i].CostByTable(g)
		}
	}, observe)
	tr.Add("fanout", ft, time.Since(ft))
	if fanErr != nil {
		return nil, fmt.Errorf("request abandoned: %w", fanErr)
	}
	resp := &WhatIfResponse{Queries: make([]QueryCost, n), baseDigits: set.baseDigits}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("pricing %s: %w", set.env.Queries[i].Name, errs[i])
		}
		resp.Queries[i] = QueryCost{Name: set.env.Queries[i].Name, Base: set.base[i], Cost: costs[i]}
		//pinum:costarith-ok workload objective Σ wᵢ·cᵢ in query order, as the advisor sums it; pinned by TestWhatIfMatchesInProcess
		resp.Total += weights[i] * costs[i]
		//pinum:costarith-ok the same objective over the base costs; pinned by TestWeightOverrides
		resp.BaseTotal += weights[i] * set.base[i]
	}
	// Each weight is finite (resolveWeights) and each cost is; their sum
	// need not be, and JSON cannot carry the result.
	if math.IsInf(resp.Total, 0) || math.IsInf(resp.BaseTotal, 0) {
		return nil, badRequest("weighted workload total overflows float64 (total %g, base_total %g): lower the weights", resp.Total, resp.BaseTotal)
	}
	if resp.BaseTotal > 0 {
		resp.Speedup = math.Max(0, 1-resp.Total/resp.BaseTotal)
	}
	return resp, nil
}

// traceView finishes a traced request: it measures one rendering pass
// as the encode span (instrument's real encode happens after the
// handler returns) and snapshots the span set. The pass runs before the
// trace block is attached, through instrument's own renderer, so the span
// is what an untraced reply of this shape costs. Returns nil — leaving
// the response byte-identical to an untraced one — when tracing is off.
func (s *Server) traceView(tr *obs.Trace, resp any) *obs.TraceView {
	if tr == nil {
		return nil
	}
	body := getReplyBuf()
	e0 := time.Now()
	if err := body.render(resp); err == nil {
		tr.Add("encode", e0, time.Since(e0))
	}
	putReplyBuf(body)
	return tr.View()
}

// -------------------------------------------------------- recommend ----

// RecommendRequest runs the index advisor under a space budget.
type RecommendRequest struct {
	// Tenant routes the request; see WhatIfRequest.Tenant.
	Tenant     string           `json:"tenant,omitempty"`
	BudgetGB   float64          `json:"budget_gb"`
	MaxIndexes int              `json:"max_indexes"`
	Weights    []WeightOverride `json:"weights,omitempty"`
}

func (r RecommendRequest) tenantName() string { return r.Tenant }

// RecommendResponse reports the advisor's suggestion.
type RecommendResponse struct {
	Chosen     []string       `json:"chosen"`
	TotalBytes int64          `json:"total_bytes"`
	BaseCost   float64        `json:"base_cost"`
	FinalCost  float64        `json:"final_cost"`
	Speedup    float64        `json:"speedup"`
	Rounds     int            `json:"rounds"`
	Candidates int            `json:"candidates"`
	Queries    []QueryCost    `json:"queries"`
	Engine     EngineStats    `json:"engine"`
	Trace      *obs.TraceView `json:"trace,omitempty"`
}

func (r *RecommendResponse) setTrace(v *obs.TraceView) { r.Trace = v }

// EngineStats mirrors the cost engine's work counters in the response.
type EngineStats struct {
	CandidateEvals int64 `json:"candidate_evals"`
	QueryEvals     int64 `json:"query_evals"`
	QuerySkips     int64 `json:"query_skips"`
}

// recommendOn runs advisor.Search over the set's shared caches, the
// request's weights and the set's candidate set, on a request-local cost
// engine that stops between rounds once ctx is done. Results are identical
// to an in-process advisor.Run over the same workload, weights and budget.
func (s *Server) recommendOn(ctx context.Context, set *snapshotSet, req *RecommendRequest) (*RecommendResponse, error) {
	budget, err := storage.BudgetBytes(req.BudgetGB)
	if err != nil {
		return nil, badRequest("budget_gb %v", err)
	}
	weights, err := set.resolveWeights(req.Weights)
	if err != nil {
		return nil, err
	}
	cs, err := set.candidates()
	if err != nil {
		return nil, err
	}
	queries := make([]costmatrix.Query, len(set.caches))
	for i, c := range set.caches {
		queries[i] = costmatrix.Query{Cache: c, Weight: weights[i]}
	}
	rt := time.Now()
	res, err := advisor.Search(ctx, queries, cs.indexes, budget, req.MaxIndexes, s.cfg.Workers)
	obs.TraceFrom(ctx).Add("advisor", rt, time.Since(rt))
	if err != nil {
		return nil, err
	}
	return RecommendResponseFrom(res, set.env.Queries), nil
}

// RecommendResponseFrom shapes an advisor result for the wire. The CLI's
// verify mode shapes an independent in-process Advisor.Run result through
// the same function, so a served response and its ground truth can be
// compared byte for byte.
func RecommendResponseFrom(res *advisor.Result, queries []*query.Query) *RecommendResponse {
	resp := &RecommendResponse{
		TotalBytes: res.TotalBytes,
		BaseCost:   res.BaseCost,
		FinalCost:  res.FinalCost,
		Speedup:    res.Speedup(),
		Rounds:     res.Rounds,
		Candidates: res.CandidateCount,
		Engine: EngineStats{
			CandidateEvals: res.Engine.CandidateEvals,
			QueryEvals:     res.Engine.QueryEvals,
			QuerySkips:     res.Engine.QuerySkips,
		},
	}
	for _, ix := range res.Chosen {
		resp.Chosen = append(resp.Chosen, ix.Key())
	}
	for _, q := range queries {
		pq := res.PerQuery[q.Name]
		resp.Queries = append(resp.Queries, QueryCost{Name: q.Name, Base: pq[0], Cost: pq[1]})
	}
	return resp
}

// ---------------------------------------------------------- explain ----

// ExplainRequest optimizes one query under a configuration.
type ExplainRequest struct {
	// Tenant routes the request; see WhatIfRequest.Tenant.
	Tenant  string      `json:"tenant,omitempty"`
	SQL     string      `json:"sql"`
	Indexes []IndexSpec `json:"indexes"`
}

func (r ExplainRequest) tenantName() string { return r.Tenant }

// ExplainLeaf is one relation's access requirement in the chosen plan's
// INUM decomposition.
type ExplainLeaf struct {
	Rel        int     `json:"rel"`
	Table      string  `json:"table"`
	Mode       string  `json:"mode"`
	Col        string  `json:"col,omitempty"`
	Coef       float64 `json:"coef"`
	AccessCost float64 `json:"access_cost"`
}

// ExplainResponse is the plan, its cost, and its decomposition.
type ExplainResponse struct {
	Cost     float64        `json:"cost"`
	Internal float64        `json:"internal"`
	Plan     string         `json:"plan"`
	Leaves   []ExplainLeaf  `json:"leaves"`
	Trace    *obs.TraceView `json:"trace,omitempty"`
}

func (r *ExplainResponse) setTrace(v *obs.TraceView) { r.Trace = v }

// explainOn runs one conventional optimizer call for an ad-hoc query — the
// only endpoint that plans, since arbitrary SQL has no prebuilt cache —
// and reports the plan tree plus its internal/leaf cost decomposition.
// All state is request-local except the set's read-only catalog and its
// index interner. A query the planner refuses as too dense to enumerate is
// the client's error, like one past optimizer.MaxRels.
func explainOn(ctx context.Context, set *snapshotSet, req *ExplainRequest) (*ExplainResponse, error) {
	if req.SQL == "" {
		return nil, badRequest("sql is required")
	}
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	q, err := sql.Bind(stmt, set.env.Catalog, "adhoc")
	if err != nil {
		return nil, badRequest("%v", err)
	}
	cfg, err := set.resolveConfig(req.Indexes)
	if err != nil {
		return nil, err
	}
	a, err := optimizer.NewAnalysis(q, set.env.Stats, optimizer.DefaultCostParams())
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ot := time.Now()
	res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
	obs.TraceFrom(ctx).Add("optimize", ot, time.Since(ot))
	if errors.Is(err, optimizer.ErrTooDense) {
		return nil, badRequest("%v", err)
	}
	if err != nil {
		return nil, err
	}
	sum := optimizer.Summarize(res.Best, len(q.Rels))
	resp := &ExplainResponse{
		Cost:     res.Best.Cost,
		Internal: sum.Internal,
		Plan:     optimizer.Explain(res.Best, q),
	}
	for rel, lr := range sum.Leaves {
		ac, ok := a.AccessCost(rel, lr, cfg)
		if !ok {
			ac = math.Inf(1)
		}
		resp.Leaves = append(resp.Leaves, ExplainLeaf{
			Rel:        rel,
			Table:      q.Rels[rel].Table.Name,
			Mode:       lr.Mode.String(),
			Col:        lr.Col,
			Coef:       lr.Coef,
			AccessCost: ac,
		})
	}
	return resp, nil
}

// ------------------------------------------------- health / metrics ----

// handleHealth is liveness plus a status summary: the process is up, so
// the answer is always 200. ?tenant= selects one tenant's detail (status,
// fingerprint, snapshot_source, …); without it a roster of one answers its
// tenant's detail and a larger roster the registry overview.
func (s *Server) handleHealth(r *http.Request) (any, error) {
	if name := r.URL.Query().Get("tenant"); name != "" || len(s.tenants) == 1 {
		t, err := s.tenantByName(name)
		if err != nil {
			return nil, err
		}
		return s.tenantHealth(t), nil
	}
	statuses := make(map[string]string, len(s.tenants))
	for _, name := range s.tenantNames {
		statuses[name] = s.tenants[name].statusWord()
	}
	out := map[string]any{
		"status":           s.serverStatus(),
		"tenants":          len(s.tenants),
		"tenants_resident": s.residentCount(),
		"tenant_status":    statuses,
	}
	if s.residentCap > 0 {
		out["resident_cap"] = s.residentCap
	}
	return out, nil
}

// tenantHealth is one tenant's health detail.
func (s *Server) tenantHealth(t *tenant) map[string]any {
	set := t.current()
	out := map[string]any{"status": t.statusWord(), "tenant": t.name}
	if set != nil {
		entries := 0
		for _, c := range set.caches {
			entries += len(c.Plans)
		}
		out["queries"] = len(set.env.Queries)
		out["entries"] = entries
		// First use generates the candidate set here, off any request
		// path; a probe that cannot says so instead of reporting zero.
		if cs, err := set.candidates(); err != nil {
			out["candidates_error"] = err.Error()
		} else {
			out["candidates"] = len(cs.indexes)
			out["candidate_gen_errors"] = cs.genErrors
		}
		out["fingerprint"] = fmt.Sprintf("%016x", set.fingerprint)
		out["snapshot_source"] = set.source
	}
	if msg := loadString(&t.lastReloadErr); msg != "" {
		out["last_reload_error"] = msg
	}
	return out
}

// handleReady is readiness: 503 until the first snapshot set is
// published anywhere, and — behind StrictHealth — 503 while any
// resident tenant is degraded. A degraded tenant is serving correct (if
// stale) answers, so by default the server stays ready with the
// degradation surfaced in the status field.
func (s *Server) handleReady(*http.Request) (any, error) {
	if !s.everLoaded.Load() {
		return nil, &httpError{
			code: http.StatusServiceUnavailable,
			err:  errors.New("starting: no snapshot loaded yet"),
		}
	}
	if s.cfg.StrictHealth {
		for _, name := range s.tenantNames {
			t := s.tenants[name]
			if t.current() != nil && t.degraded.Load() {
				return nil, &httpError{
					code: http.StatusServiceUnavailable,
					err:  fmt.Errorf("degraded: tenant %s: %s", t.name, loadString(&t.lastReloadErr)),
				}
			}
		}
	}
	return map[string]any{"status": s.serverStatus()}, nil
}

// serverStatus is the process-level status word: starting until any
// tenant has loaded, degraded while any resident tenant is, ok otherwise.
func (s *Server) serverStatus() string {
	if !s.everLoaded.Load() {
		return "starting"
	}
	for _, name := range s.tenantNames {
		t := s.tenants[name]
		if t.current() != nil && t.degraded.Load() {
			return "degraded"
		}
	}
	return "ok"
}

func loadString(v *atomic.Value) string {
	if s, ok := v.Load().(string); ok {
		return s
	}
	return ""
}

// EncodeJSON renders a response value exactly as the HTTP handlers do
// (two-space indent, trailing newline), so out-of-band recomputations can
// be byte-compared against a served body.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
