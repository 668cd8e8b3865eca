// Package serve implements the concurrent what-if serving layer: an HTTP
// server that answers configuration questions with pure cost arithmetic —
// no optimizer calls on any request path that the caches cover — over
// hot-swappable plan-cache snapshots, one per tenant.
//
// Concurrency model: everything a request reads — plan caches, analyses,
// queries, catalog, base costs, the advisor candidate set and the what-if
// index interner — is bundled into one immutable snapshotSet behind an
// atomic pointer. A request loads the pointer once and works on that set
// for its whole lifetime; a concurrent reload builds a complete new set in
// the background and publishes it with a single pointer store, so
// in-flight requests keep their consistent world and new requests see the
// new one (never a mix). A sealed inum.Cache is immutable and Cost prices
// a configuration into a leaf-slot table on its caller's stack, so
// /whatif requests evaluate the shared caches directly, with no lock
// below the handler, fanning per-query evaluations with core.FanCtx: the
// handler's goroutine prices queries itself, beside at most Workers − 1
// helpers claiming from the same counter, and no query is claimed once
// the request's deadline passed. Everything a request
// does mutate is request-local: /recommend builds a fresh Advisor and
// incremental cost engine per request, /explain runs a fresh optimizer
// call. The one mutable structure inside a set is the what-if index
// interner — a mutex-guarded session that resolves each requested
// (table, columns) spec to a stably named descriptor, capped so a client
// enumerating index permutations cannot grow it without bound; past the
// cap a never-seen spec is priced through a request-local descriptor.
//
// Multi-tenancy: one process fronts N workloads (Config.Tenants), each an
// independent tenant — its own snapshot set, reload/retry state machine
// and admission semaphore — routed by the request's `tenant` field or the
// X-Pinum-Tenant header (see tenant.go). A residency cap bounds how many
// tenants hold live sets at once; evicted tenants cold-load from their
// snapshot file on next request. A Config without Tenants serves one
// default tenant with the pre-tenant behavior, byte for byte.
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
// backoff, surfaced as "degraded" in /healthz, /readyz and /statz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// reload a tenant retries at RetryMin, doubling per attempt up to
	// RetryMax, while its old snapshot set keeps serving.
	DefaultRetryMin = time.Second
	DefaultRetryMax = time.Minute
	// DefaultMaxBodyBytes bounds one request body; oversized bodies are
	// a counted 413, never an unbounded allocation.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultSlowRequest is the slow-request threshold: a request slower
	// than this is recorded in the operational event log.
	DefaultSlowRequest = time.Second
)

// TraceHeader opts a request into tracing and supplies its trace ID;
// the request body's `"trace": true` field is the in-band equivalent
// (with a generated ID). Traced compute responses carry a "trace" block
// of span timings; untraced responses are byte-identical to the
// pre-tracing server.
const TraceHeader = "X-Pinum-Trace"

// Config assembles a server over one prepared workload — or several.
//
// Three modes exist. Static: Catalog/Stats/Queries/Analyses/Caches
// describe one prebuilt workload; New builds the initial snapshot set
// from them synchronously and Reload can only rebuild that same
// environment (force-reload still exercises the full optimizer path).
// Loader: Loader re-derives the environment — catalog, statistics,
// queries, analyses — on every (re)load, so statistics drift between
// calls is picked up by /reload or SIGHUP; the server starts unloaded
// and becomes ready when the first load succeeds. Tenants: each entry is
// its own loader-mode workload, routed by name; MaxResident bounds how
// many hold live sets at once.
type Config struct {
	Catalog *catalog.Catalog
	Stats   *stats.Store
	// Queries is the served workload; Caches and Analyses are aligned
	// with it.
	Queries  []*query.Query
	Analyses []*optimizer.Analysis
	Caches   []*inum.Cache
	// Weights are the workload frequency weights (nil = all 1).
	Weights []float64
	// Workers bounds the per-request evaluation pool, each /recommend
	// run's greedy parallelism, and rebuild parallelism (0 = GOMAXPROCS).
	Workers int

	// Loader re-derives the serving environment for hot reloads; nil
	// means static mode over the fields above. Ignored when Tenants is
	// set.
	Loader func() (*Environment, error)
	// SnapshotPath, when set, is consulted on every (re)load — a disk
	// snapshot matching the environment fingerprint is loaded instead of
	// re-optimizing — and rewritten (crash-safely) after every rebuild.
	// Ignored when Tenants is set (each tenant carries its own path).
	SnapshotPath string

	// Tenants, when non-empty, makes this a multi-tenant server: each
	// entry is an independently loaded, reloaded and evicted workload.
	// Requests route by tenant name; unrouted requests hit the first
	// entry.
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
	// RetryMin/RetryMax bound the failed-reload backoff
	// (0 = DefaultRetryMin/Max).
	RetryMin time.Duration
	RetryMax time.Duration
	// Logger, when set, receives one structured record per request and
	// operational event, each carrying a trace ID (-log-format in
	// pinum-serve).
	Logger *slog.Logger
	// SlowRequest is the slow-request threshold: requests slower than
	// this are recorded in the operational event log
	// (0 = DefaultSlowRequest, negative = disabled).
	SlowRequest time.Duration
	// EventLogSize caps the operational event ring served at /eventz
	// (0 = obs.DefaultEventLogSize).
	EventLogSize int
}

// Server answers what-if, recommendation and explain questions over
// hot-swappable immutable snapshot sets, one per tenant. Create with
// New; serve with Handler; swap with ReloadNow/ReloadTenant/
// TriggerReload (or POST /reload).
type Server struct {
	cfg Config

	// The tenant registry (see tenant.go). tenantNames is sorted;
	// defaultName is the tenant unrouted requests hit; multi reports
	// whether Config.Tenants was used (single-tenant servers keep the
	// pre-tenant wire contract exactly).
	tenants     map[string]*tenant
	tenantNames []string
	defaultName string
	multi       bool

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
	// and pre-resolved process-wide counters. /statz derives every
	// number it reports from the same registry handles, so the two
	// exposition surfaces can never disagree.
	reg       *obs.Registry
	events    *obs.EventLog
	logger    *slog.Logger
	epMu      sync.Mutex
	ep        map[string]*endpointObs
	panics    *obs.Counter
	oversized *obs.Counter
	unmatched *obs.Counter

	// traceBase/traceSeq mint process-unique trace IDs without math/rand:
	// the start time in base-36 plus a monotonic sequence.
	traceBase string
	traceSeq  atomic.Int64

	start time.Time
	mux   *http.ServeMux
}

// endpointObs are one endpoint's registry handles — requests, errors and
// the latency histogram — resolved once at registration so request
// recording is three lock-free atomic updates.
type endpointObs struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// New builds the server. In static mode (no Loader, no Tenants) the
// initial snapshot set is built synchronously from the provided caches —
// construction is the only place optimizer-derived state is created, and
// every request after it runs on shared immutable data plus
// request-local scratch. In loader mode the server starts unloaded
// (readiness fails) until the first load succeeds. In tenant mode every
// entry starts cold; loads happen on first request or explicit reload.
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
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = DefaultRetryMin
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.SlowRequest == 0 {
		cfg.SlowRequest = DefaultSlowRequest
	}
	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		start:   time.Now(),
		mux:     http.NewServeMux(),
		reg:     obs.NewRegistry(),
		events:  obs.NewEventLog(cfg.EventLogSize),
		logger:  cfg.Logger,
		ep:      make(map[string]*endpointObs),
	}
	s.traceBase = strconv.FormatInt(s.start.UnixNano(), 36)
	s.registerProcessMetrics()

	if len(cfg.Tenants) > 0 {
		s.multi = true
		s.residentCap = cfg.MaxResident
		for _, tc := range cfg.Tenants {
			if !plancache.ValidTenantName(tc.Name) {
				return nil, fmt.Errorf("serve: invalid tenant name %q", tc.Name)
			}
			if s.tenants[tc.Name] != nil {
				return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
			}
			if tc.Loader == nil {
				return nil, fmt.Errorf("serve: tenant %q needs a Loader", tc.Name)
			}
			s.tenants[tc.Name] = s.newTenant(tc.Name, tc.Loader, tc.SnapshotPath, tc.MaxInFlight)
			s.tenantNames = append(s.tenantNames, tc.Name)
		}
		s.defaultName = cfg.Tenants[0].Name
		sort.Strings(s.tenantNames)
	} else {
		t := s.newTenant(DefaultTenant, cfg.Loader, cfg.SnapshotPath, cfg.MaxInFlight)
		s.tenants[DefaultTenant] = t
		s.tenantNames = []string{DefaultTenant}
		s.defaultName = DefaultTenant

		if cfg.Loader == nil {
			if len(cfg.Queries) == 0 {
				return nil, fmt.Errorf("serve: no queries")
			}
			if len(cfg.Caches) != len(cfg.Queries) || len(cfg.Analyses) != len(cfg.Queries) {
				return nil, fmt.Errorf("serve: %d queries need matching caches (%d) and analyses (%d)",
					len(cfg.Queries), len(cfg.Caches), len(cfg.Analyses))
			}
			env := &Environment{
				Catalog:  cfg.Catalog,
				Stats:    cfg.Stats,
				Queries:  cfg.Queries,
				Analyses: cfg.Analyses,
				Weights:  cfg.Weights,
			}
			set, err := newSnapshotSet(env, cfg.Caches, sourceStartup)
			if err != nil {
				return nil, err
			}
			t.publish(set)
		}
	}

	s.mux.HandleFunc("/whatif", s.instrument("/whatif", http.MethodPost, true, s.handleWhatIf))
	s.mux.HandleFunc("/recommend", s.instrument("/recommend", http.MethodPost, true, s.handleRecommend))
	s.mux.HandleFunc("/explain", s.instrument("/explain", http.MethodPost, true, s.handleExplain))
	s.mux.HandleFunc("/reload", s.instrument("/reload", http.MethodPost, false, s.handleReload))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", http.MethodGet, false, s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", http.MethodGet, false, s.handleReady))
	s.mux.HandleFunc("/statz", s.instrument("/statz", http.MethodGet, false, s.handleStatz))
	s.mux.HandleFunc("/eventz", s.instrument("/eventz", http.MethodGet, false, s.handleEventz))
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

// newTenant builds one registry entry. maxInFlight 0 inherits the
// server-wide cap; negative means unlimited.
func (s *Server) newTenant(name string, loader func() (*Environment, error), snapshotPath string, maxInFlight int) *tenant {
	if maxInFlight == 0 {
		maxInFlight = s.cfg.MaxInFlight
	}
	t := &tenant{
		name:         name,
		srv:          s,
		loader:       loader,
		snapshotPath: snapshotPath,
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

// errNotReady is every compute endpoint's answer until the first
// snapshot set has been published.
func errNotReady() error {
	return &httpError{
		code: http.StatusServiceUnavailable,
		err:  errors.New("not ready: no snapshot loaded yet"),
	}
}

// instrument wraps a handler with method filtering, panic containment,
// the per-request deadline, JSON error rendering and the endpoint's
// latency/throughput counters. compute marks the expensive endpoints
// that sit behind deadlines and (inside computeOn, once the body names a
// tenant) per-tenant admission control; health/metrics endpoints stay
// exempt so a saturated server can still be observed. A request carrying
// the X-Pinum-Trace header gets a trace attached to its context here, so
// every downstream span lands on it.
func (s *Server) instrument(name, method string, compute bool, fn func(*http.Request) (any, error)) http.HandlerFunc {
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
			if compute && s.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
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
// never registered are counted (pinum_http_unmatched_total, the /statz
// "unmatched" key) instead of vanishing into a silent 404. No per-path
// series is created — request paths are attacker-controlled and would
// blow up metric cardinality.
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
	// Tenant routes the request in a multi-tenant server; it must agree
	// with the X-Pinum-Tenant header when both are set. Empty means the
	// default tenant.
	Tenant  string           `json:"tenant,omitempty"`
	Indexes []IndexSpec      `json:"indexes"`
	Weights []WeightOverride `json:"weights,omitempty"`
	// Trace opts this request into span tracing (the X-Pinum-Trace
	// header is the out-of-band equivalent).
	Trace bool `json:"trace,omitempty"`
}

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
}

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
	weights, overridden, err := set.resolveWeights(req.Weights)
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
	ft := time.Now()
	fanErr := core.FanCtxObserved(ctx, n, s.cfg.Workers, func() func(int) {
		return func(i int) {
			costs[i], _, errs[i] = set.caches[i].Cost(cfg)
		}
	}, observe)
	tr.Add("fanout", ft, time.Since(ft))
	if fanErr != nil {
		return nil, fmt.Errorf("request abandoned: %w", fanErr)
	}
	resp := &WhatIfResponse{BaseTotal: set.baseTotal, Queries: make([]QueryCost, n)}
	if overridden {
		// The precomputed base total carries the set's weights; overridden
		// requests re-sum it below, in the identical order, so the
		// no-override path stays byte-for-byte what it always was.
		resp.BaseTotal = 0
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("pricing %s: %w", set.env.Queries[i].Name, errs[i])
		}
		resp.Queries[i] = QueryCost{Name: set.env.Queries[i].Name, Base: set.base[i], Cost: costs[i]}
		//pinum:costarith-ok workload objective Σ wᵢ·cᵢ mirroring advisor.workloadCost; pinned by TestWhatIfMatchesInProcess
		resp.Total += weights[i] * costs[i]
		if overridden {
			//pinum:costarith-ok same objective over the request's override weights; pinned by TestWeightOverrides
			resp.BaseTotal += weights[i] * set.base[i]
		}
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

func (s *Server) handleWhatIf(r *http.Request) (any, error) {
	t0 := time.Now()
	var req WhatIfRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	r, tr := s.ensureTrace(r, req.Trace, t0)
	tr.Add("decode", t0, time.Since(t0))
	resp, err := s.computeOn(r, req.Tenant, func(t *tenant, set *snapshotSet) (any, error) {
		return s.whatIfOn(r.Context(), set, &req)
	})
	if err != nil {
		return nil, err
	}
	wr := resp.(*WhatIfResponse)
	wr.Trace = s.traceView(tr, wr)
	return wr, nil
}

// ensureTrace returns the request's trace: the header-created one from
// instrument when present, a fresh one when the body opted in, nil
// otherwise. A body-created trace starts at entry (the decode start) so
// span offsets stay non-negative.
func (s *Server) ensureTrace(r *http.Request, optIn bool, entry time.Time) (*http.Request, *obs.Trace) {
	tr := obs.TraceFrom(r.Context())
	if tr == nil && optIn {
		tr = obs.NewTraceAt(s.nextTraceID(), entry)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	return r, tr
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
	// Trace opts this request into span tracing; see WhatIfRequest.Trace.
	Trace bool `json:"trace,omitempty"`
}

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

// EngineStats mirrors the cost engine's work counters in the response.
type EngineStats struct {
	CandidateEvals int64 `json:"candidate_evals"`
	QueryEvals     int64 `json:"query_evals"`
	QuerySkips     int64 `json:"query_skips"`
}

// Recommend runs one greedy advisor search over the named tenant's
// shared caches with request-local engine state. Results are identical
// to an in-process advisor.Run over the same workload, weights and
// budget.
func (s *Server) Recommend(req *RecommendRequest) (*RecommendResponse, error) {
	t, err := s.tenantByName(req.Tenant)
	if err != nil {
		return nil, err
	}
	set, err := s.acquireSet(t)
	if err != nil {
		return nil, err
	}
	return s.recommendOn(context.Background(), set, req)
}

func (s *Server) recommendOn(ctx context.Context, set *snapshotSet, req *RecommendRequest) (*RecommendResponse, error) {
	if req.BudgetGB <= 0 {
		return nil, badRequest("budget_gb must be positive, got %g", req.BudgetGB)
	}
	weights, _, err := set.resolveWeights(req.Weights)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("request abandoned: %w", err)
	}
	ad := advisor.New(set.env.Catalog, set.env.Stats, storage.BytesForGB(req.BudgetGB))
	ad.Parallelism = s.cfg.Workers
	ad.MaxIndexes = req.MaxIndexes
	for i, q := range set.env.Queries {
		if err := ad.AddPrepared(q, set.env.Analyses[i], set.caches[i], weights[i]); err != nil {
			return nil, err
		}
	}
	for _, ix := range set.candidates {
		ad.AddCandidate(ix)
	}
	rt := time.Now()
	res, err := ad.Run()
	obs.TraceFrom(ctx).Add("advisor", rt, time.Since(rt))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("request abandoned: %w", err)
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

func (s *Server) handleRecommend(r *http.Request) (any, error) {
	t0 := time.Now()
	var req RecommendRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	r, tr := s.ensureTrace(r, req.Trace, t0)
	tr.Add("decode", t0, time.Since(t0))
	resp, err := s.computeOn(r, req.Tenant, func(t *tenant, set *snapshotSet) (any, error) {
		return s.recommendOn(r.Context(), set, &req)
	})
	if err != nil {
		return nil, err
	}
	rr := resp.(*RecommendResponse)
	rr.Trace = s.traceView(tr, rr)
	return rr, nil
}

// ---------------------------------------------------------- explain ----

// ExplainRequest optimizes one query under a configuration.
type ExplainRequest struct {
	// Tenant routes the request; see WhatIfRequest.Tenant.
	Tenant  string      `json:"tenant,omitempty"`
	SQL     string      `json:"sql"`
	Indexes []IndexSpec `json:"indexes"`
	// Trace opts this request into span tracing; see WhatIfRequest.Trace.
	Trace bool `json:"trace,omitempty"`
}

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

// Explain runs one conventional optimizer call for an ad-hoc query — the
// only endpoint that plans, since arbitrary SQL has no prebuilt cache —
// and reports the plan tree plus its internal/leaf cost decomposition.
// All state is request-local except the set's read-only catalog and its
// index interner.
func (s *Server) Explain(req *ExplainRequest) (*ExplainResponse, error) {
	t, err := s.tenantByName(req.Tenant)
	if err != nil {
		return nil, err
	}
	set, err := s.acquireSet(t)
	if err != nil {
		return nil, err
	}
	return explainOn(context.Background(), set, req)
}

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

func (s *Server) handleExplain(r *http.Request) (any, error) {
	t0 := time.Now()
	var req ExplainRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	r, tr := s.ensureTrace(r, req.Trace, t0)
	tr.Add("decode", t0, time.Since(t0))
	resp, err := s.computeOn(r, req.Tenant, func(t *tenant, set *snapshotSet) (any, error) {
		return explainOn(r.Context(), set, &req)
	})
	if err != nil {
		return nil, err
	}
	er := resp.(*ExplainResponse)
	er.Trace = s.traceView(tr, er)
	return er, nil
}

// ------------------------------------------------- health / metrics ----

// handleHealth is liveness plus a status summary: the process is up, so
// the answer is always 200. Single-tenant servers keep the pre-tenant
// payload (status, fingerprint, snapshot_source, …); multi-tenant
// servers report the registry overview, with ?tenant= selecting one
// tenant's detail in the single-tenant shape.
func (s *Server) handleHealth(r *http.Request) (any, error) {
	if name := r.URL.Query().Get("tenant"); name != "" || !s.multi {
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

// tenantHealth is one tenant's health detail — in single-tenant mode,
// the entire (pre-tenant, byte-compatible) /healthz payload.
func (s *Server) tenantHealth(t *tenant) map[string]any {
	set := t.current()
	out := map[string]any{"status": t.statusWord()}
	if s.multi {
		out["tenant"] = t.name
	}
	if set != nil {
		entries, slim := 0, true
		for _, c := range set.caches {
			entries += len(c.Plans)
			slim = slim && c.Slim()
		}
		out["queries"] = len(set.env.Queries)
		out["entries"] = entries
		out["slim"] = slim
		out["candidates"] = len(set.candidates)
		out["candidate_gen_errors"] = len(set.genErrors)
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
				msg := loadString(&t.lastReloadErr)
				if s.multi {
					return nil, &httpError{
						code: http.StatusServiceUnavailable,
						err:  fmt.Errorf("degraded: tenant %s: %s", t.name, msg),
					}
				}
				return nil, &httpError{
					code: http.StatusServiceUnavailable,
					err:  fmt.Errorf("degraded: %s", msg),
				}
			}
		}
	}
	return map[string]any{"status": s.serverStatus()}, nil
}

// serverStatus is the process-level status word: the default tenant's
// word in single-tenant mode (preserving the pre-tenant contract), and
// starting / degraded-if-any-resident-tenant-is / ok across the registry
// otherwise.
func (s *Server) serverStatus() string {
	if !s.multi {
		return s.defaultTenant().statusWord()
	}
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

// EndpointStats is one endpoint's counters as /statz reports them.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	AvgMs    float64 `json:"avg_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// ReloadStats is one tenant's reload state machine as /statz reports it.
type ReloadStats struct {
	Completed     int64  `json:"completed"`
	Skipped       int64  `json:"skipped"`
	Failed        int64  `json:"failed"`
	Degraded      bool   `json:"degraded"`
	LastError     string `json:"last_error,omitempty"`
	LastSaveError string `json:"last_save_error,omitempty"`
	RetryAttempt  int    `json:"retry_attempt,omitempty"`
	NextRetryInMs int64  `json:"next_retry_in_ms,omitempty"`
}

// handleStatz reports process counters, per-endpoint latency stats and a
// per-tenant section each — every number re-derived from the same
// registry handles /metrics scrapes, so the two surfaces cannot drift.
// Single-tenant servers additionally keep every pre-tenant top-level
// field (reloads, fingerprint, …) so existing scrapers read them
// unchanged; ?tenant= narrows to one tenant.
func (s *Server) handleStatz(r *http.Request) (any, error) {
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, err := s.tenantByName(name)
		if err != nil {
			return nil, err
		}
		return map[string]any{"tenant": t.name, "stats": t.stats()}, nil
	}
	s.epMu.Lock()
	handles := make(map[string]*endpointObs, len(s.ep))
	names := make([]string, 0, len(s.ep))
	for name, m := range s.ep {
		names = append(names, name)
		handles[name] = m
	}
	s.epMu.Unlock()
	sort.Strings(names)
	eps := make(map[string]EndpointStats, len(names))
	for _, name := range names {
		m := handles[name]
		st := EndpointStats{
			Requests: m.requests.Value(),
			Errors:   m.errors.Value(),
			MaxMs:    m.latency.Max() * 1e3,
		}
		if n := m.latency.Count(); n > 0 {
			st.AvgMs = m.latency.Sum() / float64(n) * 1e3
		}
		eps[name] = st
	}
	var rejected int64
	tstats := make(map[string]TenantStats, len(s.tenants))
	for _, name := range s.tenantNames {
		t := s.tenants[name]
		rejected += t.rejected.Value()
		tstats[name] = t.stats()
	}
	out := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"endpoints":      eps,
		"panics":         s.panics.Value(),
		"rejected":       rejected,
		"oversized":      s.oversized.Value(),
		"unmatched":      s.unmatched.Value(),
		"tenants":        tstats,
	}
	if s.multi {
		out["tenants_resident"] = s.residentCount()
		if s.residentCap > 0 {
			out["resident_cap"] = s.residentCap
		}
	} else {
		t := s.defaultTenant()
		out["reloads"] = t.reloadStats()
		out["interned_indexes"] = 0
		if t.inflight != nil {
			out["in_flight"] = len(t.inflight)
		}
		if set := t.current(); set != nil {
			out["interned_indexes"] = set.internedCount()
			out["fingerprint"] = fmt.Sprintf("%016x", set.fingerprint)
			out["snapshot_source"] = set.source
			out["queries_reused"] = set.reused
			out["queries_rebuilt"] = set.rebuilt
			if len(set.genErrors) > 0 {
				out["candidate_gen_errors"] = set.genErrors
			}
		}
	}
	return out, nil
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

// decodeBody reads one JSON value — and nothing else — from a bounded
// request body. Oversized bodies (past Config.MaxBodyBytes) are a
// counted 413 instead of an unbounded allocation; unknown fields and any
// non-whitespace trailing data (a second JSON value, concatenated
// garbage) are a 400, so a malformed pipelined payload fails loudly
// instead of being half-read.
func (s *Server) decodeBody(r *http.Request, v any) error {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		// nil ResponseWriter: the 413 is rendered by instrument; the
		// reader only enforces the limit and types the error.
		body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.oversized.Inc()
			return &httpError{
				code: http.StatusRequestEntityTooLarge,
				err:  fmt.Errorf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.oversized.Inc()
			return &httpError{
				code: http.StatusRequestEntityTooLarge,
				err:  fmt.Errorf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("trailing data after JSON value")
	}
	return nil
}
