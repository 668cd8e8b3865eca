// Command pinum-serve is the what-if serving daemon: it loads (or builds
// and saves) a plan-cache snapshot for the star-schema workload,
// then answers configuration questions over HTTP with pure cost
// arithmetic — no optimizer calls per request. The snapshot is hot: a
// SIGHUP or POST /reload re-derives the statistics, rebuilds only what
// moved, and swaps the new snapshot in atomically while traffic keeps
// flowing; a failed reload leaves the old snapshot serving (degraded,
// with automatic retry).
//
//	pinum-serve -snapshot star.pcache                 # load or build+save, then serve
//	pinum-serve -snapshot star.pcache -save-exit      # load or build+save, then exit
//	pinum-serve -addr 127.0.0.1:8093                  # serve address
//	pinum-serve -stats-overrides drift.json           # {"table": rows} applied on every (re)load
//	pinum-serve -tenants roster.json -snapshot-dir d  # one tenant per roster entry
//	kill -HUP $(pidof pinum-serve)                    # trigger a hot reload (all resident tenants)
//
// Every server serves a roster of tenants. Without -tenants it is a roster
// of one, "default", over the star workload the -seed, -scale,
// -stats-overrides and -snapshot flags describe. -tenants serves N
// workloads from one process; its roster is JSON:
//
//	{"tenants": [
//	  {"name": "acme", "seed": 42, "scale": 1.0,
//	   "stats_overrides": "acme-drift.json", "max_in_flight": 16},
//	  {"name": "globex", "seed": 43}
//	]}
//
// seed/scale default to the -seed/-scale flags. Requests route by the
// "tenant" body field or the X-Pinum-Tenant header; unrouted requests
// hit the first roster entry. -snapshot-dir names a snapshot store (one
// <tenant>.pcache per tenant, same format as -snapshot) consulted on
// every load; -tenant-cap bounds how many tenants hold live snapshot
// sets at once — past it, the least-recently-used tenant is evicted and
// cold-loads again on its next request. -save-exit is the startup load
// of every roster tenant — a fresh store file loads, any other is rebuilt
// and written back — followed by exit.
//
// Endpoints (JSON in, JSON out):
//
//	POST /whatif     {"indexes":[{"table":"fact","columns":["a1"]}]}
//	POST /recommend  {"budget_gb":5,"max_indexes":0}
//	POST /explain    {"sql":"SELECT ...","indexes":[...]}
//	POST /reload     hot reload (?wait=1 synchronous, ?force=1 full rebuild, ?tenant= one tenant)
//	GET  /healthz    liveness (always 200): a tenant's detail, status ok|degraded|cold
//	                 (?tenant=, or a roster of one); else the overview, status ok|degraded|starting
//	GET  /readyz     readiness (503 until the first snapshot; -strict-health adds degraded)
//	GET  /metrics    Prometheus text exposition (latency histograms, per-tenant counters, runtime gauges)
//	GET  /eventz     operational event ring (reloads, evictions, cold loads, panics, slow requests)
//
// /whatif and /recommend additionally accept per-request weight
// overrides ({"weights":[{"name":"q01","weight":3}]}); duplicate or
// unknown query names and non-positive weights are rejected with 400.
//
// Observability: requests carrying an X-Pinum-Trace header get a
// per-span timing breakdown in the response's "trace" block. -log-format json switches every process
// and request log line to structured JSON with trace IDs; -slow-request
// sets the /eventz slow-request threshold; -pprof-addr serves
// net/http/pprof on a separate listener, isolated from the data plane.
//
// Lifecycle: the HTTP server runs with read/write/idle timeouts, compute
// requests run behind per-request deadlines (-request-timeout), panic
// recovery, bounded request bodies (-max-body-bytes → 413) and
// per-tenant admission control (-max-in-flight → 429, one tenant's storm
// never throttling another), and SIGTERM or SIGINT drains in-flight
// requests for up to -drain-timeout before exit. The PINUM_FAULTPOINTS
// environment variable (name=mode[:count] pairs, semicolon-separated) arms
// fault-injection points for robustness drills.
//
// -addr and -pprof-addr may name port 0; the log lines "serving … on
// <addr>" and "pprof listening on <addr>" carry the address actually
// bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8093", "listen address")
	seed := flag.Int64("seed", 42, "workload generation seed")
	scale := flag.Float64("scale", 1.0, "statistics scale (1.0 = the paper's 10 GB)")
	workers := flag.Int("workers", 0, "worker pool for request evaluation and snapshot builds (0 = all CPUs)")
	snapshot := flag.String("snapshot", "", "plan-cache snapshot path: loaded when present and fresh, else built and saved")
	saveExit := flag.Bool("save-exit", false, "build/refresh the snapshot and exit without serving")
	statsOverrides := flag.String("stats-overrides", "",
		`JSON file {"table": rows} re-read and applied on every (re)load — statistics drift injection`)
	tenantsPath := flag.String("tenants", "",
		`JSON tenant roster {"tenants":[{"name","seed","scale","stats_overrides","max_in_flight"}]} — one tenant per entry`)
	snapshotDir := flag.String("snapshot-dir", "",
		"snapshot store directory for -tenants (one <tenant>.pcache per tenant)")
	tenantCap := flag.Int("tenant-cap", 0,
		"max tenants holding live snapshot sets at once; LRU eviction past it (0 = all resident)")
	requestTimeout := flag.Duration("request-timeout", serve.DefaultRequestTimeout,
		"per-request evaluation deadline for compute endpoints (negative = none)")
	maxInFlight := flag.Int("max-in-flight", serve.DefaultMaxInFlight,
		"max concurrently evaluating compute requests per tenant before 429 (negative = unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", serve.DefaultMaxBodyBytes,
		"max request body size before 413 (negative = unlimited)")
	strictHealth := flag.Bool("strict-health", false, "make /readyz return 503 while the server is degraded")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"grace period for in-flight requests on SIGTERM/SIGINT")
	logFormat := flag.String("log-format", "text", "structured log format for request/event records: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener; empty = disabled)")
	slowRequest := flag.Duration("slow-request", serve.DefaultSlowRequest,
		"requests slower than this are recorded in /eventz (negative = disabled)")
	flag.Parse()

	// -save-exit exists to leave snapshots behind: with nowhere to put
	// them it would build, discard and report success.
	if *saveExit && *tenantsPath == "" && *snapshot == "" {
		usage("-save-exit needs -snapshot (nowhere to save the snapshot)")
	}
	if *saveExit && *tenantsPath != "" && *snapshotDir == "" {
		usage("-save-exit with -tenants needs -snapshot-dir (nowhere to save the snapshots)")
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
		// Route the stdlib log lines (snapshot ready, SIGHUP, drained)
		// through the same handler so the process emits one format.
		log.SetFlags(0)
		log.SetOutput(slogWriter{slog.New(handler)})
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}
	logger := slog.New(handler)

	if err := faultpoint.ConfigureFromEnv(os.Getenv("PINUM_FAULTPOINTS")); err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// A sidecar that cannot bind is logged, not fatal: profiling must
		// never take the data plane down.
		if ln, err := net.Listen("tcp", *pprofAddr); err != nil {
			log.Printf("pprof listener failed: %v", err)
		} else {
			log.Printf("pprof listening on %s", ln.Addr())
			go func() {
				if err := http.Serve(ln, pm); err != nil {
					log.Printf("pprof listener failed: %v", err)
				}
			}()
		}
	}

	cfg := serve.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
		MaxBodyBytes:   *maxBodyBytes,
		RequestTimeout: *requestTimeout,
		StrictHealth:   *strictHealth,
		Logger:         logger,
		SlowRequest:    *slowRequest,
	}
	if *tenantsPath != "" {
		var err error
		if cfg.Tenants, err = loadTenantConfigs(*tenantsPath, *snapshotDir, *seed, *scale); err != nil {
			fatal(err)
		}
		cfg.MaxResident = *tenantCap
	} else {
		loader := func() (*serve.Environment, error) {
			return loadEnvironment(*scale, *seed, *statsOverrides)
		}
		cfg.Tenants = []serve.TenantConfig{{Name: serve.DefaultTenant, Loader: loader, SnapshotPath: *snapshot}}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	if *saveExit {
		for _, tc := range cfg.Tenants {
			if err := prebuild(srv, tc.Name, tc.SnapshotPath); err != nil {
				fatal(err)
			}
		}
		return
	}

	// Warm the default tenant (the roster's first entry) so readiness
	// means "can serve now"; other tenants cold-load lazily on their first
	// request.
	loadStart := time.Now()
	out, err := srv.ReloadTenant("", false)
	if err != nil {
		fatal(fmt.Errorf("initial snapshot load: %w", err))
	}
	log.Printf("snapshot ready in %v: tenant=%s fingerprint=%s source=%s",
		time.Since(loadStart).Round(time.Millisecond), out.Tenant, out.Fingerprint, out.SnapshotSource)

	// WriteTimeout must outlast the slowest admitted request, or the
	// connection dies mid-response after a long (but successful) compute.
	writeTimeout := time.Minute
	if *requestTimeout > 0 && 2**requestTimeout > writeTimeout {
		writeTimeout = 2 * *requestTimeout
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				log.Printf("SIGHUP: snapshot reload triggered")
				if !srv.TriggerReload(false) {
					log.Printf("reload already pending; SIGHUP coalesced")
				}
				continue
			}
			log.Printf("%v: draining in-flight requests (up to %v)", sig, *drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := hs.Shutdown(ctx); err != nil {
				log.Printf("drain cut short: %v", err)
			}
			cancel()
			close(drained)
			return
		}
	}()

	// Listen before logging so the line names the bound address: with
	// -addr host:0 it is the only way to learn the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("serving /whatif /recommend /explain /reload /healthz /readyz /metrics /eventz on %s", ln.Addr())
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	log.Printf("drained; exiting")
}

// prebuild is -save-exit's work for one tenant: the daemon's own load —
// a fresh snapshot file loads, a missing, stale or corrupt one is rebuilt
// and written back — followed by a re-read of the file. The server only
// records a failed save as an event, so the re-read is what makes one
// fatal here.
func prebuild(srv *serve.Server, name, path string) error {
	start := time.Now()
	out, err := srv.ReloadTenant(name, false)
	if err != nil {
		return fmt.Errorf("tenant %s: %w", name, err)
	}
	fp, err := strconv.ParseUint(out.Fingerprint, 16, 64)
	if err != nil {
		return fmt.Errorf("tenant %s: fingerprint %q: %w", name, out.Fingerprint, err)
	}
	if _, err := plancache.Load(path, fp); err != nil {
		return fmt.Errorf("tenant %s: snapshot %s not saved: %w", name, path, err)
	}
	how := "loaded from " + path
	if out.QueriesRebuilt > 0 {
		how = fmt.Sprintf("built %d queries with 2 optimizer calls each, saved to %s", out.QueriesRebuilt, path)
	}
	log.Printf("snapshot ready in %v: tenant=%s fingerprint=%s source=%s (%s)",
		time.Since(start).Round(time.Millisecond), name, out.Fingerprint, out.SnapshotSource, how)
	return nil
}

// tenantSpec is one roster entry in the -tenants file.
type tenantSpec struct {
	Name           string  `json:"name"`
	Seed           int64   `json:"seed"`
	Scale          float64 `json:"scale"`
	StatsOverrides string  `json:"stats_overrides"`
	MaxInFlight    int     `json:"max_in_flight"`
}

// loadTenantConfigs parses the roster and binds each entry to a loader
// closure and (when -snapshot-dir is set) its store snapshot path.
func loadTenantConfigs(path, snapshotDir string, defSeed int64, defScale float64) ([]serve.TenantConfig, error) {
	var roster struct {
		Tenants []tenantSpec `json:"tenants"`
	}
	if err := readJSON(path, &roster); err != nil {
		return nil, fmt.Errorf("tenant roster: %w", err)
	}
	if len(roster.Tenants) == 0 {
		return nil, fmt.Errorf("tenant roster %s: no tenants", path)
	}
	var store *plancache.Store
	if snapshotDir != "" {
		var err error
		if store, err = plancache.NewStore(snapshotDir); err != nil {
			return nil, err
		}
	}
	cfgs := make([]serve.TenantConfig, 0, len(roster.Tenants))
	for _, ts := range roster.Tenants {
		seed, scale, overrides := ts.Seed, ts.Scale, ts.StatsOverrides
		if seed == 0 {
			seed = defSeed
		}
		if scale == 0 {
			scale = defScale
		}
		snapPath := ""
		if store != nil {
			var err error
			if snapPath, err = store.Path(ts.Name); err != nil {
				return nil, fmt.Errorf("tenant roster %s: %w", path, err)
			}
		}
		cfgs = append(cfgs, serve.TenantConfig{
			Name: ts.Name,
			Loader: func() (*serve.Environment, error) {
				return loadEnvironment(scale, seed, overrides)
			},
			SnapshotPath: snapPath,
			MaxInFlight:  ts.MaxInFlight,
		})
	}
	return cfgs, nil
}

// loadEnvironment derives one consistent serving world from scratch: a
// fresh star schema at the given scale, the overrides file applied on
// top, and the analysed seed workload. Building everything anew on every
// call is what makes hot reloads safe — the environment a reload is
// assembling shares nothing mutable with the one traffic is reading.
func loadEnvironment(scale float64, seed int64, overridesPath string) (*serve.Environment, error) {
	star, err := workload.StarSchema(scale)
	if err != nil {
		return nil, err
	}
	if overridesPath != "" {
		data, err := os.ReadFile(overridesPath)
		if err != nil {
			return nil, fmt.Errorf("stats overrides: %w", err)
		}
		var overrides map[string]int64
		if err := json.Unmarshal(data, &overrides); err != nil {
			return nil, fmt.Errorf("stats overrides %s: %w", overridesPath, err)
		}
		for table, rows := range overrides {
			if err := star.SetTableRows(table, rows); err != nil {
				return nil, fmt.Errorf("stats overrides %s: %w", overridesPath, err)
			}
		}
	}
	queries, err := star.Queries(seed)
	if err != nil {
		return nil, err
	}
	analyses := make([]*optimizer.Analysis, len(queries))
	for i, q := range queries {
		if analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			return nil, err
		}
	}
	return &serve.Environment{
		Catalog:  star.Catalog,
		Stats:    star.Stats,
		Queries:  queries,
		Analyses: analyses,
	}, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// slogWriter adapts the stdlib log package to a structured handler: one
// Write is one log line, re-emitted as an Info record.
type slogWriter struct{ l *slog.Logger }

func (w slogWriter) Write(p []byte) (int, error) {
	w.l.Info(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pinum-serve:", err)
	os.Exit(1)
}

// usage reports a flag combination that cannot work and exits 2, before
// anything has been built.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "pinum-serve:", msg)
	os.Exit(2)
}
