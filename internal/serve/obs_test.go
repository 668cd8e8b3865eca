package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/obs"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition pins the scrape contract: after a known request
// mix, /metrics reports exactly those counts in Prometheus text form —
// per-endpoint counters, cumulative histogram buckets, per-tenant
// series, and the process gauges.
func TestMetricsExposition(t *testing.T) {
	f := newFixture(t)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	if _, err := http.Get(f.ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, f.ts.URL)
	for _, want := range []string{
		`pinum_http_requests_total{endpoint="/whatif"} 2`,
		`pinum_http_requests_total{endpoint="/healthz"} 1`,
		`pinum_http_request_errors_total{endpoint="/whatif"} 0`,
		`pinum_http_request_duration_seconds_bucket{endpoint="/whatif",le="+Inf"} 2`,
		`pinum_http_request_duration_seconds_count{endpoint="/whatif"} 2`,
		`pinum_tenant_requests_total{tenant="default"} 2`,
		`pinum_tenant_reloads_total{result="completed",tenant="default"} 0`,
		`# TYPE pinum_http_request_duration_seconds histogram`,
		`# TYPE pinum_uptime_seconds gauge`,
		`pinum_goroutines`,
		`pinum_heap_alloc_bytes`,
		`pinum_snapshot_queries{tenant="default"}`,
		`pinum_planner_enum_states{tenant="default"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The scrape itself is instrumented: a second scrape sees the first.
	body = scrape(t, f.ts.URL)
	if !strings.Contains(body, `pinum_http_requests_total{endpoint="/metrics"} 2`) {
		t.Error("/metrics scrapes are not counted in their own series")
	}
}

// postTraced posts body to url with the X-Pinum-Trace header set to id and
// returns the raw status and reply.
func postTraced(t *testing.T, url string, body any, id string) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestTraceOptIn pins the tracing contract: a request carrying the
// X-Pinum-Trace header gets a span breakdown covering the full pipeline,
// and the span set accounts for the fan-out (one span per workload query).
// The header is the one switch: a body "trace" field is refused with a
// 400 on every compute endpoint.
func TestTraceOptIn(t *testing.T) {
	f := newFixture(t)
	for _, path := range []string{"/whatif", "/recommend", "/explain"} {
		if code, body := postBytes(t, f.ts.URL+path, []byte(`{"trace":true}`)); code != http.StatusBadRequest ||
			!bytes.Contains(body, []byte(`unknown field \"trace\"`)) {
			t.Errorf("%s with a body trace field: %d %s, want a 400 naming the field", path, code, body)
		}
	}
	code, body := postTraced(t, f.ts.URL+"/whatif", WhatIfRequest{}, "opt-in")
	if code != http.StatusOK {
		t.Fatalf("traced /whatif: %d %s", code, body)
	}
	var got WhatIfResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("traced request returned no trace block")
	}
	if got.Trace.ID != "opt-in" {
		t.Errorf("trace block ID %q, want the header's", got.Trace.ID)
	}
	names := make(map[string]int)
	for _, sp := range got.Trace.Spans {
		if sp.DurNs < 0 || sp.StartNs < 0 {
			t.Errorf("span %s has negative timing: %+v", sp.Name, sp)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "route", "load", "fanout", "encode"} {
		if names[want] != 1 {
			t.Errorf("span %q appears %d times, want 1", want, names[want])
		}
	}
	queries := 0
	for name := range names {
		if strings.HasPrefix(name, "query:") {
			queries++
		}
	}
	if queries != len(f.queries) {
		t.Errorf("%d query spans, want one per workload query (%d)", queries, len(f.queries))
	}
	// Spans arrive sorted by start offset.
	for i := 1; i < len(got.Trace.Spans); i++ {
		if got.Trace.Spans[i].StartNs < got.Trace.Spans[i-1].StartNs {
			t.Fatalf("spans not sorted by start: %+v", got.Trace.Spans)
		}
	}
}

// TestTraceHeader pins the out-of-band opt-in: an X-Pinum-Trace header
// traces the request under the caller's ID without any body change.
func TestTraceHeader(t *testing.T) {
	f := newFixture(t)
	data, _ := json.Marshal(WhatIfRequest{})
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/whatif", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got WhatIfResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Trace.ID != "caller-supplied-7" {
		t.Fatalf("header-traced response trace = %+v, want caller's ID", got.Trace)
	}
}

// TestUntracedBytesUnchanged pins byte-identity: tracing is invisible to
// requests that did not ask for it — no "trace" key, and a traced
// request in between does not perturb later untraced answers.
func TestUntracedBytesUnchanged(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	code, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("baseline: %d %s", code, baseline)
	}
	if bytes.Contains(baseline, []byte(`"trace"`)) {
		t.Fatal("untraced response carries a trace key")
	}
	if code, body := postTraced(t, rf.ts.URL+"/whatif", whatIfProbe, "between"); code != http.StatusOK {
		t.Fatalf("traced probe: %d %s", code, body)
	} else if !bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatal("traced response missing trace block")
	}
	if _, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe); !bytes.Equal(body, baseline) {
		t.Fatalf("untraced response diverged after a traced request:\n%s\nvs baseline\n%s", body, baseline)
	}
}

// TestEventzRecordsReloads pins the flight recorder: a forced reload
// lands in /eventz with the swap's fingerprint in the detail, and the
// ring reports its totals.
func TestEventzRecordsReloads(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	out, err := rf.srv.ReloadTenant("", true)
	if err != nil {
		t.Fatal(err)
	}
	code, body := rf.do(t, http.MethodGet, "/eventz", nil)
	if code != http.StatusOK {
		t.Fatalf("/eventz: %d %s", code, body)
	}
	var ez struct {
		Total    int64       `json:"total"`
		Capacity int         `json:"capacity"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &ez); err != nil {
		t.Fatal(err)
	}
	if ez.Capacity != obs.DefaultEventLogSize {
		t.Errorf("capacity %d, want default %d", ez.Capacity, obs.DefaultEventLogSize)
	}
	if ez.Total < 2 || int64(len(ez.Events)) != ez.Total {
		t.Fatalf("total=%d events=%d, want >= 2 (initial load + forced reload)", ez.Total, len(ez.Events))
	}
	reloads := 0
	for _, e := range ez.Events {
		if e.Type == "reload" {
			reloads++
			if e.Tenant != DefaultTenant || !strings.Contains(e.Detail, out.Fingerprint) {
				t.Errorf("reload event %+v, want tenant %q and fingerprint %s in detail",
					e, DefaultTenant, out.Fingerprint)
			}
		}
		if e.Seq == 0 || e.Time.IsZero() {
			t.Errorf("event missing seq/time: %+v", e)
		}
	}
	if reloads != 2 {
		t.Errorf("%d reload events, want 2", reloads)
	}
	body2 := scrape(t, rf.ts.URL)
	if !strings.Contains(body2, `pinum_events_total{type="reload"} 2`) {
		t.Error("pinum_events_total missing the reload count")
	}
}

// TestUnmatchedPathCounted pins the 404 catch-all: probes for unknown
// paths are a counted JSON 404 — one counter, no per-path series.
func TestUnmatchedPathCounted(t *testing.T) {
	f := newFixture(t)
	for _, path := range []string{"/nope", "/admin/login"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]string
		json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(payload["error"], path) {
			t.Errorf("GET %s: error %q does not name the path", path, payload["error"])
		}
	}

	body := scrape(t, f.ts.URL)
	if !strings.Contains(body, "pinum_http_unmatched_total 2") {
		t.Error("/metrics missing pinum_http_unmatched_total 2")
	}
	if strings.Contains(body, "/nope") || strings.Contains(body, "/admin/login") {
		t.Error("unmatched paths leaked into metric series (cardinality hazard)")
	}
	if got := f.srv.unmatched.Value(); got != 2 {
		t.Errorf("unmatched counter = %d, want 2", got)
	}
}

// TestSlowRequestEvent pins the slow-request threshold: a request over
// the configured budget files an event naming the endpoint.
func TestSlowRequestEvent(t *testing.T) {
	rf := newReloadFixture(t, func(cfg *Config) { cfg.SlowRequest = time.Nanosecond })
	rf.load(t)
	if code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK {
		t.Fatalf("/whatif: %d %s", code, body)
	}
	_, body := rf.do(t, http.MethodGet, "/eventz", nil)
	var ez struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &ez); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ez.Events {
		if e.Type == "slow-request" && strings.Contains(e.Detail, "/whatif") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-request event for /whatif in %s", body)
	}
}

// TestRequestRecordAllocFree is the pin the //pinum:allocfree directive
// on Server.record cites: with tracing off and no structured logger, the
// per-request bookkeeping tail performs zero allocations.
func TestRequestRecordAllocFree(t *testing.T) {
	f := newFixture(t)
	if f.srv.logger != nil {
		t.Fatal("fixture unexpectedly configured a logger")
	}
	m := f.srv.epFor("/whatif")
	allocs := testing.AllocsPerRun(1000, func() {
		f.srv.record("/whatif", m, 750*time.Microsecond, http.StatusOK, nil)
	})
	if allocs != 0 {
		t.Fatalf("record allocates %v per call on the tracing-off path, want 0", allocs)
	}
}

// BenchmarkRequestRecord measures the observability tax on the serving
// hot path with tracing and logging off; the 0 allocs/op report is the
// second pin behind record's //pinum:allocfree directive.
func BenchmarkRequestRecord(b *testing.B) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) {
		return nil, fmt.Errorf("never loaded")
	}}}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	m := srv.epFor("/bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.record("/bench", m, 750*time.Microsecond, http.StatusOK, nil)
	}
}

// captureHandler is a slog.Handler that keeps every "event" record's
// type attribute, in emission order.
type captureHandler struct {
	mu    sync.Mutex
	types []string
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *captureHandler) WithGroup(string) slog.Handler            { return h }
func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "event" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "type" {
			h.mu.Lock()
			h.types = append(h.types, a.Value.String())
			h.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

// eventTypes fetches /eventz and returns the ring's event types, oldest
// first.
func eventTypes(t *testing.T, baseURL string) []string {
	t.Helper()
	resp, err := http.Get(baseURL + "/eventz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ez struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ez); err != nil {
		t.Fatal(err)
	}
	types := make([]string, len(ez.Events))
	for i, e := range ez.Events {
		types[i] = e.Type
	}
	return types
}

// TestOneLogRecordPerOutcome pins the single log path: every cold load,
// eviction and reload outcome reaches the structured logger exactly once,
// in the order /eventz holds them.
func TestOneLogRecordPerOutcome(t *testing.T) {
	h := &captureHandler{}
	f := newMTFixture(t, mtSeeds, mtOrder, 1, func(cfg *Config) { cfg.Logger = slog.New(h) })
	// No background retry: the failed reload below must stay the last
	// outcome.
	f.srv.retryMin, f.srv.retryMax = time.Hour, time.Hour
	t.Cleanup(faultpoint.Reset)
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)

	for _, name := range []string{"acme", "globex"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, code, body)
		}
	}
	if out, err := f.srv.ReloadTenant("globex", false); err != nil || out.Result != "skipped" {
		t.Fatalf("unchanged reload: %+v, %v", out, err)
	}
	if out, err := f.srv.ReloadTenant("globex", true); err != nil || out.Result != "swapped" {
		t.Fatalf("forced reload: %+v, %v", out, err)
	}
	if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.ReloadTenant("globex", true); err == nil {
		t.Fatal("reload with serve.rebuild armed succeeded")
	}
	if err := faultpoint.Set("serve.tenant.load", "error"); err != nil {
		t.Fatal(err)
	}
	if code, body := f.do(t, http.MethodPost, "/whatif", "initech", probe); code != http.StatusServiceUnavailable {
		t.Fatalf("initech with serve.tenant.load armed: %d %s", code, body)
	}

	want := []string{
		"cold-load",             // acme
		"eviction", "cold-load", // acme out, globex in
		"reload-skipped",
		"reload",
		"degraded", "reload-failed",
		"cold-load-failed", // initech
	}
	h.mu.Lock()
	logged := append([]string(nil), h.types...)
	h.mu.Unlock()
	if !reflect.DeepEqual(logged, want) {
		t.Errorf("logged event records\n got %v\nwant %v", logged, want)
	}
	if ring := eventTypes(t, f.ts.URL); !reflect.DeepEqual(ring, want) {
		t.Errorf("/eventz\n got %v\nwant %v", ring, want)
	}
}

// TestSnapshotSaveFailureIsAnEvent pins the save-failure contract: a
// snapshot that cannot be written is an operational event — in /eventz
// and pinum_events_total — while the freshly built set serves normally
// and the tenant is not degraded.
func TestSnapshotSaveFailureIsAnEvent(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "star.pcache")
	rf := newReloadFixture(t, func(cfg *Config) { cfg.Tenants[0].SnapshotPath = snapPath })
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Set("plancache.save.write", "error"); err != nil {
		t.Fatal(err)
	}
	if out := rf.load(t); out.Result != "swapped" {
		t.Fatalf("initial load with the save failing: %+v", out)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot file after a failed save: %v, want not-exist", err)
	}
	if got, want := eventTypes(t, rf.ts.URL), []string{"snapshot-save-failed", "reload"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("/eventz types %v, want %v", got, want)
	}
	if body := scrape(t, rf.ts.URL); !strings.Contains(body, `pinum_events_total{type="snapshot-save-failed"} 1`) {
		t.Error("pinum_events_total does not count the failed save")
	}
	if code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK {
		t.Fatalf("/whatif after a failed save: %d %s", code, body)
	}
	_, health := rf.do(t, http.MethodGet, "/healthz", nil)
	if !bytes.Contains(health, []byte(`"status": "ok"`)) {
		t.Fatalf("/healthz after a failed save: %s, want status ok", health)
	}

	faultpoint.Clear("plancache.save.write")
	if _, err := rf.srv.ReloadTenant("", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file after the healed save: %v", err)
	}
}

// TestLoadPhasesTimedFromInside pins pinum_load_phase_seconds and the
// phase tail of the cold-load and reload events: every phase that ran is
// in its histogram, the event carries the same seven numbers, and they sum
// to no more than the load took from outside. A residency cap of one lets
// the test evict a tenant and cold-load it again from its snapshot, the one
// load whose build phase runs.
func TestLoadPhasesTimedFromInside(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 1, nil)
	phasesOf := func(typ string) (ran [numLoadPhases]bool, sum time.Duration) {
		t.Helper()
		var ev *obs.Event
		for _, e := range f.srv.events.Events() {
			if e.Type == typ {
				e := e
				ev = &e
			}
		}
		if ev == nil {
			t.Fatalf("no %s event", typ)
		}
		fields := strings.Fields(ev.Detail)
		if len(fields) < int(numLoadPhases) {
			t.Fatalf("%s event has no phase tail: %q", typ, ev.Detail)
		}
		for p, field := range fields[len(fields)-int(numLoadPhases):] {
			val, ok := strings.CutPrefix(field, loadPhaseNames[p]+"_ms=")
			ms, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil || ms < 0 {
				t.Fatalf("%s event: phase %d is %q, want %s_ms=<milliseconds> (%q)", typ, p, field, loadPhaseNames[p], ev.Detail)
			}
			ran[p] = ms > 0
			sum += time.Duration(ms * float64(time.Millisecond))
		}
		return ran, sum
	}
	// The phase tail rounds each of seven phases to a microsecond.
	const rounding = 7 * time.Microsecond
	coldLoad := func(tenant string) time.Duration {
		t.Helper()
		start := time.Now()
		if code, body := f.do(t, http.MethodPost, "/whatif", tenant, []byte(`{"indexes":[]}`)); code != http.StatusOK {
			t.Fatalf("cold load of %s: %d %s", tenant, code, body)
		}
		return time.Since(start)
	}

	// No snapshot on disk yet: the load looks for one, plans and saves.
	wall := coldLoad("acme")
	ran, sum := phasesOf("cold-load")
	if ran != [numLoadPhases]bool{phaseLoader: true, phaseFingerprint: true, phaseDecode: true, phaseOptimize: true, phaseAssemble: true, phaseSave: true} {
		t.Errorf("first cold load ran phases %v, want all but build", ran)
	}
	if sum > wall+rounding {
		t.Errorf("cold-load phases sum to %v, the request took %v", sum, wall)
	}

	// A forced reload skips the snapshot and plans everything again.
	start := time.Now()
	if _, err := f.srv.ReloadTenant("acme", true); err != nil {
		t.Fatal(err)
	}
	wall = time.Since(start)
	ran, sum = phasesOf("reload")
	if ran != [numLoadPhases]bool{phaseLoader: true, phaseFingerprint: true, phaseOptimize: true, phaseAssemble: true, phaseSave: true} {
		t.Errorf("forced reload ran phases %v, want all but decode and build", ran)
	}
	if sum > wall+rounding {
		t.Errorf("reload phases sum to %v, the reload took %v", sum, wall)
	}

	// globex's load evicts acme, whose next load decodes and builds its
	// snapshot instead of planning.
	coldLoad("globex")
	wall = coldLoad("acme")
	ran, sum = phasesOf("cold-load")
	if ran != [numLoadPhases]bool{phaseLoader: true, phaseFingerprint: true, phaseDecode: true, phaseBuild: true, phaseAssemble: true} {
		t.Errorf("cold load from the snapshot ran phases %v, want all but optimize and save", ran)
	}
	if sum > wall+rounding {
		t.Errorf("cold-load phases sum to %v, the request took %v", sum, wall)
	}

	for p, want := range [numLoadPhases]int64{phaseLoader: 4, phaseFingerprint: 4, phaseDecode: 3, phaseBuild: 1, phaseOptimize: 3, phaseAssemble: 4, phaseSave: 3} {
		if got := f.srv.loadPhases[p].Count(); got != want {
			t.Errorf("pinum_load_phase_seconds{phase=%q} observed %d times, want %d", loadPhaseNames[p], got, want)
		}
	}
	if text := scrape(t, f.ts.URL); !strings.Contains(text, `pinum_load_phase_seconds_count{phase="build"} 1`) {
		t.Error("/metrics does not expose pinum_load_phase_seconds by phase")
	}
}
