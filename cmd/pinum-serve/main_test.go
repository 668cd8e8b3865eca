//go:build unix

// Process-level tests: the daemon is built once, executed on
// 127.0.0.1:0 and driven over real sockets and signals. They pin only
// what cannot be seen from inside the process — flags and roster parsing,
// -save-exit, the bound-address log lines, SIGHUP and SIGTERM handling,
// the pprof sidecar, the overrides file, the process log — and recompute
// every expected reply body here, from tree-backed caches. Request-path
// contracts (metrics counts, tracing, 404s, eviction order, reload
// determinism) are pinned in-process by internal/serve's tests.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/storage"
)

// daemonPath is the pinum-serve binary TestMain builds.
var daemonPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pinum-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonPath = filepath.Join(dir, "pinum-serve")
	if out, err := exec.Command("go", "build", "-o", daemonPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the daemon: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// waitTimeout bounds every wait on the daemon: readiness, a reload
// becoming visible, exit after a signal.
const waitTimeout = 20 * time.Second

const (
	whatIfBody    = `{"indexes":[{"table":"fact","columns":["fk_dim1_1","m1"]},{"table":"dim1_1","columns":["a1","id"]}]}`
	recommendBody = `{"budget_gb":5}`
	// dim1_5 is read by some of the seed-42 workload's queries and not
	// by others, so drifting it makes a reload genuinely incremental.
	driftBody = `{"dim1_5": 4242424}`
)

// daemon is one running pinum-serve process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://<bound -addr>
	pprof string // http://<bound -pprof-addr>, when requested
	done  chan struct{}

	mu  sync.Mutex
	log []string // stderr so far, one entry per line
}

var boundAddr = regexp.MustCompile(`(serving|pprof listening) .*on (127\.0\.0\.1:\d+)`)

// startDaemon executes the daemon with -addr 127.0.0.1:0 plus args,
// learns the bound port from its log and waits for /readyz. env entries
// are added to the process environment.
func startDaemon(t *testing.T, env []string, args ...string) *daemon {
	t.Helper()
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(daemonPath, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), env...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{}) // closed once d.base is set
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			// The pprof line, when there is one, precedes the serving line.
			if m := boundAddr.FindStringSubmatch(line); m != nil && d.base == "" {
				if m[1] == "serving" {
					d.base = "http://" + m[2]
					close(ready)
				} else {
					d.pprof = "http://" + m[2]
				}
			}
		}
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		d.cmd.Wait()
	})

	select {
	case <-ready:
	case <-d.done:
		t.Fatalf("daemon exited before serving:\n%s", d.logText())
	case <-time.After(waitTimeout):
		t.Fatalf("no serving line after %v:\n%s", waitTimeout, d.logText())
	}
	waitFor(t, "/readyz 200", func() bool {
		code, _ := d.get(t, "/readyz")
		return code == http.StatusOK
	})
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// stop sends SIGTERM and requires a clean exit; it returns the complete
// process log.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	d.signal(t, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(waitTimeout):
		t.Fatalf("daemon still running %v after SIGTERM:\n%s", waitTimeout, d.logText())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, d.logText())
	}
	return d.logText()
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	return fetch(t, http.MethodGet, d.base+path, "", "")
}

// whatIf posts the fixed /whatif probe, routed to tenant when non-empty,
// and returns the 200 body.
func (d *daemon) whatIf(t *testing.T, tenant string) []byte {
	t.Helper()
	code, body := fetch(t, http.MethodPost, d.base+"/whatif", tenant, whatIfBody)
	if code != http.StatusOK {
		t.Fatalf("/whatif (tenant %q): %d %s", tenant, code, body)
	}
	return body
}

// health decodes /healthz (one tenant's detail when tenant is non-empty).
func (d *daemon) health(t *testing.T, tenant string) map[string]any {
	t.Helper()
	path := "/healthz"
	if tenant != "" {
		path += "?tenant=" + tenant
	}
	code, body := d.get(t, path)
	if code != http.StatusOK {
		t.Fatalf("%s: %d %s", path, code, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%s: %v in %s", path, err, body)
	}
	return out
}

// eventTypes returns the /eventz ring's event types, oldest first.
func (d *daemon) eventTypes(t *testing.T) []string {
	t.Helper()
	_, body := d.get(t, "/eventz")
	var ez struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &ez); err != nil {
		t.Fatalf("/eventz: %v in %s", err, body)
	}
	types := make([]string, len(ez.Events))
	for i, e := range ez.Events {
		types[i] = e.Type
	}
	return types
}

func fetch(t *testing.T, method, url, tenant, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// waitFor polls cond — the daemon's state is only visible over HTTP —
// until it holds or waitTimeout passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", waitTimeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runToExit executes the daemon to completion and returns its exit code
// and stderr.
func runToExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(daemonPath, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err != nil && cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// expected recomputes the /whatif and /recommend bodies a daemon on this
// seed and overrides file must serve, sharing nothing with it but the
// loader: tree-backed caches from core.BuildAll, a plain advisor.Run,
// and the encoding/json reference encoder.
func expected(t *testing.T, seed int64, overridesPath string) (whatIf, recommend []byte) {
	t.Helper()
	env, err := loadEnvironment(1.0, seed, overridesPath)
	if err != nil {
		t.Fatal(err)
	}
	caches, err := core.BuildAll(env.Analyses, env.Catalog, 0, false)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Catalog: env.Catalog, Stats: env.Stats,
		Queries: env.Queries, Analyses: env.Analyses, Caches: caches,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wreq serve.WhatIfRequest
	if err := json.Unmarshal([]byte(whatIfBody), &wreq); err != nil {
		t.Fatal(err)
	}
	wresp, err := srv.WhatIf(&wreq)
	if err != nil {
		t.Fatal(err)
	}
	if whatIf, err = serve.EncodeJSON(wresp); err != nil {
		t.Fatal(err)
	}

	var rreq serve.RecommendRequest
	if err := json.Unmarshal([]byte(recommendBody), &rreq); err != nil {
		t.Fatal(err)
	}
	ad := advisor.New(env.Catalog, env.Stats, storage.BytesForGB(rreq.BudgetGB))
	ad.MaxIndexes = rreq.MaxIndexes
	for i, q := range env.Queries {
		if err := ad.AddPrepared(q, env.Analyses[i], caches[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if recommend, err = serve.EncodeJSON(serve.RecommendResponseFrom(res, env.Queries)); err != nil {
		t.Fatal(err)
	}
	return whatIf, recommend
}

// TestUsageAndStartupErrors pins what the daemon refuses before it
// builds or serves anything: -save-exit with nowhere to save (exit 2,
// naming the missing flag), and unusable roster, overrides and
// -log-format values (exit 1).
func TestUsageAndStartupErrors(t *testing.T) {
	dir := t.TempDir()
	roster := filepath.Join(dir, "roster.json")
	writeFile(t, roster, `{"tenants":[{"name":"acme"}]}`)
	empty := filepath.Join(dir, "empty.json")
	writeFile(t, empty, `{"tenants":[]}`)
	typo := filepath.Join(dir, "typo.json")
	writeFile(t, typo, `{"tenants":[{"name":"acme","sede":7}]}`)
	badName := filepath.Join(dir, "badname.json")
	writeFile(t, badName, `{"tenants":[{"name":"../acme"}]}`)

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"save-exit without -snapshot", []string{"-save-exit"}, 2, "-snapshot"},
		{"save-exit with -tenants but no -snapshot-dir", []string{"-tenants", roster, "-save-exit"}, 2, "-snapshot-dir"},
		{"undefined flag", []string{"-no-such-flag"}, 2, "not defined"},
		{"empty roster", []string{"-tenants", empty}, 1, "no tenants"},
		{"unknown roster field", []string{"-tenants", typo}, 1, "sede"},
		{"tenant name unusable as a store file", []string{"-tenants", badName, "-snapshot-dir", dir}, 1, "../acme"},
		{"missing roster", []string{"-tenants", filepath.Join(dir, "nope.json")}, 1, "tenant roster"},
		{"missing overrides file", []string{"-stats-overrides", filepath.Join(dir, "nope.json")}, 1, "stats overrides"},
		{"unknown log format", []string{"-log-format", "xml"}, 1, "xml"},
	} {
		code, stderr := runToExit(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d mentioning %q", tc.name, code, stderr, tc.code, tc.want)
		}
		if strings.Contains(stderr, "caches ready") || strings.Contains(stderr, "snapshot ready") {
			t.Errorf("%s: the daemon built before refusing: %q", tc.name, stderr)
		}
	}
}

// TestServeMatchesInProcess is the serve drill: -save-exit leaves a
// snapshot, a second process loads it from disk, and its /whatif and
// /recommend bodies equal the in-test recomputation byte for byte. The
// pprof sidecar answers on its own listener and nowhere else.
func TestServeMatchesInProcess(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "star.pcache")
	if code, stderr := runToExit(t, "-snapshot", snap, "-save-exit"); code != 0 || !strings.Contains(stderr, "saved to "+snap) {
		t.Fatalf("-save-exit: exit %d, stderr %q", code, stderr)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("-save-exit left no snapshot: %v", err)
	}

	d := startDaemon(t, nil, "-snapshot", snap, "-pprof-addr", "127.0.0.1:0")
	if src := d.health(t, "")["snapshot_source"]; src != "disk-snapshot" {
		t.Errorf("snapshot_source %v, want disk-snapshot (the -save-exit file)", src)
	}
	wantWhatIf, wantRecommend := expected(t, 42, "")
	if got := d.whatIf(t, ""); !bytes.Equal(got, wantWhatIf) {
		t.Errorf("/whatif differs from the in-process result:\n--- served ---\n%s\n--- in-process ---\n%s", got, wantWhatIf)
	}
	code, got := fetch(t, http.MethodPost, d.base+"/recommend", "", recommendBody)
	if code != http.StatusOK || !bytes.Equal(got, wantRecommend) {
		t.Errorf("/recommend: %d, differs from a plain advisor.Run:\n--- served ---\n%s\n--- in-process ---\n%s", code, got, wantRecommend)
	}

	if d.pprof == "" {
		t.Fatalf("no pprof address in the log:\n%s", d.logText())
	}
	if code, _ := fetch(t, http.MethodGet, d.pprof+"/debug/pprof/cmdline", "", ""); code != http.StatusOK {
		t.Errorf("pprof sidecar /debug/pprof/cmdline: %d, want 200", code)
	}
	if code, _ := d.get(t, "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("data-plane listener answered /debug/pprof/cmdline with %d, want 404", code)
	}
	d.stop(t)
}

// TestSaveExitFailsUnsaved pins that -save-exit fails loudly when its
// snapshot cannot be written: the server records a failed save as an
// event only, so the post-load re-read must turn it into exit 1, naming
// the tenant and the path, with no "ready" line.
func TestSaveExitFailsUnsaved(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "missing", "x.pcache")
	code, stderr := runToExit(t, "-snapshot", snap, "-save-exit")
	if code != 1 || !strings.Contains(stderr, "tenant default") || !strings.Contains(stderr, snap) {
		t.Errorf("-save-exit into a missing directory: exit %d, stderr %q; want exit 1 naming the tenant and %s", code, stderr, snap)
	}
	if strings.Contains(stderr, "ready") {
		t.Errorf("-save-exit reported a snapshot ready it did not save: %q", stderr)
	}
}

// TestReloadLifecycle drives the hot-reload lifecycle with signals and
// the overrides file: SIGHUP picks up drift incrementally and serves the
// recomputed bytes, a corrupt file degrades the daemon without changing
// an answer, healing the file recovers it with no further signal, and
// SIGTERM exits cleanly leaving a JSON log with one record per event.
func TestReloadLifecycle(t *testing.T) {
	dir := t.TempDir()
	drift := filepath.Join(dir, "drift.json")
	writeFile(t, drift, `{}`)
	d := startDaemon(t, nil, "-snapshot", filepath.Join(dir, "reload.pcache"),
		"-stats-overrides", drift, "-log-format", "json")
	fp0 := d.health(t, "")["fingerprint"]
	base := d.whatIf(t, "")

	writeFile(t, drift, driftBody)
	d.signal(t, syscall.SIGHUP)
	waitFor(t, "the drifted fingerprint", func() bool { return d.health(t, "")["fingerprint"] != fp0 })
	h := d.health(t, "")
	if h["snapshot_source"] != "incremental" || h["status"] != "ok" {
		t.Fatalf("after SIGHUP with drift: %v, want an incremental swap", h)
	}
	_, metrics := d.get(t, "/metrics")
	for _, series := range []string{"pinum_snapshot_queries_reused", "pinum_snapshot_queries_rebuilt"} {
		if !regexp.MustCompile(series + `\{tenant="default"\} [1-9]`).Match(metrics) {
			t.Errorf("%s is not positive after the drift reload, want some queries reused and some rebuilt", series)
		}
	}
	fp1 := h["fingerprint"]
	drifted := d.whatIf(t, "")
	if want, _ := expected(t, 42, drift); !bytes.Equal(drifted, want) {
		t.Errorf("/whatif after drift differs from the in-process result:\n--- served ---\n%s\n--- in-process ---\n%s", drifted, want)
	}
	if bytes.Equal(drifted, base) {
		t.Error("/whatif did not move with the overrides file")
	}

	writeFile(t, drift, `not json`)
	d.signal(t, syscall.SIGHUP)
	waitFor(t, "status degraded", func() bool { return d.health(t, "")["status"] == "degraded" })
	if fp := d.health(t, "")["fingerprint"]; fp != fp1 {
		t.Errorf("fingerprint moved to %v while degraded, want %v", fp, fp1)
	}
	if got := d.whatIf(t, ""); !bytes.Equal(got, drifted) {
		t.Error("/whatif changed while degraded")
	}
	if _, metrics := d.get(t, "/metrics"); !regexp.MustCompile(`pinum_tenant_reloads_total\{result="failed",tenant="default"\} [1-9]`).Match(metrics) {
		t.Error("/metrics counts no failed reload while degraded")
	}

	writeFile(t, drift, driftBody)
	waitFor(t, "self-heal", func() bool { return d.health(t, "")["status"] == "ok" })

	events := d.eventTypes(t)
	for _, want := range []string{"reload", "degraded", "reload-failed"} {
		if !slices.Contains(events, want) {
			t.Errorf("/eventz has no %q event: %v", want, events)
		}
	}

	log := d.stop(t)
	var logged []string
	msgs := map[string]bool{}
	traced := false
	for _, line := range strings.Split(log, "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Type    string `json:"type"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON under -log-format json: %q", line)
		}
		msgs[rec.Msg] = true
		if rec.Msg == "event" {
			logged = append(logged, rec.Type)
		}
		traced = traced || (rec.Msg == "request" && rec.TraceID != "")
	}
	if !slices.Equal(logged, events) {
		t.Errorf("event records in the log\n got %v\nwant %v (one per /eventz entry)", logged, events)
	}
	if !traced {
		t.Error("no request record carries a trace_id")
	}
	for _, want := range []string{"SIGHUP: snapshot reload triggered", "drained; exiting"} {
		if !msgs[want] {
			t.Errorf("log has no %q record:\n%s", want, log)
		}
	}
}

// TestMultiTenant runs three roster tenants under a residency cap of
// two: snapshots pre-built by -save-exit, answers byte-identical to
// dedicated single-tenant daemons (roster seed and the -seed default),
// eviction and cold reload from the store, and a per-tenant overrides
// file that moves only its own tenant.
func TestMultiTenant(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	acmeDrift := filepath.Join(dir, "acme_drift.json")
	writeFile(t, acmeDrift, `{}`)
	roster := filepath.Join(dir, "tenants.json")
	writeFile(t, roster, fmt.Sprintf(`{"tenants": [
		{"name": "acme", "seed": 42, "stats_overrides": %q},
		{"name": "globex"},
		{"name": "initech", "seed": 44}
	]}`, acmeDrift))

	if code, stderr := runToExit(t, "-tenants", roster, "-snapshot-dir", store, "-seed", "43", "-save-exit"); code != 0 {
		t.Fatalf("-save-exit: exit %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"acme", "globex", "initech"} {
		if _, err := os.Stat(filepath.Join(store, name+".pcache")); err != nil {
			t.Fatalf("-save-exit left no snapshot for %s: %v", name, err)
		}
	}

	d := startDaemon(t, nil, "-tenants", roster, "-snapshot-dir", store, "-seed", "43", "-tenant-cap", "2")
	acme0, globex0 := d.whatIf(t, "acme"), d.whatIf(t, "globex")
	if n := d.health(t, "")["tenants_resident"]; n != 2.0 {
		t.Fatalf("tenants_resident %v, want 2", n)
	}
	for _, solo := range []struct {
		seed string
		want []byte
	}{{"42", acme0}, {"43", globex0}} {
		s := startDaemon(t, nil, "-seed", solo.seed)
		if got := s.whatIf(t, ""); !bytes.Equal(got, solo.want) {
			t.Errorf("dedicated daemon on seed %s differs from its tenant:\n--- dedicated ---\n%s\n--- tenant ---\n%s", solo.seed, got, solo.want)
		}
		s.stop(t)
	}

	// A third tenant over the cap evicts acme (least recently used),
	// which then cold-loads from its store snapshot to the same bytes.
	d.whatIf(t, "initech")
	_, metrics := d.get(t, "/metrics")
	for _, want := range []string{
		`pinum_tenant_resident{tenant="acme"} 0`,
		`pinum_tenant_evictions_total{tenant="acme"} 1`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics after the third tenant loaded: missing %q", want)
		}
	}
	if got := d.whatIf(t, "acme"); !bytes.Equal(got, acme0) {
		t.Error("acme's /whatif changed across eviction and cold reload")
	}
	if src := d.health(t, "acme")["snapshot_source"]; src != "disk-snapshot" {
		t.Errorf("acme cold-loaded from %v, want disk-snapshot", src)
	}
	// Two cold loads: the startup warm-up published onto a cold tenant
	// too, and the return after the eviction.
	if _, metrics := d.get(t, "/metrics"); !bytes.Contains(metrics, []byte(`pinum_tenant_cold_loads_total{tenant="acme"} 2`+"\n")) {
		t.Error("/metrics does not count acme's two cold loads (the startup warm-up and the return after its eviction)")
	}

	// acme's overrides file moves acme alone. globex was evicted by
	// acme's return; warm it so both fingerprints are readable.
	d.whatIf(t, "globex")
	acmeFP, globexFP := d.health(t, "acme")["fingerprint"], d.health(t, "globex")["fingerprint"]
	writeFile(t, acmeDrift, driftBody)
	code, body := fetch(t, http.MethodPost, d.base+"/reload?tenant=acme&wait=1", "", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"result": "swapped"`)) {
		t.Fatalf("/reload?tenant=acme: %d %s", code, body)
	}
	if fp := d.health(t, "acme")["fingerprint"]; fp == acmeFP {
		t.Error("acme's fingerprint did not move with its overrides file")
	}
	if fp := d.health(t, "globex")["fingerprint"]; fp != globexFP {
		t.Errorf("globex's fingerprint moved to %v on acme's reload", fp)
	}
	if got := d.whatIf(t, "globex"); !bytes.Equal(got, globex0) {
		t.Error("globex's /whatif changed on acme's reload")
	}
	d.stop(t)
}

// TestSIGTERMDrainsInFlight pins the drain: a request in flight when
// SIGTERM arrives (a cold load held open by a PINUM_FAULTPOINTS delay)
// still gets its 200, and only then does the process exit.
func TestSIGTERMDrainsInFlight(t *testing.T) {
	roster := filepath.Join(t.TempDir(), "tenants.json")
	writeFile(t, roster, `{"tenants":[{"name":"acme"},{"name":"globex","seed":43}]}`)
	d := startDaemon(t, []string{"PINUM_FAULTPOINTS=serve.tenant.load=delay=500ms"}, "-tenants", roster)

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(d.base+"/whatif", "application/json", strings.NewReader(`{"tenant":"globex","indexes":[]}`))
		if err != nil {
			replies <- reply{body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, body}
	}()
	waitFor(t, "the request to be in flight", func() bool {
		_, metrics := d.get(t, "/metrics")
		return bytes.Contains(metrics, []byte(`pinum_tenant_in_flight{tenant="globex"} 1`))
	})
	log := d.stop(t)
	if r := <-replies; r.code != http.StatusOK || !bytes.Contains(r.body, []byte(`"queries"`)) {
		t.Errorf("in-flight /whatif across SIGTERM: %d %s, want its 200", r.code, r.body)
	}
	for _, want := range []string{"draining in-flight requests", "drained; exiting"} {
		if !strings.Contains(log, want) {
			t.Errorf("log has no %q line:\n%s", want, log)
		}
	}
}
