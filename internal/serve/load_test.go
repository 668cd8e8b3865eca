package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/faultpoint"
)

// quiesce waits for every tenant's asynchronous reloads to finish, then
// holds every reloadMu — no load, and so no publish or eviction, runs
// until the returned function releases them. A retry timer that fires
// meanwhile waits on its tenant's reloadMu.
func (f *mtFixture) quiesce(t *testing.T) (release func()) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range f.srv.tenantNames {
		tn := f.srv.tenants[name]
		for len(tn.reloadQueue) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: asynchronous reload never finished", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, name := range f.srv.tenantNames {
		f.srv.tenants[name].reloadMu.Lock()
	}
	return func() {
		for _, name := range f.srv.tenantNames {
			f.srv.tenants[name].reloadMu.Unlock()
		}
	}
}

// loadInvariants reports every way the roster's load accounting is off:
// cold loads − evictions must be the resident count, a degraded tenant
// must be resident, a cold tenant must have no retry armed, and a resident
// tenant that is not degraded must report no last_reload_error (its last
// load succeeded). The caller quiesced the fixture.
func (f *mtFixture) loadInvariants(t *testing.T) []string {
	t.Helper()
	body := scrape(t, f.ts.URL)
	var bad []string
	for _, name := range f.srv.tenantNames {
		tn := f.srv.tenants[name]
		of := func(series string) int64 {
			return int64(metricValue(t, body, fmt.Sprintf(`%s{tenant=%q}`, series, name)))
		}
		cold, evicted, resident, degraded := of("pinum_tenant_cold_loads_total"), of("pinum_tenant_evictions_total"),
			of("pinum_tenant_resident"), of("pinum_tenant_degraded")
		if cold-evicted != resident {
			bad = append(bad, fmt.Sprintf("%s: cold_loads %d − evictions %d ≠ resident %d", name, cold, evicted, resident))
		}
		if degraded == 1 && resident == 0 {
			bad = append(bad, name+": degraded while cold")
		}
		tn.retryMu.Lock()
		armed := tn.retryTimer != nil
		tn.retryMu.Unlock()
		if armed && resident == 0 {
			bad = append(bad, name+": retry timer armed while cold")
		}
		if msg := loadString(&tn.lastReloadErr); resident == 1 && degraded == 0 && msg != "" {
			bad = append(bad, fmt.Sprintf("%s: ok after a successful load, but last_reload_error %q", name, msg))
		}
	}
	return bad
}

// TestLoadAccountingAnySequence drives a seeded random sequence of loads
// over a three-tenant roster behind a residency cap of two: /whatif,
// synchronous reloads (forced or not) of resident and cold tenants,
// asynchronous reloads, faults armed and cleared, and idling past the
// retry backoff. After every step it checks loadInvariants and each
// synchronous step's status against the state it began in.
func TestLoadAccountingAnySequence(t *testing.T) {
	const seed, steps = 4401, 160
	f := newMTFixture(t, mtSeeds, mtOrder, 2, nil)
	t.Cleanup(faultpoint.Reset)
	rng := rand.New(rand.NewSource(seed))
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)
	faults := [...]string{"serve.rebuild", "serve.tenant.load"}
	armed := map[string]bool{}
	var log []string
	for step := 0; step < steps; step++ {
		name := mtOrder[rng.Intn(len(mtOrder))]
		wasCold := f.srv.tenants[name].current() == nil
		// A load fails when serve.rebuild is armed, or when the tenant is
		// cold and serve.tenant.load is armed.
		fails := armed["serve.rebuild"] || wasCold && armed["serve.tenant.load"]
		var what string
		var code, want int
		switch op := rng.Intn(12); {
		case op < 5:
			what = "/whatif " + name
			code, _ = f.do(t, http.MethodPost, "/whatif", name, probe)
			want = http.StatusOK
			if wasCold && fails {
				want = http.StatusServiceUnavailable
			}
		case op < 7:
			path := "/reload?wait=1&tenant=" + name
			if rng.Intn(2) == 0 {
				path += "&force=1"
			}
			what = path
			code, _ = f.do(t, http.MethodPost, path, "", nil)
			want = http.StatusOK
			if fails {
				want = http.StatusInternalServerError
			}
		case op == 7:
			what = "/reload " + name
			code, _ = f.do(t, http.MethodPost, "/reload?tenant="+name, "", nil)
			want = http.StatusOK // triggered or already pending
		case op == 8:
			fp := faults[rng.Intn(len(faults))]
			if armed[fp] {
				faultpoint.Clear(fp)
				what = "clear " + fp
			} else if err := faultpoint.Set(fp, "error"); err != nil {
				t.Fatal(err)
			} else {
				what = "arm " + fp
			}
			armed[fp] = !armed[fp]
		case op < 11:
			what = "clear faults"
			faultpoint.Reset()
			clear(armed)
		default:
			what = "idle"
			time.Sleep(2 * f.srv.retryMax)
		}
		log = append(log, what)
		if code != want {
			t.Fatalf("seed %d, step %d (%s): status %d, want %d\nsteps: %s", seed, step, what, code, want, strings.Join(log, "; "))
		}
		release := f.quiesce(t)
		bad := f.loadInvariants(t)
		release()
		if len(bad) > 0 {
			t.Fatalf("seed %d, after step %d (%s):\n  %s\nsteps: %s", seed, step, what, strings.Join(bad, "\n  "), strings.Join(log, "; "))
		}
	}
}

// TestFailedColdReloadLoadsNothing: a failed /reload?wait=1 of a cold
// tenant is the caller's 500 and nothing else. The tenant is not marked
// degraded and arms no retry, so even once the fault clears it stays cold
// and evicts nobody.
func TestFailedColdReloadLoadsNothing(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 2, nil)
	t.Cleanup(faultpoint.Reset)
	probe := []byte(`{"indexes":[]}`)
	for _, name := range []string{"acme", "globex"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s warm-up: %d %s", name, code, body)
		}
	}
	if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
		t.Fatal(err)
	}
	if code, body := f.do(t, http.MethodPost, "/reload?tenant=initech&wait=1", "", nil); code != http.StatusInternalServerError {
		t.Fatalf("failing reload of cold initech: %d %s, want 500", code, body)
	}
	faultpoint.Clear("serve.rebuild")
	time.Sleep(10 * f.srv.retryMax)

	body := scrape(t, f.ts.URL)
	if got := metricValue(t, body, `pinum_tenant_resident{tenant="initech"}`); got != 0 {
		t.Errorf("initech resident %v after its failed reload, want 0", got)
	}
	if got := metricValue(t, body, `pinum_tenant_degraded{tenant="initech"}`); got != 0 {
		t.Errorf("pinum_tenant_degraded{initech} %v, want 0", got)
	}
	for _, name := range []string{"acme", "globex"} {
		if st := f.tenantCounters(t, name); !st.Resident || st.Evictions != 0 {
			t.Errorf("%s: resident=%v evictions=%d, want resident and never evicted", name, st.Resident, st.Evictions)
		}
	}
}

// TestFirstPublishIsAColdLoad: a set published onto a cold tenant is a
// cold load whichever way the load came in — ReloadTenant of a
// never-loaded tenant (pinum-serve's startup load) or New over a static
// Config — counted once and recorded as one cold-load event.
func TestFirstPublishIsAColdLoad(t *testing.T) {
	check := func(t *testing.T, url string) {
		t.Helper()
		if got := metricValue(t, scrape(t, url), `pinum_tenant_cold_loads_total{tenant="default"}`); got != 1 {
			t.Errorf("pinum_tenant_cold_loads_total %v, want 1", got)
		}
		n := 0
		for _, typ := range eventTypes(t, url) {
			if typ == "cold-load" {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d cold-load events, want 1", n)
		}
	}
	t.Run("ReloadTenant", func(t *testing.T) {
		rf := newReloadFixture(t, nil)
		rf.load(t)
		check(t, rf.ts.URL)
	})
	t.Run("static", func(t *testing.T) {
		check(t, newFixture(t).ts.URL)
	})
}

// TestColdLoadClearsStaleError: a cold load that succeeds after a failed
// one clears last_reload_error, so /healthz never pairs status ok with an
// old error.
func TestColdLoadClearsStaleError(t *testing.T) {
	f := newMTFixture(t, mtSeeds, mtOrder, 0, nil)
	t.Cleanup(faultpoint.Reset)
	probe := []byte(`{"indexes":[]}`)
	if err := faultpoint.Set("serve.rebuild", "error"); err != nil {
		t.Fatal(err)
	}
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusServiceUnavailable {
		t.Fatalf("cold load under serve.rebuild=error: %d %s, want 503", code, body)
	}
	if _, body := f.do(t, http.MethodGet, "/healthz?tenant=acme", "", nil); !bytes.Contains(body, []byte("last_reload_error")) {
		t.Fatalf("/healthz after the failed cold load: %s, want its error", body)
	}
	faultpoint.Clear("serve.rebuild")
	if code, body := f.do(t, http.MethodPost, "/whatif", "acme", probe); code != http.StatusOK {
		t.Fatalf("cold load after the fault cleared: %d %s", code, body)
	}
	_, body := f.do(t, http.MethodGet, "/healthz?tenant=acme", "", nil)
	if !bytes.Contains(body, []byte(`"status": "ok"`)) || bytes.Contains(body, []byte("last_reload_error")) {
		t.Fatalf("/healthz after the successful cold load: %s, want status ok and no last_reload_error", body)
	}
}
