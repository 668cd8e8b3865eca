package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// rawPost sends exact bytes — no marshalling — so the ingress tests
// control every byte the decoder sees.
func rawPost(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestMaxBodyBytes pins the request-size limit: a body over the
// configured cap is a counted 413 naming the limit, on every decode
// endpoint, and a body under the cap still works.
func TestMaxBodyBytes(t *testing.T) {
	srv, err := New(Config{
		Tenants:      []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) { return starEnv(42, nil) }}},
		Workers:      2,
		MaxBodyBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.ReloadTenant("", false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Valid JSON that happens to be huge: the limit must trip on size
	// alone, not on syntax.
	big := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}],"pad":"` +
		strings.Repeat("x", 600) + `"}`)
	if len(big) <= 512 {
		t.Fatalf("test body is %d bytes, need > 512", len(big))
	}
	for _, path := range []string{"/whatif", "/recommend", "/explain"} {
		code, body := rawPost(t, ts.URL+path, big)
		if code != http.StatusRequestEntityTooLarge || !bytes.Contains(body, []byte("512")) {
			t.Fatalf("%s oversized body: %d %s, want 413 naming the limit", path, code, body)
		}
	}
	if got := srv.oversized.Value(); got != 3 {
		t.Fatalf("oversized counter = %d, want 3", got)
	}
	if code, body := rawPost(t, ts.URL+"/whatif", []byte(`{"indexes":[]}`)); code != http.StatusOK {
		t.Fatalf("small body after 413s: %d %s", code, body)
	}

	// The counter is visible in /metrics.
	if got := metricValue(t, scrape(t, ts.URL), "pinum_ingress_oversized_total"); got != 3 {
		t.Fatalf("/metrics pinum_ingress_oversized_total = %v, want 3", got)
	}
}

// TestRequestBodyTrailingData pins strict body framing: exactly one JSON
// value per request. Trailing whitespace is fine; anything else — a
// second value, garbage, half a value — is a 400.
func TestRequestBodyTrailingData(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name string
		body string
		code int
		frag string
	}{
		{"clean", `{"indexes":[]}`, http.StatusOK, ""},
		{"trailing newline", `{"indexes":[]}` + "\n", http.StatusOK, ""},
		{"trailing spaces", `{"indexes":[]}   ` + "\t\n ", http.StatusOK, ""},
		{"second object", `{"indexes":[]}{"indexes":[]}`, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", `{"indexes":[]} garbage`, http.StatusBadRequest, "trailing data"},
		{"trailing scalar", `{"indexes":[]} 7`, http.StatusBadRequest, "trailing data"},
		{"trailing bracket", `{"indexes":[]}]`, http.StatusBadRequest, "trailing data"},
		{"empty body", ``, http.StatusBadRequest, "bad request body"},
		{"half a value", `{"indexes":`, http.StatusBadRequest, "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := rawPost(t, f.ts.URL+"/whatif", []byte(tc.body))
			if code != tc.code {
				t.Fatalf("got %d %s, want %d", code, body, tc.code)
			}
			if tc.frag != "" && !bytes.Contains(body, []byte(tc.frag)) {
				t.Fatalf("error %s does not name %q", body, tc.frag)
			}
		})
	}
}

// TestWeightOverrideValidation pins loud rejection of malformed
// per-request weights: duplicates (which would otherwise silently
// last-win), unknown names, and non-positive or infinite weights are
// each a 400 naming the offending query.
func TestWeightOverrideValidation(t *testing.T) {
	f := newFixture(t)
	q0 := f.queries[0].Name
	cases := []struct {
		name    string
		weights string
		frag    string
	}{
		{"duplicate", fmt.Sprintf(`[{"name":%q,"weight":2},{"name":%q,"weight":3}]`, q0, q0), "duplicate query"},
		{"unknown", `[{"name":"no-such-query","weight":2}]`, "unknown query"},
		{"zero", fmt.Sprintf(`[{"name":%q,"weight":0}]`, q0), "positive finite weight"},
		{"negative", fmt.Sprintf(`[{"name":%q,"weight":-1}]`, q0), "positive finite weight"},
		{"nan", fmt.Sprintf(`[{"name":%q,"weight":"x"}]`, q0), "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(fmt.Sprintf(`{"indexes":[],"weights":%s}`, tc.weights))
			code, resp := rawPost(t, f.ts.URL+"/whatif", body)
			if code != http.StatusBadRequest || !bytes.Contains(resp, []byte(tc.frag)) {
				t.Fatalf("got %d %s, want 400 naming %q", code, resp, tc.frag)
			}
			if tc.name == "duplicate" && !bytes.Contains(resp, []byte(q0)) {
				t.Fatalf("duplicate error %s does not name the query %q", resp, q0)
			}
		})
	}
}

// TestWeightOverrides pins the override arithmetic the costarith
// directive in whatIfOn cites: an overridden weight reprices exactly
// that query's contribution in both totals, per-query costs are
// untouched, and an override-free request remains byte-identical to the
// pre-override server.
func TestWeightOverrides(t *testing.T) {
	f := newFixture(t)
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)

	_, baseRaw := rawPost(t, f.ts.URL+"/whatif", probe)
	var base WhatIfResponse
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		t.Fatal(err)
	}

	q0 := f.queries[0].Name
	const w0 = 2.5
	body := []byte(fmt.Sprintf(`{"indexes":[{"table":"fact","columns":["a1","m1"]}],"weights":[{"name":%q,"weight":%v}]}`, q0, w0))
	code, raw := rawPost(t, f.ts.URL+"/whatif", body)
	if code != http.StatusOK {
		t.Fatalf("override request: %d %s", code, raw)
	}
	var got WhatIfResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	// Recompute both totals with the same arithmetic, in the same order,
	// as the server: default weight 1 everywhere except the override.
	var wantTotal, wantBase float64
	for i, q := range base.Queries {
		w := 1.0
		if q.Name == q0 {
			w = w0
		}
		wantBase += w * q.Base
		wantTotal += w * got.Queries[i].Cost
	}
	if got.Total != wantTotal || got.BaseTotal != wantBase {
		t.Fatalf("override totals (total=%v base=%v), want (total=%v base=%v)",
			got.Total, got.BaseTotal, wantTotal, wantBase)
	}
	if got.Total == base.Total {
		t.Fatal("override changed nothing; query 0's cost contribution must move the total")
	}
	// Per-query costs are configuration-determined, not weight-determined.
	for i := range base.Queries {
		if base.Queries[i] != got.Queries[i] {
			t.Fatalf("per-query cost %d changed under a weight override: %+v vs %+v",
				i, base.Queries[i], got.Queries[i])
		}
	}

	// An explicit empty override list stays byte-identical to no list.
	_, emptyRaw := rawPost(t, f.ts.URL+"/whatif", []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}],"weights":[]}`))
	if !bytes.Equal(emptyRaw, baseRaw) {
		t.Fatalf("empty weights list diverged from omitted list:\n%s\nvs\n%s", emptyRaw, baseRaw)
	}

	// /recommend accepts the same overrides and validates them the same
	// way.
	code, raw = rawPost(t, f.ts.URL+"/recommend",
		[]byte(fmt.Sprintf(`{"budget_gb":5,"weights":[{"name":%q,"weight":2},{"name":%q,"weight":2}]}`, q0, q0)))
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("duplicate query")) {
		t.Fatalf("/recommend duplicate weights: %d %s, want 400", code, raw)
	}
}

// FuzzWhatIfBody feeds arbitrary bytes to a ten-query tenant's /whatif
// handler, with the X-Pinum-Trace header on the inputs of odd length.
// Whatever arrives, the answer is never a 500 and no handler panic is
// recorded; and every 200 is the reply the in-process WhatIf gives for the
// request the server decoded, byte for byte (a traced reply field for
// field: its trace block carries timings). A body "trace" field is an
// unknown field, so its seed is a 400.
func FuzzWhatIfBody(f *testing.F) {
	srv, err := New(Config{
		Tenants:      []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) { return starEnv(42, nil) }}},
		Workers:      2,
		MaxBodyBytes: 1 << 12,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	if _, err := srv.ReloadTenant("", false); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	const bodyTrace = `{"indexes":[{"table":"dim1_1","columns":["a1"]}],"trace":true}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/whatif", strings.NewReader(bodyTrace)))
	if rec.Code != http.StatusBadRequest {
		f.Fatalf("body trace field: %d %s, want 400", rec.Code, rec.Body.Bytes())
	}
	for _, seed := range []string{
		`{"indexes":[]}`,
		`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`,
		`{"indexes":[{"table":"fact","columns":["fk_dim1_1","m1"]},{"table":"dim1_1","columns":["a1"]},{"table":"dim1_2","columns":["id","a1"]}]}`,
		`{"indexes":[{"table":"fact","columns":["a1"]},{"table":"fact","columns":["a1"]}],"weights":[{"name":"Q1","weight":2.5}]}`,
		bodyTrace,
		`{"indexes":[{"table":"dim1_1","columns":["a1"]}]}`, // odd length: traced
		`{"indexes":[],"weights":[{"name":"Q1","weight":1e308},{"name":"Q2","weight":1e308}]}`,
		`{"indexes":[{"table":"nope","columns":["a1"]}]}`,
		`{"indexes":[{"table":"fact","columns":[]}]}`,
		`{"indexes":[{"table":"fact","columns":["a1","a1"]}]}`,
		`{"tenant":"other","indexes":[]}`,
		`{"indexes":[],"weights":[{"name":"Q1","weight":-1}]}`,
		`{"indexes":null,"weights":null}`,
		`{"indexes":[]} trailing`,
		`{"indexes":[],"extra":1}`,
		`[]`, `null`, ``, `{`, "\xff\xfe",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		traced := len(body)%2 == 1
		hr := httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body))
		if traced {
			hr.Header.Set(TraceHeader, "fuzz")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("body %q: 500 %s", body, rec.Body.Bytes())
		}
		if n := srv.panics.Value(); n != 0 {
			t.Fatalf("body %q: %d handler panics recorded", body, n)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req WhatIfRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("body %q: served 200, but does not decode: %v", body, err)
		}
		resp, err := srv.WhatIf(&req)
		if err != nil {
			t.Fatalf("body %q: served 200, in-process WhatIf failed: %v", body, err)
		}
		want, err := EncodeJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := rec.Body.Bytes()
		if traced {
			var traced WhatIfResponse
			if err := json.Unmarshal(got, &traced); err != nil || traced.Trace == nil {
				t.Fatalf("body %q: traced reply %q lacks its trace block (%v)", body, got, err)
			}
			traced.Trace = nil
			if got, err = EncodeJSON(&traced); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body %q: served\n%s\nin-process\n%s", body, got, want)
		}
	})
}
