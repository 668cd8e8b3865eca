package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeReference is the test oracle for the compute body decoders:
// encoding/json with DisallowUnknownFields, one value, then nothing but
// whitespace.
func decodeReference(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// hasDuplicateKey reports whether an object anywhere in body, which must
// be valid JSON, holds two keys equal under bytes.EqualFold — the keys
// encoding/json decodes into one field.
func hasDuplicateKey(body []byte) bool {
	dup, err := walkDuplicateKeys(json.NewDecoder(bytes.NewReader(body)))
	return err == nil && dup
}

func walkDuplicateKeys(dec *json.Decoder) (bool, error) {
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	open, ok := tok.(json.Delim)
	if !ok {
		return false, nil
	}
	dup := false
	var keys []string
	for dec.More() {
		if open == '{' {
			tok, err := dec.Token()
			if err != nil {
				return false, err
			}
			key := tok.(string)
			for _, k := range keys {
				dup = dup || strings.EqualFold(k, key)
			}
			keys = append(keys, key)
		}
		inner, err := walkDuplicateKeys(dec)
		if err != nil {
			return false, err
		}
		dup = dup || inner
	}
	_, err = dec.Token()
	return dup, err
}

// checkDecode decodes body as a Req with the scanner and with the oracle.
// Both accept or both reject, and accepted values are reflect.DeepEqual —
// except that a body the oracle accepts with a repeated key must be
// refused by the scanner as a duplicate. Every refusal is a 400.
func checkDecode[Req any, PReq interface {
	*Req
	decode([]byte) error
}](t *testing.T, body []byte) {
	t.Helper()
	var got, want Req
	gotErr := PReq(&got).decode(body)
	wantErr := decodeReference(body, &want)
	if gotErr != nil {
		var he *httpError
		if !errors.As(gotErr, &he) || he.code != http.StatusBadRequest {
			t.Fatalf("%T: body %q: scanner refusal %v is not a 400", got, body, gotErr)
		}
	}
	switch {
	case wantErr == nil && hasDuplicateKey(body):
		if gotErr == nil || !strings.Contains(gotErr.Error(), "duplicate key") {
			t.Fatalf("%T: body %q repeats a key: scanner %v, want a duplicate-key 400", got, body, gotErr)
		}
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%T: body %q: scanner %v, encoding/json %v", got, body, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T: body %q: scanner %#v, encoding/json %#v", got, body, got, want)
	}
}

// decodeSeeds are the edge cases the scanner must read as encoding/json
// does: key matching, null, empty arrays, the number grammar, string
// escapes, nesting depth, duplicate keys and framing.
var decodeSeeds = []string{
	// Shapes of every request type.
	`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`,
	`{"tenant":"t1","indexes":[{"table":"fact","columns":["a1"]},{"table":"dim1_1","columns":["id","a1"]}],"weights":[{"name":"Q1","weight":2.5}]}`,
	`{"budget_gb":5,"max_indexes":3,"weights":[{"name":"Q2","weight":0.5}]}`,
	`{"sql":"SELECT a1 FROM fact","indexes":[{"table":"fact","columns":["a1"]}]}`,
	` {	"indexes" : [ { "table" : "fact" , "columns" : [ "a1" ] } ] }` + "\r\n",
	`{"indexes":[{"columns":["a1","m1"],"table":"fact"},{"columns":[],"table":"dim1_1"},{"table":"","columns":["","a1"]}]}`,
	// Keys: exact first, then bytes.EqualFold; escaped keys unescape first.
	`{"INDEXES":[]}`, `{"indexeſ":[]}`, `{"İndexes":[]}`, `{"Tenant":"x","SQL":"q","Budget_GB":1}`,
	`{"tenant":"x"}`, `{"max_indexes":1,"MAX_INDEXES":2}`, `{"weightſ":[{"NAME":"Q1","Weight":1}]}`,
	`{"trace":true}`, `{"indexes":[],"extra":1}`, `{"":1}`,
	// Null.
	`null`, ` null `, `null x`, `nul`, `{"tenant":null,"sql":null,"budget_gb":null,"max_indexes":null}`,
	`{"indexes":null,"weights":null}`, `{"indexes":[null]}`, `{"indexes":[{"table":null,"columns":null}]}`,
	`{"indexes":[{"table":"fact","columns":[null,"a1"]}]}`, `{"weights":[null,{"name":null,"weight":null}]}`,
	// Empty arrays are non-nil.
	`{"indexes":[],"weights":[]}`, `{"indexes":[{"columns":[]}]}`, `{"indexes":[{}]}`,
	// Numbers.
	`{"budget_gb":01}`, `{"budget_gb":+1}`, `{"budget_gb":.5}`, `{"budget_gb":1.}`, `{"budget_gb":1e}`,
	`{"budget_gb":NaN}`, `{"budget_gb":Inf}`, `{"budget_gb":-Inf}`, `{"budget_gb":-}`, `{"budget_gb":-0}`,
	`{"budget_gb":1e400}`, `{"budget_gb":-1e400}`, `{"budget_gb":1e-400}`, `{"budget_gb":1E+2}`,
	`{"budget_gb":0.5e-3}`, `{"budget_gb":"5"}`, `{"budget_gb":true}`, `{"budget_gb":[1]}`,
	`{"max_indexes":1.0}`, `{"max_indexes":1e2}`, `{"max_indexes":-1}`, `{"max_indexes":-0}`,
	`{"max_indexes":9223372036854775807}`, `{"max_indexes":9223372036854775808}`,
	`{"max_indexes":-9223372036854775808}`, `{"max_indexes":-9223372036854775809}`,
	`{"weights":[{"name":"Q1","weight":1e308}]}`, `{"weights":[{"name":"Q1","weight":2e308}]}`,
	// Strings.
	`{"tenant":"a\/b"}`, `{"tenant":"Aé"}`, `{"tenant":"😀"}`, `{"tenant":"\ud83d\ude00"}`, `{"tenant":"\uD83D\uDE00x"}`,
	`{"tenant":"\ud800"}`, `{"tenant":"\udc00"}`, `{"tenant":"\ud800A"}`, `{"tenant":"\ud800\ud800"}`, `{"tenant":"\ud800x"}`,
	`{"tenant":"\udfff\udc00"}`, `{"tenant":"\ud800\uzzzz"}`, `{"tenant":"\u12"}`, `{"tenant":"\u00zz"}`,
	`{"tenant":"\'"}`, `{"tenant":"\b\f\n\r\t\"\\"}`, "{\"tenant\":\"\xff\xfe\"}", "{\"tenant\":\"\xed\xa0\x80\"}",
	"{\"tenant\":\"é\xc3\"}", "{\"tenant\":\"\x01\"}", "{\"tenant\":\"\x7f\"}", `{"tenant":"\u0000"}`,
	`{"tenant":"unterminated`, `{"tenant":"\`, `{"tenant":5}`, `{"tenant":{}}`, `{"sql":["x"]}`,
	// Nesting: 10 000 levels is encoding/json's limit; a request field takes
	// none that deep.
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"indexes":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"indexes":[[["a"]]]}`, `{"indexes":[{"columns":[["a1"]]}]}`, `{"indexes":{"table":"fact"}}`,
	// Duplicate keys, at every level.
	`{"indexes":[{"table":"fact","columns":["a1"]}],"indexes":[{"columns":["m1"]}]}`,
	`{"tenant":"a","TENANT":"b"}`, `{"indexes":[{"table":"fact","table":"dim1_1","columns":["a1"]}]}`,
	`{"weights":[{"name":"Q1","name":"Q2","weight":1}]}`, `{"budget_gb":1,"budget_gb":2}`,
	// Framing.
	``, ` `, `{`, `{"indexes":`, `{"indexes":[`, `{"indexes":[],}`, `{,}`, `{"a"}`, `{"tenant" "x"}`,
	`{"indexes":[1,]}`, `{"indexes":[,]}`, `{"indexes":[{"table":"fact"} {"table":"fact"}]}`,
	`{}`, `{} `, "{}\n", `{}{}`, `{} x`, `{}]`, `{} 7`, `[]`, `"x"`, `7`, `true`, "\xef\xbb\xbf{}",
}

// FuzzComputeBodyDecode holds the scanner to encoding/json on arbitrary
// bytes, decoded as each of the three compute request types. It calls no
// handler: nothing is priced, planned or searched.
func FuzzComputeBodyDecode(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[WhatIfRequest](t, body)
		checkDecode[RecommendRequest](t, body)
		checkDecode[ExplainRequest](t, body)
	})
}

// TestDecodeDuplicateKeyNamed pins the one place the scanner parts from
// encoding/json: a body that encoding/json decodes to fact(m1), an index
// it never names, is refused with the repeated key named.
func TestDecodeDuplicateKeyNamed(t *testing.T) {
	body := []byte(`{"indexes":[{"table":"fact","columns":["a1"]}],"indexes":[{"columns":["m1"]}]}`)
	var merged WhatIfRequest
	if err := decodeReference(body, &merged); err != nil {
		t.Fatal(err)
	}
	if want := []IndexSpec{{Table: "fact", Columns: []string{"m1"}}}; !reflect.DeepEqual(merged.Indexes, want) {
		t.Fatalf("encoding/json decoded %+v; the premise is that it merges to %+v", merged.Indexes, want)
	}
	var req WhatIfRequest
	err := req.decode(body)
	if err == nil || !strings.Contains(err.Error(), `duplicate key "indexes"`) {
		t.Fatalf("scanner: %v, want a 400 naming the duplicate key", err)
	}
}

// TestReadBodySizeFirst pins how a compute body is read: whole, whether
// its length is declared, declared truly or claimed larger than it is;
// past Config.MaxBodyBytes it is a counted 413 naming the limit even when
// its bytes are no JSON at all, since the size is judged before the
// syntax; and a negative cap reads any size.
func TestReadBodySizeFirst(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: DefaultTenant, Loader: func() (*Environment, error) { return starEnv(42, nil) }}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cases := []struct {
		name     string
		limit    int64
		size     int
		declared int64 // -1: no Content-Length
		tooLarge bool
		dataEOF  bool // the reader returns io.EOF with the last bytes
	}{
		{"declared", 512, 100, 100, false, false},
		{"undeclared", 512, 100, -1, false, false},
		{"at the cap", 512, 512, -1, false, false},
		{"one past the cap", 512, 513, -1, true, false},
		{"one past the cap, EOF with the bytes", 512, 513, -1, true, true},
		{"at the cap, EOF with the bytes", 512, 512, -1, false, true},
		{"past the cap, declared", 512, 600, 600, true, false},
		{"claim past the body", 512, 10, 1 << 30, false, false},
		{"uncapped", -1, 100 << 10, -1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv.cfg.MaxBodyBytes = tc.limit
			body := bytes.Repeat([]byte("{"), tc.size)
			var rd io.Reader = bytes.NewReader(body)
			if tc.dataEOF {
				rd = iotest.DataErrReader(rd)
			}
			hr := httptest.NewRequest(http.MethodPost, "/whatif", rd)
			hr.ContentLength = tc.declared
			before := srv.oversized.Value()
			got, err := srv.readBody(hr)
			var he *httpError
			switch {
			case tc.tooLarge && (!errors.As(err, &he) || he.code != http.StatusRequestEntityTooLarge ||
				!strings.Contains(err.Error(), "512")):
				t.Fatalf("got %v, want a 413 naming the limit", err)
			case tc.tooLarge && srv.oversized.Value() != before+1:
				t.Fatalf("oversized counter %d → %d, want one more", before, srv.oversized.Value())
			case !tc.tooLarge && (err != nil || !bytes.Equal(got, body)):
				t.Fatalf("read %d bytes (%v), want all %d", len(got), err, tc.size)
			}
		})
	}

	// Through the handler: a malformed body past the cap is a 413, not the
	// 400 its first bytes would earn under the cap.
	srv.cfg.MaxBodyBytes = 512
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/whatif",
		strings.NewReader("}"+strings.Repeat("x", 600))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("malformed oversized body: %d %s, want 413", rec.Code, rec.Body.Bytes())
	}
}

// TestWhatIfDecodeAllocs pins what reading and decoding a 4-index /whatif
// body allocates: one slice for the body, one for Indexes, and per spec
// one string holding its table and column names and one slice for its
// columns — 2 + 4·2 = 10, however many columns the specs name.
func TestWhatIfDecodeAllocs(t *testing.T) {
	body := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]},{"table":"dim1_1","columns":["a1"]},` +
		`{"table":"dim1_2","columns":["id","a1"]},{"table":"fact","columns":["fk_dim1_1","m1"]}]}`)
	const bound = 2 + 4*2
	srv := &Server{cfg: Config{MaxBodyBytes: DefaultMaxBodyBytes}}
	var rd bytes.Reader
	hr := httptest.NewRequest(http.MethodPost, "/whatif", nil)
	hr.Body = io.NopCloser(&rd)
	hr.ContentLength = int64(len(body))
	var req WhatIfRequest
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		b, err := srv.readBody(hr)
		if err != nil {
			t.Fatal(err)
		}
		req = WhatIfRequest{}
		if err := req.decode(b); err != nil {
			t.Fatal(err)
		}
	})
	if len(req.Indexes) != 4 {
		t.Fatalf("decoded %d specs, want 4", len(req.Indexes))
	}
	if allocs > bound {
		t.Fatalf("read + decode of a 4-index body: %.1f allocs, want ≤ %d", allocs, bound)
	}
}

// BenchmarkComputeBodyDecode decodes the 4-index /whatif body with the
// scanner and with its encoding/json oracle.
func BenchmarkComputeBodyDecode(b *testing.B) {
	body := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]},{"table":"dim1_1","columns":["a1"]},` +
		`{"table":"dim1_2","columns":["id","a1"]},{"table":"fact","columns":["fk_dim1_1","m1"]}]}`)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req WhatIfRequest
			if err := req.decode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req WhatIfRequest
			if err := decodeReference(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
