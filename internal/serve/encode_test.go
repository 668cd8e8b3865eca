package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/obs"
)

// rendered is what instrument writes for resp: the bytes, or the error
// that turns the reply into a 500.
func rendered(resp any) ([]byte, error) {
	rb := getReplyBuf()
	defer putReplyBuf(rb)
	if err := rb.render(resp); err != nil {
		return nil, err
	}
	return append([]byte(nil), rb.b...), nil
}

// assertRendersLikeReference holds the served rendering of resp to the
// out-of-band reference, EncodeJSON, byte for byte — or error for error.
func assertRendersLikeReference(t *testing.T, resp *WhatIfResponse) {
	t.Helper()
	want, wantErr := EncodeJSON(resp)
	got, gotErr := rendered(resp)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("served rendering error %v, reference error %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served rendering differs from EncodeJSON\nserved:    %q\nreference: %q", got, want)
	}
}

var encodeEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1e15, 123456789012345678, 0.1, 1.0 / 3, 2.5e-3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 9.99e20, 1.5e22, -1e21, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 5e-324,
	13050.875632718771, 1.7976931348623157e308,
}

var encodeEdgeNames = []string{
	"Q1", "S12.Q7", "", " ", "a b", "tilde~", "del\x7f",
	"<script>", "a>b", "R&D", `quo"te`, `back\slash`, "tab\there", "nl\nx", "nul\x00", "\x1f",
	"café", "日本語", "emoji😀", "bad\xffutf8", "\xc3", "trunc\xe2\x82", "ls\u2028ps\u2029",
}

// TestAppendEncoderMatchesReference is the table half of the encoder's
// equivalence contract: every edge float in every float field, every edge
// name, and the shapes of the query list.
func TestAppendEncoderMatchesReference(t *testing.T) {
	for _, f := range encodeEdgeFloats {
		assertRendersLikeReference(t, &WhatIfResponse{Total: f, BaseTotal: -f, Speedup: f,
			Queries: []QueryCost{{Name: "Q1", Base: f, Cost: -f}, {Name: "Q2", Base: -f, Cost: f}}})
	}
	for _, name := range encodeEdgeNames {
		assertRendersLikeReference(t, &WhatIfResponse{Total: 1, Queries: []QueryCost{{Name: name, Base: 1, Cost: 2}}})
	}
	assertRendersLikeReference(t, &WhatIfResponse{})                       // nil list: null
	assertRendersLikeReference(t, &WhatIfResponse{Queries: []QueryCost{}}) // empty list: []
	assertRendersLikeReference(t, &WhatIfResponse{Queries: make([]QueryCost, 3)})

	// A traced reply is not the append encoder's: it falls back, trace
	// block included.
	traced := &WhatIfResponse{Total: 1, Queries: []QueryCost{{Name: "Q1"}}, Trace: &obs.TraceView{ID: "t-1"}}
	assertRendersLikeReference(t, traced)
	if got, _ := rendered(traced); !bytes.Contains(got, []byte(`"trace"`)) {
		t.Fatalf("traced reply lost its trace block: %s", got)
	}

	// JSON cannot carry a non-finite float: both paths refuse, neither
	// truncates.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		assertRendersLikeReference(t, &WhatIfResponse{Total: f})
		assertRendersLikeReference(t, &WhatIfResponse{Queries: []QueryCost{{Name: "Q1", Cost: f}}})
		if _, err := rendered(&WhatIfResponse{Total: f}); err == nil {
			t.Fatalf("rendering total %v succeeded", f)
		}
	}

	// Against a set's pre-rendered bases: every edge float as a base, its
	// cost unmoved or moved, a −0 cost beside a +0 base and the reverse,
	// and a row whose base no longer matches the set's.
	bases := append([]float64(nil), encodeEdgeFloats...)
	digits := newBaseDigits(bases)
	resp := &WhatIfResponse{Queries: make([]QueryCost, len(bases)), baseDigits: digits}
	for i, f := range bases {
		if digits.of(i, f) == nil {
			t.Fatalf("base %v has no pre-rendered digits", f)
		}
		resp.Queries[i] = QueryCost{Name: encodeEdgeNames[i%len(encodeEdgeNames)], Base: f, Cost: f}
	}
	assertRendersLikeReference(t, resp)
	for i := range resp.Queries {
		resp.Queries[i].Cost = -resp.Queries[i].Base
	}
	assertRendersLikeReference(t, resp)
	resp.Queries[3].Base = 7 // moved after the digits were rendered
	assertRendersLikeReference(t, resp)
	if digits.of(3, 7) != nil || newBaseDigits([]float64{math.Inf(1)}).of(0, math.Inf(1)) != nil {
		t.Fatal("digits served for a base they were not rendered from, or for a non-finite base")
	}

	// The table must exercise the append path itself, not only agree
	// through the fallback.
	plain := &WhatIfResponse{Total: 1e-7, Queries: []QueryCost{{Name: "Q1", Base: 1e21}}}
	if _, ok := appendWhatIf(nil, plain); !ok {
		t.Fatal("the append encoder declined a plain reply")
	}
}

// FuzzWhatIfEncode is the property half: for arbitrary replies the served
// rendering equals EncodeJSON's — with every float formatted, and again
// against a set's pre-rendered bases (baseDigits), where shape's bit 16
// leaves every other cost equal to its base, and bit 32 moves the last
// row's base after the digits were rendered.
func FuzzWhatIfEncode(f *testing.F) {
	for i, x := range encodeEdgeFloats {
		f.Add(x, -x, encodeEdgeFloats[(i+1)%len(encodeEdgeFloats)], encodeEdgeNames[i%len(encodeEdgeNames)], uint8(i))
	}
	for i, name := range encodeEdgeNames {
		f.Add(float64(i), 1.5, 1e-9, name, uint8(i%4))
	}
	f.Add(math.Inf(1), 0.0, 0.0, "Q1", uint8(1))
	f.Add(0.0, 0.0, math.NaN(), "Q1", uint8(2))
	// The cached-digits path: unmoved costs, −0 beside +0, e-form
	// magnitudes, names that need escaping, a base moved after rendering.
	negZero := math.Copysign(0, -1)
	for i, x := range []float64{13050.875632718771, 0, negZero, 1e-7, 1e21, 5e-324, math.MaxFloat64} {
		f.Add(1.0, x, negZero, encodeEdgeNames[(7+i)%len(encodeEdgeNames)], uint8(16|32|(2+i%6)))
		f.Add(x, x, x, "S1.Q1", uint8(16|(7-i%6)))
	}
	f.Add(1.0, negZero, 0.0, "Q1", uint8(7))
	f.Add(1.0, 1e-7, 1e-7, "<q&1>", uint8(32|5))
	f.Fuzz(func(t *testing.T, total, base, cost float64, name string, shape uint8) {
		resp := &WhatIfResponse{Total: total, BaseTotal: base, Speedup: cost}
		switch n := int(shape % 8); n {
		case 0: // nil list
		case 1:
			resp.Queries = []QueryCost{}
		default:
			for i := 1; i < n; i++ {
				q := QueryCost{Name: name, Base: base * float64(i), Cost: cost / float64(i)}
				if shape&16 != 0 && i%2 == 1 {
					q.Cost = q.Base
				}
				resp.Queries = append(resp.Queries, q)
				name += "'"
			}
		}
		if shape >= 128 {
			resp.Trace = &obs.TraceView{ID: name}
		}
		assertRendersLikeReference(t, resp)

		bases := make([]float64, len(resp.Queries))
		for i, q := range resp.Queries {
			bases[i] = q.Base
		}
		resp.baseDigits = newBaseDigits(bases)
		assertRendersLikeReference(t, resp)
		if n := len(resp.Queries); n > 0 && shape&32 != 0 {
			resp.Queries[n-1].Base = cost
			assertRendersLikeReference(t, resp)
		}
	})
}

// TestAppendWhatIfAllocFree pins the untraced /whatif rendering at zero
// allocations once the pool holds a buffer of the reply's size.
func TestAppendWhatIfAllocFree(t *testing.T) {
	resp := &WhatIfResponse{Total: 123456.789, BaseTotal: 234567.891, Speedup: 0.4737, Queries: make([]QueryCost, 200)}
	for i := range resp.Queries {
		resp.Queries[i] = QueryCost{Name: "S1.Q1", Base: 1234.5 * float64(i+1), Cost: 1e-7 * float64(i)}
	}
	rb := new(replyBuf)
	if err := rb.render(resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rb.b = rb.b[:0]
		if err := rb.render(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rendering an untraced /whatif reply into a warmed buffer: %v allocs, want 0", allocs)
	}
}

// TestAppendWhatIfDigitsAllocFree pins the same for a reply rendered
// against its set's pre-rendered bases, half its costs unmoved.
func TestAppendWhatIfDigitsAllocFree(t *testing.T) {
	resp := &WhatIfResponse{Total: 123456.789, BaseTotal: 234567.891, Speedup: 0.4737, Queries: make([]QueryCost, 200)}
	bases := make([]float64, len(resp.Queries))
	for i := range resp.Queries {
		bases[i] = 1234.5 * float64(i+1)
		resp.Queries[i] = QueryCost{Name: "S1.Q1", Base: bases[i], Cost: bases[i] / float64(1+i%2)}
	}
	resp.baseDigits = newBaseDigits(bases)
	rb := new(replyBuf)
	if err := rb.render(resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rb.b = rb.b[:0]
		if err := rb.render(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rendering against pre-rendered bases into a warmed buffer: %v allocs, want 0", allocs)
	}
}

// TestWeightOverflowIs400 pins the un-renderable total: two weights that
// each pass validation overflow Σ wᵢ·cᵢ to +Inf, which must be a 400
// naming the overflow — not an empty 200.
func TestWeightOverflowIs400(t *testing.T) {
	f := newFixture(t)
	body := `{"indexes":[],"weights":[{"name":"Q1","weight":1e308},{"name":"Q2","weight":1e308}]}`
	code, reply := rawPost(t, f.ts.URL+"/whatif", []byte(body))
	if code != http.StatusBadRequest {
		t.Fatalf("overflowing weights: status %d, body %q, want 400", code, reply)
	}
	var msg map[string]string
	if err := json.Unmarshal(reply, &msg); err != nil || !strings.Contains(msg["error"], "overflow") {
		t.Fatalf("overflowing weights: body %q, want a JSON error naming the overflow", reply)
	}
}

// TestUnrenderableReplyIs500 pins the general case: a handler result
// encoding/json refuses is a counted 500 with the JSON error body.
func TestUnrenderableReplyIs500(t *testing.T) {
	f := newFixture(t)
	f.srv.mux.HandleFunc("/inf", f.srv.instrument("/inf", http.MethodGet, false,
		func(*http.Request) (any, error) { return &WhatIfResponse{Total: math.Inf(1)}, nil }))
	resp, err := http.Get(f.ts.URL + "/inf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatalf("status %d with an undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(msg["error"], "rendering /inf reply") {
		t.Fatalf("unrenderable reply: status %d, error %q, want a 500 naming the rendering", resp.StatusCode, msg["error"])
	}
	if got := f.srv.epFor("/inf").errors.Value(); got != 1 {
		t.Fatalf("endpoint error counter = %d, want 1", got)
	}
}
