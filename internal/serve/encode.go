package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// replyBuf is the buffer a 200 reply is rendered into before anything is
// written to the client, so a reply that cannot be rendered is still an
// error response, and the body goes out with one Write.
type replyBuf struct{ b []byte }

func (rb *replyBuf) Write(p []byte) (int, error) {
	rb.b = append(rb.b, p...)
	return len(p), nil
}

// maxPooledReply bounds the buffers the pool keeps: one outsized reply must
// not pin its buffer for the life of the process.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any { return new(replyBuf) }}

func getReplyBuf() *replyBuf { return replyPool.Get().(*replyBuf) }

func putReplyBuf(rb *replyBuf) {
	if cap(rb.b) > maxPooledReply {
		return
	}
	rb.b = rb.b[:0]
	replyPool.Put(rb)
}

// render appends resp's reply body — EncodeJSON's bytes exactly — to the
// buffer. An untraced /whatif reply takes the append encoder; everything
// else, and anything the append encoder declines, goes through
// encoding/json.
func (rb *replyBuf) render(resp any) error {
	if wr, ok := resp.(*WhatIfResponse); ok && wr.Trace == nil {
		if b, ok := appendWhatIf(rb.b, wr); ok {
			rb.b = b
			return nil
		}
	}
	enc := json.NewEncoder(rb)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// appendWhatIf appends an untraced WhatIfResponse as the indented
// encoding/json encoder renders it, byte for byte (FuzzWhatIfEncode),
// copying a row's base — and its cost, when that equals the base — from
// the set's pre-rendered digits where the row still carries them. It
// reports false, with nothing usable appended, for a value encoding/json
// refuses (a non-finite float), which the caller then lets encoding/json
// refuse.
//
//pinum:allocfree one reply into the caller's pooled buffer; pinned by TestAppendWhatIfAllocFree and TestAppendWhatIfDigitsAllocFree
func appendWhatIf(b []byte, r *WhatIfResponse) ([]byte, bool) {
	ok := true
	b = appendField(b, "{\n  \"total\": ", r.Total, &ok)
	b = appendField(b, ",\n  \"base_total\": ", r.BaseTotal, &ok)
	b = appendField(b, ",\n  \"speedup\": ", r.Speedup, &ok)
	b = append(b, ",\n  \"queries\": "...)
	switch {
	case r.Queries == nil:
		b = append(b, "null"...)
	case len(r.Queries) == 0:
		b = append(b, "[]"...)
	default:
		for i := range r.Queries {
			q := &r.Queries[i]
			if i == 0 {
				b = append(b, "[\n    {\n      \"name\": "...)
			} else {
				b = append(b, ",\n    {\n      \"name\": "...)
			}
			b = appendString(b, q.Name)
			if digits := r.baseDigits.of(i, q.Base); digits != nil {
				b = append(b, ",\n      \"base\": "...)
				b = append(b, digits...)
				if math.Float64bits(q.Cost) == math.Float64bits(q.Base) {
					b = append(b, ",\n      \"cost\": "...)
					b = append(b, digits...)
				} else {
					b = appendField(b, ",\n      \"cost\": ", q.Cost, &ok)
				}
			} else {
				b = appendField(b, ",\n      \"base\": ", q.Base, &ok)
				b = appendField(b, ",\n      \"cost\": ", q.Cost, &ok)
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), ok
}

// baseDigits is a snapshot set's per-query base costs rendered once, by
// appendField's rule, into one buffer: query i's digits are
// text[end[i-1]:end[i]], from 0 for the first. Half the numbers of a
// /whatif reply are bases, fixed for the set's life, and a cost the
// configuration did not move equals its base bit for bit, so the renderer
// copies these digits rather than formatting the float again. base is the
// set's own slice: a row whose Base differs from it in any bit (another
// set's reply, a value changed after rendering) is formatted as usual.
type baseDigits struct {
	base []float64
	text []byte
	end  []int32
}

// maxFloatDigits is the longest appendField rendering of a float64,
// seventeen significant digits at the small end of the 'f' form:
// "-0.0000012345678901234567".
const maxFloatDigits = 25

// newBaseDigits renders base once. A non-finite base, which JSON cannot
// carry, gets no digits, so its rows take appendField and are refused
// there.
func newBaseDigits(base []float64) *baseDigits {
	d := &baseDigits{base: base, text: make([]byte, 0, maxFloatDigits*len(base)), end: make([]int32, len(base))}
	for i, f := range base {
		finite := true
		if text := appendField(d.text, "", f, &finite); finite {
			d.text = text
		}
		d.end[i] = int32(len(d.text))
	}
	return d
}

// of returns row i's base digits when f is the set's base for that row,
// bit for bit, and nil otherwise (and on a nil d).
//
//pinum:hotpath
func (d *baseDigits) of(i int, f float64) []byte {
	if d == nil || i >= len(d.base) || math.Float64bits(f) != math.Float64bits(d.base[i]) {
		return nil
	}
	lo := int32(0)
	if i > 0 {
		lo = d.end[i-1]
	}
	if lo == d.end[i] {
		return nil
	}
	return d.text[lo:d.end[i]]
}

// appendField appends the separator-and-key text and then f by
// encoding/json's rule for a float64: shortest round-trip digits, 'f' form
// unless abs < 1e-6 or abs >= 1e21, and then 'e' form with a two-digit
// exponent's leading zero dropped. NaN and ±Inf, which JSON cannot carry,
// clear *ok.
func appendField(b []byte, key string, f float64, ok *bool) []byte {
	b = append(b, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*ok = false
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escaping under encoding/json's default HTML-safe rules is copied
// between quotes; any other byte hands the whole string to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
