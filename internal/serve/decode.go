package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Compute request bodies are read once into a byte slice (readBody) and
// decoded in one pass by bodyScanner, with no reflection: each request
// type walks its own fields on the scanner's primitives (its decode
// method). The scanner accepts exactly the bodies encoding/json accepts
// into the same struct with DisallowUnknownFields and nothing but
// whitespace after the value, and yields the same value — the test oracle
// (FuzzComputeBodyDecode) is that decoder — with one deliberate
// difference: a key repeated within one object is a 400 naming it, where
// encoding/json decodes both into one field, so that
// {"indexes":[{"table":"fact","columns":["a1"]}],"indexes":[{"columns":["m1"]}]}
// would price fact(m1), an index the client never wrote.
//
// The encoding/json rules the scanner keeps:
//   - a key names a field when it equals the field's name, or else when it
//     matches under bytes.EqualFold ("INDEXES" and "indexeſ" name indexes);
//   - null leaves a string or number field zero and a slice nil, and a
//     top-level null is an empty request; [] is a non-nil empty slice;
//   - numbers follow the strict JSON grammar (01, +1, .5, 1., 1e, NaN and
//     Inf are syntax errors), a float must parse within float64's range,
//     and max_indexes takes only an integer literal that fits an int;
//   - strings unescape as encoding/json unquotes them: \/, \uXXXX and
//     surrogate pairs decode, and a lone surrogate or an invalid UTF-8 byte
//     becomes U+FFFD.
//
// No request field nests deeper than four levels, so a deeper value is a
// type error long before encoding/json's 10 000-level limit, and the
// scanner never recurses.

var (
	whatIfFields    = []string{"tenant", "indexes", "weights"}
	recommendFields = []string{"tenant", "budget_gb", "max_indexes", "weights"}
	explainFields   = []string{"tenant", "sql", "indexes"}
	indexSpecFields = []string{"table", "columns"}
	weightFields    = []string{"name", "weight"}
)

// decode fills r from a /whatif body.
//
//pinum:hotpath
func (r *WhatIfRequest) decode(body []byte) error {
	sc := bodyScanner{b: body}
	o := sc.object(whatIfFields, "request")
	for sc.field(&o) {
		switch o.field {
		case 0:
			r.Tenant = sc.str("tenant")
		case 1:
			r.Indexes = sc.indexSpecs()
		case 2:
			r.Weights = sc.weights()
		}
	}
	return sc.done()
}

// decode fills r from a /recommend body.
//
//pinum:hotpath
func (r *RecommendRequest) decode(body []byte) error {
	sc := bodyScanner{b: body}
	o := sc.object(recommendFields, "request")
	for sc.field(&o) {
		switch o.field {
		case 0:
			r.Tenant = sc.str("tenant")
		case 1:
			r.BudgetGB = sc.float("budget_gb")
		case 2:
			r.MaxIndexes = sc.int("max_indexes")
		case 3:
			r.Weights = sc.weights()
		}
	}
	return sc.done()
}

// decode fills r from an /explain body.
//
//pinum:hotpath
func (r *ExplainRequest) decode(body []byte) error {
	sc := bodyScanner{b: body}
	o := sc.object(explainFields, "request")
	for sc.field(&o) {
		switch o.field {
		case 0:
			r.Tenant = sc.str("tenant")
		case 1:
			r.SQL = sc.str("sql")
		case 2:
			r.Indexes = sc.indexSpecs()
		}
	}
	return sc.done()
}

// firstBodyCap is the first read buffer of a body whose length is not
// declared; maxBodyPrealloc bounds the first buffer of one whose length is.
// A Content-Length is a claim, not bytes: past that bound the buffer grows
// as bytes arrive instead of being reserved up front.
const (
	firstBodyCap    = 512
	maxBodyPrealloc = 64 << 10
)

// readBody reads the whole request body once, into one slice sized from the
// declared length when there is one. A body past Config.MaxBodyBytes is a
// counted 413 naming the limit, whatever its bytes are: the size is judged
// before any syntax, reading at most one byte past the limit.
//
//pinum:hotpath
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	limit := s.cfg.MaxBodyBytes
	size := int64(firstBodyCap)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyPrealloc) + 1
	}
	if limit > 0 {
		size = min(size, limit+1)
	}
	body := make([]byte, 0, size)
	for {
		if len(body) == cap(body) {
			if limit > 0 && int64(len(body)) > limit {
				return nil, s.tooLarge()
			}
			body = slices.Grow(body, len(body))
			if limit > 0 {
				body = body[:len(body):min(int64(cap(body)), limit+1)]
			}
		}
		n, err := r.Body.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, badRequest("bad request body: %v", err)
		}
	}
	if limit > 0 && int64(len(body)) > limit {
		return nil, s.tooLarge()
	}
	return body, nil
}

// tooLarge is the counted 413 for a body past Config.MaxBodyBytes.
func (s *Server) tooLarge() error {
	s.oversized.Inc()
	return &httpError{
		code: http.StatusRequestEntityTooLarge,
		err:  fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
	}
}

// bodyScanner decodes one request body. Its first error sticks: every
// later read returns a zero value and moves nothing, so a decode method
// reads its fields straight through and asks done once.
type bodyScanner struct {
	b   []byte
	i   int // the next byte to read
	err error
	// scratch holds a string's bytes when they cannot be used in place.
	scratch []byte
}

// object is a JSON object being read into a struct whose fields are
// names, in declaration order.
type object struct {
	names []string
	open  bool // past the '{' and not yet past the '}'
	seen  uint // bit i: names[i] has been read
	field int  // the index in names of the key field read last
}

var errBodyEnd = errors.New("unexpected end of JSON input")

//pinum:hotpath
func (sc *bodyScanner) fail(err error) {
	if sc.err == nil {
		sc.err = err
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// body (an error) or after an error.
//
//pinum:hotpath
func (sc *bodyScanner) peek() byte {
	if sc.err != nil {
		return 0
	}
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	sc.fail(errBodyEnd)
	return 0
}

// done ends a decode: its first error is a 400 under "bad request body: ",
// and a value followed by anything but whitespace is a 400 of its own.
//
//pinum:hotpath
func (sc *bodyScanner) done() error {
	if sc.err != nil {
		return badRequest("bad request body: %v", sc.err)
	}
	// Past the value, peek either finds a byte or fails at the end.
	if sc.peek(); sc.err == nil {
		return badRequest("trailing data after JSON value")
	}
	return nil
}

// mismatch fails the decode on the value starting with c, which is not of
// the JSON type what takes (or starts no value at all).
//
//pinum:hotpath
func (sc *bodyScanner) mismatch(c byte, what string) {
	kind := "number"
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
	default:
		sc.fail(invalid(c, "looking for beginning of value"))
		return
	}
	sc.fail(typeError(kind, what))
}

// null reads the literal null at sc.i.
//
//pinum:hotpath
func (sc *bodyScanner) null() {
	for k := 0; k < len("null"); k++ {
		switch {
		case sc.i >= len(sc.b):
			sc.fail(errBodyEnd)
			return
		case sc.b[sc.i] != "null"[k]:
			sc.fail(invalid(sc.b[sc.i], "in literal null"))
			return
		}
		sc.i++
	}
}

// object starts reading the object value into names' struct: past its
// '{', or past a null, which reads no field.
//
//pinum:hotpath
func (sc *bodyScanner) object(names []string, what string) object {
	o := object{names: names}
	switch c := sc.peek(); c {
	case '{':
		sc.i++
		o.open = true
	case 'n':
		sc.null()
	default:
		sc.mismatch(c, what)
	}
	return o
}

// field reads o's next key and the colon after it, and sets o.field to the
// key's field. It returns false past the closing brace and on any error: a
// key no field takes is one, and so is a second key for a field already
// read.
//
//pinum:hotpath
func (sc *bodyScanner) field(o *object) bool {
	if !o.open {
		return false
	}
	c := sc.peek()
	if c == '}' {
		sc.i++
		o.open = false
		return false
	}
	if o.seen != 0 {
		if c != ',' {
			sc.fail(invalid(c, "after object key:value pair"))
			return false
		}
		sc.i++
		c = sc.peek()
	}
	if c != '"' {
		sc.fail(invalid(c, "looking for beginning of object key string"))
		return false
	}
	key := sc.quoted()
	if c := sc.peek(); c != ':' {
		sc.fail(invalid(c, "after object key"))
		return false
	}
	sc.i++
	f := fieldIndex(o.names, key)
	switch {
	case f < 0:
		sc.fail(keyError("unknown field", key))
		return false
	case o.seen&(1<<f) != 0:
		sc.fail(keyError("duplicate key", key))
		return false
	}
	o.seen |= 1 << f
	o.field = f
	return sc.err == nil
}

// fieldIndex returns the index of the name key takes, by encoding/json's
// rule: an exact match first, then a match under bytes.EqualFold; -1 when
// none matches.
//
//pinum:hotpath
func fieldIndex(names []string, key []byte) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// array starts reading an array value: true past its '[', false past a
// null (and on an error).
//
//pinum:hotpath
func (sc *bodyScanner) array(what string) bool {
	switch c := sc.peek(); c {
	case '[':
		sc.i++
		return true
	case 'n':
		sc.null()
	default:
		sc.mismatch(c, what)
	}
	return false
}

// elem moves to the next element of an array of which n have been read:
// false past the closing bracket and on any error.
//
//pinum:hotpath
func (sc *bodyScanner) elem(n int) bool {
	c := sc.peek()
	if sc.err != nil {
		return false
	}
	if c == ']' {
		sc.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			sc.fail(invalid(c, "after array element"))
			return false
		}
		sc.i++
	}
	return true
}

// indexSpecs reads an indexes value. Elements collect in a stack array and
// leave in one slice of exact size.
//
//pinum:hotpath
func (sc *bodyScanner) indexSpecs() []IndexSpec {
	if !sc.array("indexes") {
		return nil
	}
	var stack [8]IndexSpec
	specs := stack[:0]
	for sc.elem(len(specs)) {
		specs = append(specs, sc.indexSpec())
	}
	if sc.err != nil {
		return nil
	}
	return append(make([]IndexSpec, 0, len(specs)), specs...)
}

// indexSpec reads one element of indexes. Its table and column names are
// gathered back to back into one string that the spec's fields slice, so
// a spec costs two allocations however many columns it names — that
// string and the column slice — and an interned spec holds on to its own
// names and nothing else.
//
//pinum:hotpath
func (sc *bodyScanner) indexSpec() IndexSpec {
	var (
		textStack  [128]byte
		rangeStack [8]strRange
		table      strRange
		columns    bool // the columns value was an array, not null
	)
	text, ranges := textStack[:0], rangeStack[:0]
	o := sc.object(indexSpecFields, "indexes")
	for sc.field(&o) {
		switch o.field {
		case 0:
			text, table = sc.appendStr(text, "table")
		case 1:
			if columns = sc.array("columns"); !columns {
				break
			}
			for sc.elem(len(ranges)) {
				var col strRange
				text, col = sc.appendStr(text, "columns")
				ranges = append(ranges, col)
			}
		}
	}
	if sc.err != nil {
		return IndexSpec{}
	}
	names := string(text)
	spec := IndexSpec{Table: names[table.start:table.end]}
	if columns {
		spec.Columns = make([]string, len(ranges))
		for k, col := range ranges {
			spec.Columns[k] = names[col.start:col.end]
		}
	}
	return spec
}

// strRange locates one string within the text appendStr builds.
type strRange struct{ start, end int }

// appendStr reads a string value onto text and returns where it lies
// there; null is the empty string.
//
//pinum:hotpath
func (sc *bodyScanner) appendStr(text []byte, what string) ([]byte, strRange) {
	start := len(text)
	switch c := sc.peek(); c {
	case '"':
		text = append(text, sc.quoted()...)
	case 'n':
		sc.null()
	default:
		sc.mismatch(c, what)
	}
	return text, strRange{start, len(text)}
}

// weights reads a weights value, as indexSpecs reads indexes.
//
//pinum:hotpath
func (sc *bodyScanner) weights() []WeightOverride {
	if !sc.array("weights") {
		return nil
	}
	var stack [8]WeightOverride
	ws := stack[:0]
	for sc.elem(len(ws)) {
		var w WeightOverride
		o := sc.object(weightFields, "weights")
		for sc.field(&o) {
			switch o.field {
			case 0:
				w.Name = sc.str("name")
			case 1:
				w.Weight = sc.float("weight")
			}
		}
		ws = append(ws, w)
	}
	if sc.err != nil {
		return nil
	}
	return append(make([]WeightOverride, 0, len(ws)), ws...)
}

// str reads a string value: "" for null.
//
//pinum:hotpath
func (sc *bodyScanner) str(what string) string {
	switch c := sc.peek(); c {
	case '"':
		return string(sc.quoted())
	case 'n':
		sc.null()
	default:
		sc.mismatch(c, what)
	}
	return ""
}

// float reads a number value into a float64: 0 for null; a number past
// float64's range is an error.
//
//pinum:hotpath
func (sc *bodyScanner) float(what string) float64 {
	lit := sc.numberLit(what)
	if lit == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		sc.fail(numberError(lit, what))
		return 0
	}
	return f
}

// int reads a number value into an int: 0 for null; a fraction, an
// exponent or a value past the int range is an error.
//
//pinum:hotpath
func (sc *bodyScanner) int(what string) int {
	lit := sc.numberLit(what)
	if lit == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		sc.fail(numberError(lit, what))
		return 0
	}
	return int(n)
}

// numberLit reads a number value and returns its literal: nil for null
// and on an error.
//
//pinum:hotpath
func (sc *bodyScanner) numberLit(what string) []byte {
	switch c := sc.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		return sc.number()
	case c == 'n':
		sc.null()
	default:
		sc.mismatch(c, what)
	}
	return nil
}

// number reads the number at sc.i by the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
//
//pinum:hotpath
func (sc *bodyScanner) number() []byte {
	b, start := sc.b, sc.i
	i := start
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		sc.failNumber(i)
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			sc.failNumber(i)
			return nil
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			sc.failNumber(i)
			return nil
		}
		i = digits(b, i)
	}
	sc.i = i
	return b[start:i]
}

// failNumber fails the decode at byte i of a number that the grammar
// breaks off there.
func (sc *bodyScanner) failNumber(i int) {
	if i >= len(sc.b) {
		sc.fail(errBodyEnd)
		return
	}
	sc.fail(invalid(sc.b[i], "in numeric literal"))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index past the run of digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// quoted reads the string at sc.i, its opening quote, and returns its
// unescaped bytes: in place when it holds no escape, no control byte and
// no invalid UTF-8, and built in sc.scratch otherwise. Either is valid
// until the next quoted.
//
//pinum:hotpath
func (sc *bodyScanner) quoted() []byte {
	b := sc.b
	start := sc.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			sc.i = i + 1
			return b[start:i]
		case c == '\\' || c < 0x20:
			return sc.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return sc.unescape(start, i)
			}
			i += size
		}
	}
	sc.fail(errBodyEnd)
	return nil
}

// unescape finishes quoted's string in sc.scratch from byte i, the first
// that cannot be copied as it stands, as encoding/json unquotes: \uXXXX
// escapes decode, a surrogate pair to one rune and a lone surrogate to
// U+FFFD, and each invalid UTF-8 byte becomes U+FFFD.
//
//pinum:hotpath
func (sc *bodyScanner) unescape(start, i int) []byte {
	b := sc.b
	out := append(sc.scratch[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			sc.i = i + 1
			sc.scratch = out
			return out
		case c < 0x20:
			sc.fail(invalid(c, "in string literal"))
			return nil
		case c == '\\':
			if i+1 >= len(b) {
				sc.fail(errBodyEnd)
				return nil
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					sc.fail(errors.New("invalid \\u escape in string literal"))
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+3 < len(b) && b[i+2] == '\\' && b[i+3] == 'u' {
						r2 = hex4(b[i+4:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				sc.fail(invalid(e, "in string escape code"))
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	sc.fail(errBodyEnd)
	return nil
}

// hex4 returns the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// The scanner's error texts, built off its hot path.

func invalid(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s", c, context)
}

func typeError(kind, what string) error {
	return fmt.Errorf("cannot decode %s into %s", kind, what)
}

func keyError(what string, key []byte) error {
	return fmt.Errorf("%s %q", what, key)
}

func numberError(lit []byte, what string) error {
	return fmt.Errorf("number %s does not fit %s", lit, what)
}
