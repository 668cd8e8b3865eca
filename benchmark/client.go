package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// respWriter is the benchmark's in-process http.ResponseWriter: it keeps
// the status and appends the body to one reused buffer, so no HTTP
// client, socket or per-request allocation of the benchmark's own is in
// any measured number.
type respWriter struct {
	hdr    http.Header
	buf    []byte
	status int
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *respWriter) WriteHeader(status int) { w.status = status }

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// call is one prepared request shape (method, target, headers). The
// mux writes routing state into the *http.Request it serves, so a call
// belongs to one client goroutine.
type call struct {
	req  *http.Request
	body bodyReader
}

// client drives a handler in-process from one goroutine.
type client struct {
	h http.Handler
	w respWriter
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{hdr: make(http.Header)}}
}

// newCall prepares a request shape; headers are key, value pairs.
func newCall(method, target string, headers ...string) (*call, error) {
	c := &call{}
	req, err := http.NewRequest(method, target, &c.body)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	c.req = req
	return c, nil
}

// do serves one request and reports status, body and wall time. The
// body slice is valid until the client's next do.
func (c *client) do(cl *call, body []byte) (int, []byte, time.Duration) {
	cl.body.Reset(body)
	cl.req.ContentLength = int64(len(body))
	c.w.buf = c.w.buf[:0]
	c.w.status = http.StatusOK
	start := time.Now()
	c.h.ServeHTTP(&c.w, cl.req)
	return c.w.status, c.w.buf, time.Since(start)
}

// promText is a parsed Prometheus text exposition: series text
// (`name{labels}`) → value.
type promText map[string]float64

// parseProm parses an exposition as obs.Registry.WriteText renders it.
func parseProm(text []byte) (promText, error) {
	out := make(promText)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the named family, optionally filtered by a
// label substring such as `result="completed"`.
func (p promText) sum(family, label string) float64 {
	total := 0.0
	for series, v := range p {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if name == family && strings.Contains(series, label) {
			total += v
		}
	}
	return total
}
