package obs

// Request tracing: a Trace rides the request context and accumulates
// named span timings (decode, route, load, fan-out, per-query, encode).
// Tracing is strictly opt-in per request; the off path must stay
// allocation-free, which is why every recording entry point is nil-safe —
// an untraced request carries a nil *Trace and each Add is a single
// pointer test.

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a traced request. Offsets are nanoseconds
// from the trace's start, so spans order and nest without wall-clock
// values on the wire.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Trace accumulates spans for one request. A nil *Trace is a valid
// "tracing off" trace: every method no-ops (or returns a zero value),
// so call sites record unconditionally.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTraceAt builds a trace whose span offsets are measured from start —
// the handler entry time, so the decode span's offset is non-negative.
func NewTraceAt(id string, start time.Time) *Trace {
	return &Trace{id: id, start: start}
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Add records one span. Nil-safe: on an untraced request this is the
// single pointer test that keeps the hot path allocation-free.
//
//pinum:allocfree nil receiver is the tracing-off path; pinned by TestTraceAddNilAllocFree
func (t *Trace) Add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.start).Nanoseconds()
	if off < 0 {
		off = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, StartNs: off, DurNs: d.Nanoseconds()})
	t.mu.Unlock()
}

// TraceView is the wire form of a finished trace: the ID and its spans
// sorted by (start offset, name) — per-query spans land concurrently
// from the fan-out workers, so recording order is scheduling-dependent
// but the rendered view is not.
type TraceView struct {
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
}

// View snapshots the trace for a response (nil for a nil trace).
func (t *Trace) View() *TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		return spans[i].Name < spans[j].Name
	})
	return &TraceView{ID: t.id, Spans: spans}
}

// ctxKey keys the trace in a request context.
type ctxKey struct{}

// WithTrace attaches a trace to a context. Only called for traced
// requests; untraced requests never pay the context allocation.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, or nil. The miss path does not
// allocate.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
