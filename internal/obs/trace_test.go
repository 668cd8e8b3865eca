package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTraceSpans pins span recording and the deterministic view: spans
// sort by (offset, name) regardless of Add order, offsets clamp at zero,
// and the ID survives to the view.
func TestTraceSpans(t *testing.T) {
	start := time.Unix(100, 0)
	tr := NewTraceAt("abc-1", start)
	tr.Add("encode", start.Add(30*time.Millisecond), 5*time.Millisecond)
	tr.Add("decode", start.Add(1*time.Millisecond), 2*time.Millisecond)
	tr.Add("query:b", start.Add(10*time.Millisecond), 3*time.Millisecond)
	tr.Add("query:a", start.Add(10*time.Millisecond), 4*time.Millisecond)
	tr.Add("early", start.Add(-time.Second), time.Millisecond) // clamped

	if tr.ID() != "abc-1" {
		t.Fatalf("ID = %q", tr.ID())
	}
	v := tr.View()
	if v.ID != "abc-1" {
		t.Fatalf("view ID = %q", v.ID)
	}
	wantOrder := []string{"early", "decode", "query:a", "query:b", "encode"}
	if len(v.Spans) != len(wantOrder) {
		t.Fatalf("got %d spans, want %d", len(v.Spans), len(wantOrder))
	}
	for i, name := range wantOrder {
		if v.Spans[i].Name != name {
			t.Fatalf("span %d = %q, want %q (order must be (start, name))", i, v.Spans[i].Name, name)
		}
	}
	if v.Spans[0].StartNs != 0 {
		t.Fatalf("pre-start span offset = %d, want clamped 0", v.Spans[0].StartNs)
	}
	if v.Spans[1].StartNs != int64(time.Millisecond) || v.Spans[1].DurNs != int64(2*time.Millisecond) {
		t.Fatalf("decode span = %+v", v.Spans[1])
	}
}

// TestTraceNilSafe pins the tracing-off contract: every method on a nil
// trace is a safe no-op.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add("x", time.Now(), time.Second)
	if tr.ID() != "" {
		t.Fatalf("nil ID = %q", tr.ID())
	}
	if tr.View() != nil {
		t.Fatal("nil View() != nil")
	}
}

// TestTraceContext pins the context plumbing: WithTrace/TraceFrom round
// trip, and a context without a trace yields nil.
func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context produced a trace")
	}
	tr := NewTraceAt("t1", time.Now())
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
}

// TestTraceConcurrentAdd pins that concurrent span recording (the
// fan-out workers) is safe and loses nothing; run under -race.
func TestTraceConcurrentAdd(t *testing.T) {
	tr := NewTraceAt("conc", time.Now())
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Add("q", time.Now(), time.Microsecond)
		}()
	}
	wg.Wait()
	if got := len(tr.View().Spans); got != n {
		t.Fatalf("got %d spans, want %d", got, n)
	}
}

// TestTraceAddNilAllocFree is the pin the //pinum:allocfree directive on
// Trace.Add cites: with tracing off (nil trace), recording a span
// allocates nothing.
func TestTraceAddNilAllocFree(t *testing.T) {
	var tr *Trace
	now := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		tr.Add("decode", now, time.Millisecond)
		_ = tr.ID()
	}); n != 0 {
		t.Fatalf("nil-trace Add allocated %v times per op, want 0", n)
	}
	// The context miss path is equally free.
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		_ = TraceFrom(ctx)
	}); n != 0 {
		t.Fatalf("TraceFrom miss allocated %v times per op, want 0", n)
	}
}
