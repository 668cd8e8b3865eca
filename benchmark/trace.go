package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/serve"
)

// span is one timed interval of the traced pass: what ran, when (ns
// since the tracer's epoch), under which span, for which request.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepRequests bounds the spans kept for the trace file to the first
// requests of a pass; the per-layer numbers use every request.
const keepRequests = 256

// tracer keeps the traced pass's spans in memory; they are written out
// once, when the benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int
	// layers accumulates self time per layer, for the share table.
	layers map[string]float64
	// samples collects per-request values whose medians become
	// per-layer metrics.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: make(map[string]float64), samples: make(map[string][]float64)}
}

func (t *tracer) newRequest() int {
	t.reqs++
	return t.reqs
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its id (-1 once the pass is past
// keepRequests and spans are no longer kept).
func (t *tracer) add(req, parent int, name string, start, end int64) int {
	if req > keepRequests {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose end is not known yet; close ends it.
func (t *tracer) open(req, parent int, name string) int {
	return t.add(req, parent, name, t.at(time.Now()), 0)
}

func (t *tracer) close(id int) {
	if id >= 0 {
		t.spans[id].End = t.at(time.Now())
	}
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// timed runs fn under a benchmark-owned span and returns its duration
// in microseconds.
func (t *tracer) timed(req, parent int, name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(req, parent, name, t.at(start), t.at(end))
	return float64(end.Sub(start)) / 1e3
}

// serverSpans is the breakdown of one server-traced request.
type serverSpans struct {
	top        map[string]float64 // top-level span name → µs
	unaccount  float64            // root − union of top-level spans, µs
	fanoutSelf float64            // fanout − union of its query spans, µs
	querySum   float64            // Σ query spans (CPU time across workers), µs
}

// attach records a served request as a root span around ServeHTTP with
// the server-reported spans as children at their reported offsets
// (query:* spans under fanout), and derives the self times.
func (t *tracer) attach(req int, name string, start time.Time, dur time.Duration, view *obs.TraceView) serverSpans {
	s0 := t.at(start)
	out := serverSpans{top: make(map[string]float64)}
	rootID := t.add(req, -1, name, s0, s0+dur.Nanoseconds())
	if view == nil {
		return out
	}
	// The fanout span's id is -1 once spans are no longer kept; its
	// interval is tracked apart from the id, so the self time is derived
	// for every request.
	fanout, haveFan := -1, false
	var fan interval
	var tops, queries []interval
	for _, sp := range view.Spans {
		if strings.HasPrefix(sp.Name, "query:") {
			continue
		}
		iv := interval{s0 + sp.StartNs, s0 + sp.StartNs + sp.DurNs}
		id := t.add(req, rootID, "serve."+sp.Name, iv.start, iv.end)
		tops = append(tops, iv)
		out.top[sp.Name] += float64(sp.DurNs) / 1e3
		if sp.Name == "fanout" {
			fanout, fan, haveFan = id, iv, true
		}
	}
	for _, sp := range view.Spans {
		if !strings.HasPrefix(sp.Name, "query:") {
			continue
		}
		iv := interval{s0 + sp.StartNs, s0 + sp.StartNs + sp.DurNs}
		t.add(req, fanout, "inum."+sp.Name, iv.start, iv.end)
		queries = append(queries, iv)
		out.querySum += float64(sp.DurNs) / 1e3
	}
	root := interval{s0, s0 + dur.Nanoseconds()}
	out.unaccount = float64(selfTime(root, tops)) / 1e3
	if haveFan {
		out.fanoutSelf = float64(selfTime(fan, queries)) / 1e3
	}
	return out
}

// sampleServe files a request's server-reported top-level spans and
// their remainder as serve.span_* samples.
func (t *tracer) sampleServe(ss serverSpans) {
	for name, us := range ss.top {
		t.sample("serve.span_"+name+"_us", us)
	}
	t.sample("serve.span_unaccounted_us", ss.unaccount)
}

// tracedBody splits a traced compute response into its trace block and
// the body an untraced request would have produced.
func tracedBody(body []byte, resp any, clearTrace func() *obs.TraceView) (*obs.TraceView, []byte, error) {
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, nil, err
	}
	view := clearTrace()
	plain, err := serve.EncodeJSON(resp)
	return view, plain, err
}

// medians reduces the collected samples to one value per metric.
func (t *tracer) medians(into map[string]float64) {
	for name, vs := range t.samples {
		into[name] = median(vs)
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
