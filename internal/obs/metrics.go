// Package obs is the serving stack's observability layer: a typed,
// stdlib-only metrics registry with Prometheus text exposition, a
// context-carried request trace, and a fixed-size operational event log.
//
// Recording is lock-free: handles (Counter, Gauge, Histogram) are
// resolved once at registration time and record through atomics, so the
// request hot path never takes the registry lock — the lock only guards
// registration and scrape-time iteration. Exposition is deterministic:
// families and series render in sorted order, and values format through
// strconv with fixed precision rules, so two scrapes of the same
// recorded state are byte-identical (the golden exposition test pins
// this).
package obs

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label at a registration site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// ------------------------------------------------------------ handles --

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and never allocate.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//pinum:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down, stored as atomic
// float bits. All methods are safe for concurrent use and never
// allocate.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//pinum:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the number of finite histogram buckets; one
// overflow bucket (+Inf) sits past them.
const HistogramBuckets = 16

// BucketBounds are the fixed log-scale latency bucket upper bounds in
// seconds: 100µs doubling per bucket up to ~3.28s. Doubling a float is
// exact, so every bound formats cleanly in the exposition. A value v
// lands in the first bucket with v <= bound; past the last bound it
// lands in the +Inf overflow bucket.
var BucketBounds = func() [HistogramBuckets]float64 {
	var b [HistogramBuckets]float64
	v := 1e-4
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram (see BucketBounds) with
// a running sum and count. Observe is lock-free and allocation-free; the
// sum is maintained with a CAS loop over float bits.
type Histogram struct {
	counts [HistogramBuckets + 1]atomic.Int64 // last slot is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value (seconds, for latency histograms).
//
//pinum:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < HistogramBuckets && v > BucketBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCount reads bucket i's (non-cumulative) count; i equal to
// HistogramBuckets reads the +Inf overflow bucket.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// ----------------------------------------------------------- registry --

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family. Exactly one of the
// value fields is set, matching the family's kind.
type series struct {
	labels  string // rendered sorted label set, `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family is one metric name with its help text, kind and series.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is idempotent: the same (name, label set) returns the
// same handle, so call sites need no caching discipline. Registering a
// name under two different kinds panics — that is a programming error,
// not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	sr := r.getSeries(name, help, kindCounter, labels)
	return sr.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	sr := r.getSeries(name, help, kindGauge, labels)
	return sr.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (fn must be safe to call from any goroutine).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	sr := r.getSeries(name, help, kindGauge, labels)
	sr.gaugeFn = fn
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	sr := r.getSeries(name, help, kindHistogram, labels)
	return sr.hist
}

// OnScrape registers a hook run at the start of every WriteText — the
// place to refresh pull-style gauges (runtime memory stats) exactly once
// per scrape instead of per series.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

func (r *Registry) getSeries(name, help string, k kind, labels []Label) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != k {
		panic("obs: metric " + name + " registered as " + fam.kind.String() + " and " + k.String())
	}
	sr := fam.series[key]
	if sr == nil {
		sr = &series{labels: key}
		switch k {
		case kindCounter:
			sr.counter = &Counter{}
		case kindGauge:
			sr.gauge = &Gauge{}
		case kindHistogram:
			sr.hist = &Histogram{}
		}
		fam.series[key] = sr
	}
	return sr
}

// renderLabels renders a sorted, escaped label set: `{k="v",k2="v2"}`,
// or "" for no labels. Sorting here is what makes the exposition — and
// registration idempotence — independent of the call site's label order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes for label
// values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the Prometheus text-format escapes for HELP lines:
// backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label set,
// histograms as cumulative _bucket/_sum/_count series. Scrape hooks run
// first, outside the lock, so they may Set gauges freely.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.onScrape))
	copy(hooks, r.onScrape)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		writeFamily(&buf, r.families[name])
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeFamily renders one family's HELP/TYPE header and every series in
// sorted label order.
func writeFamily(buf *bytes.Buffer, fam *family) {
	buf.WriteString("# HELP ")
	buf.WriteString(fam.name)
	buf.WriteByte(' ')
	buf.WriteString(escapeHelp(fam.help))
	buf.WriteString("\n# TYPE ")
	buf.WriteString(fam.name)
	buf.WriteByte(' ')
	buf.WriteString(fam.kind.String())
	buf.WriteByte('\n')
	var keys []string
	for key := range fam.series {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sr := fam.series[key]
		switch fam.kind {
		case kindCounter:
			writeSample(buf, fam.name, "", sr.labels, formatInt(sr.counter.Value()))
		case kindGauge:
			v := sr.gauge.Value()
			if sr.gaugeFn != nil {
				v = sr.gaugeFn()
			}
			writeSample(buf, fam.name, "", sr.labels, formatFloat(v))
		case kindHistogram:
			writeHistogram(buf, fam.name, sr)
		}
	}
}

// writeHistogram renders one histogram series: cumulative buckets with
// an le label, then _sum and _count.
func writeHistogram(buf *bytes.Buffer, name string, sr *series) {
	cum := int64(0)
	for i := 0; i < HistogramBuckets; i++ {
		cum += sr.hist.BucketCount(i)
		writeSample(buf, name, "_bucket", labelsWithLe(sr.labels, formatFloat(BucketBounds[i])), formatInt(cum))
	}
	total := sr.hist.Count()
	writeSample(buf, name, "_bucket", labelsWithLe(sr.labels, "+Inf"), formatInt(total))
	writeSample(buf, name, "_sum", sr.labels, formatFloat(sr.hist.Sum()))
	writeSample(buf, name, "_count", sr.labels, formatInt(total))
}

// labelsWithLe splices an le="bound" label onto a rendered label set.
func labelsWithLe(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func writeSample(buf *bytes.Buffer, name, suffix, labels, value string) {
	buf.WriteString(name)
	buf.WriteString(suffix)
	buf.WriteString(labels)
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float the shortest way that round-trips —
// deterministic for a given bit pattern, which is all the golden test
// needs.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
