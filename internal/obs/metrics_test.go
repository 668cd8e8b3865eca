package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBucketBounds pins the bucket ladder itself: 16 bounds, 100µs
// doubling each step, every doubling exact.
func TestBucketBounds(t *testing.T) {
	if len(BucketBounds) != HistogramBuckets {
		t.Fatalf("got %d bounds, want %d", len(BucketBounds), HistogramBuckets)
	}
	if BucketBounds[0] != 1e-4 {
		t.Fatalf("first bound = %v, want 1e-4", BucketBounds[0])
	}
	for i := 1; i < HistogramBuckets; i++ {
		if BucketBounds[i] != 2*BucketBounds[i-1] {
			t.Fatalf("bound %d = %v, want exactly double %v", i, BucketBounds[i], BucketBounds[i-1])
		}
	}
}

// TestHistogramBucketMath pins the boundary rule (le is inclusive: a
// value exactly on a bound lands in that bound's bucket), the first and
// last buckets, and the +Inf overflow bucket.
func TestHistogramBucketMath(t *testing.T) {
	var h Histogram
	for i, bound := range BucketBounds {
		h.Observe(bound)
		if got := h.BucketCount(i); got != 1 {
			t.Fatalf("Observe(bound %d = %v) landed elsewhere: bucket count %d", i, bound, got)
		}
	}
	// A hair above each bound falls to the next bucket (the last bound's
	// next bucket is the overflow).
	var h2 Histogram
	for i, bound := range BucketBounds {
		h2.Observe(math.Nextafter(bound, math.Inf(1)))
		want := i + 1
		if got := h2.BucketCount(want); got != 1 {
			t.Fatalf("Observe(just above bound %d) missed bucket %d: count %d", i, want, got)
		}
	}
	// Zero and negative values land in the first bucket; huge values in
	// the overflow.
	var h3 Histogram
	h3.Observe(0)
	h3.Observe(-1)
	if got := h3.BucketCount(0); got != 2 {
		t.Fatalf("zero/negative observations: first bucket count %d, want 2", got)
	}
	h3.Observe(1e9)
	if got := h3.BucketCount(HistogramBuckets); got != 1 {
		t.Fatalf("1e9 observation: overflow bucket count %d, want 1", got)
	}
	if h3.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h3.Count())
	}
}

// TestHistogramSumMax pins the CAS-maintained sum and the count (the max it
// is named after went with its only reader).
func TestHistogramSumMax(t *testing.T) {
	var h Histogram
	vals := []float64{0.001, 0.25, 0.003, 0.1}
	want := 0.0
	for _, v := range vals {
		h.Observe(v)
		want += v
	}
	if h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(vals))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines —
// run under -race, it is the data-race check for the lock-free recording
// path; its assertions pin that no observation is lost or double-counted
// under contention.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations over several buckets, same value set
				// per goroutine so the expected sum is order-independent.
				h.Observe(BucketBounds[i%4])
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("Count = %d, want %d", h.Count(), goroutines*perG)
	}
	var bucketTotal int64
	for i := 0; i <= HistogramBuckets; i++ {
		bucketTotal += h.BucketCount(i)
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, goroutines*perG)
	}
	// Every add is atomic (CAS of old+v), so the final sum equals a serial
	// accumulation of the same multiset in any order of equal addends.
	want := 0.0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			want += BucketBounds[i%4]
		}
	}
	// Equal-magnitude interleavings can differ in rounding; allow 1 ulp
	// per operation of drift.
	if diff := math.Abs(h.Sum() - want); diff > 1e-9*want {
		t.Fatalf("Sum = %v, want ~%v (diff %v)", h.Sum(), want, diff)
	}
}

// TestRegistryIdempotent pins handle identity: the same (name, labels)
// returns the same handle regardless of label order, and a kind
// mismatch panics loudly.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("same name+labels in different order returned distinct handles")
	}
	c := r.Counter("x_total", "x", L("a", "other"))
	if a == c {
		t.Fatal("distinct label values shared a handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two kinds did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestExpositionGolden pins the Prometheus text exposition byte for
// byte: family and series ordering, label escaping, histogram
// bucket/sum/count rendering, and float formatting. Regenerate with
// `go test ./internal/obs -run Golden -update` after an intentional
// format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	whatif := r.Counter("pinum_test_requests_total", "Requests received.", L("endpoint", "/whatif"))
	for i := 0; i < 3; i++ {
		whatif.Inc()
	}
	r.Counter("pinum_test_requests_total", "Requests received.", L("endpoint", "/readyz")).Inc()
	r.Gauge("pinum_test_heap_bytes", "Resident heap bytes.").Set(12345.5)
	r.GaugeFunc("pinum_test_workers", "Configured workers.", func() float64 { return 8 })
	r.Counter("pinum_test_escapes_total", "Escaping: backslash \\ and newline\nsurvive.",
		L("path", `C:\tmp`), L("quote", `say "hi"`)).Inc()
	h := r.Histogram("pinum_test_latency_seconds", "Request latency.", L("endpoint", "/whatif"))
	h.Observe(0.0001)  // first bucket (le inclusive)
	h.Observe(0.00025) // 0.0004 bucket
	h.Observe(0.5)     // 0.8192 bucket
	h.Observe(10)      // +Inf overflow
	scrapes := 0
	r.OnScrape(func() { scrapes++ })

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if scrapes != 1 {
		t.Fatalf("scrape hook ran %d times, want 1", scrapes)
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}

	// Determinism: a second scrape of unchanged state is byte-identical.
	var again bytes.Buffer
	if err := r.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two scrapes of identical state rendered different bytes")
	}
}

// TestRecordingAllocFree pins the hot-path contract the //pinum:hotpath
// annotations in metrics.go declare: recording on pre-registered handles
// never allocates.
func TestRecordingAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h")
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 3; i++ {
			c.Inc()
		}
		g.Set(1.5)
		h.Observe(0.01)
	}); n != 0 {
		t.Fatalf("recording allocated %v times per op, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
