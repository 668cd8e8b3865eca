package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// designShapes are the eight shape queries the design-batch benchmark
// workload builds caches for (benchmark/w_batch.go), spec for spec.
var designShapes = []struct {
	label string
	spec  workload.ShapeSpec
}{
	{"chain7", workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: 42}},
	{"snowflake7", workload.ShapeSpec{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 42}},
	{"star7", workload.ShapeSpec{Shape: workload.ShapeStar, Rels: 7, Seed: 42}},
	{"clique5", workload.ShapeSpec{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: 42}},
	{"random6", workload.ShapeSpec{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 42}},
	{"cycle6", workload.ShapeSpec{Shape: workload.ShapeCycle, Rels: 6, Seed: 42}},
	{"wide-orders", workload.ShapeSpec{Shape: workload.ShapeWideOrders, Seed: 42}},
	{"wide-group", workload.ShapeSpec{Shape: workload.ShapeWideGroup, Seed: 42}},
}

// buildSlimShape returns a closure building the slim cache of one design
// shape from a fresh analysis with build — BuildSlim is the unit the
// benchmark's core.build_slim_ms.* probes time.
func buildSlimShape(tb testing.TB, spec workload.ShapeSpec, build BuildFunc) func() {
	tb.Helper()
	cat, q, err := workload.ShapeQuery(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err == nil {
			_, err = build(a, whatif.NewSession(cat))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkBuildSlimShapes(b *testing.B) {
	for _, s := range designShapes {
		build := buildSlimShape(b, s.spec, BuildSlim)
		b.Run(s.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}

// BenchmarkCompactShapes times the compaction a build ends with
// (inum.Cache.Compact) on each design shape's uncompacted reference cache
// (Build). One op is eight passes, one per shape, each one Compact of a
// fresh copy (inum.FromRows over the reference's rows); ns/op is their sum
// and <shape>-ns the shape's own pass, timed alone. The copies are made
// outside the timer in batches of about compactBatchBytes, each batch after
// one collection, so a cycle the copies' garbage would start is not charged
// to a pass. One op rather than one sub-benchmark per shape keeps a default
// run to one benchtime. The first run logs each shape's entries and entry
// bytes before and after.
func BenchmarkCompactShapes(b *testing.B) {
	const compactBatchBytes = 8 << 20
	type shape struct {
		label    string
		ref      *inum.Cache
		internal []float64
		slots    []uint16
		coefs    []float64
		elapsed  time.Duration
		kept     *inum.Cache
	}
	shapes := make([]*shape, len(designShapes))
	opBytes := int64(1)
	for k, s := range designShapes {
		cat, q, err := workload.ShapeQuery(s.spec)
		if err != nil {
			b.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		ref, err := Build(a, whatif.NewSession(cat))
		if err != nil {
			b.Fatal(err)
		}
		sh := &shape{label: s.label, ref: ref}
		sh.internal, sh.slots, sh.coefs = ref.Rows()
		shapes[k] = sh
		opBytes += ref.MemStats().EntryBytes
	}
	perBatch := max(1, int(compactBatchBytes/opBytes))
	var batch [][]*inum.Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(batch) == 0 {
			b.StopTimer()
			for len(batch) < min(perBatch, b.N-i) {
				op := make([]*inum.Cache, len(shapes))
				for k, sh := range shapes {
					c, err := inum.FromRows(sh.ref.A, sh.internal, sh.slots, sh.coefs)
					if err != nil {
						b.Fatal(err)
					}
					op[k] = c
				}
				batch = append(batch, op)
			}
			runtime.GC()
			b.StartTimer()
		}
		op := batch[len(batch)-1]
		batch = batch[:len(batch)-1]
		for k, sh := range shapes {
			start := time.Now()
			op[k].Compact()
			sh.elapsed += time.Since(start)
			sh.kept = op[k]
		}
	}
	for _, sh := range shapes {
		b.ReportMetric(float64(sh.elapsed.Nanoseconds())/float64(b.N), sh.label+"-ns")
	}
	compactShapesLogged.Do(func() {
		for _, sh := range shapes {
			b.Logf("%-11s %4d entries, %4d kept, %6d B before, %6d B after", sh.label,
				len(sh.ref.Plans), len(sh.kept.Plans), sh.ref.MemStats().EntryBytes, sh.kept.MemStats().EntryBytes)
		}
	})
}

var compactShapesLogged sync.Once

// allocsPer runs f once to warm up, then runs times more, and returns the
// objects and bytes one run allocated on average (testing.AllocsPerRun's
// method, with the bytes beside the count).
func allocsPer(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBuildSlimAllocationBudget holds what a slim build allocates. One-shot
// builds (a fresh workspace each, as BuildSlim makes), serial and paired:
// random6, where nine join candidates in ten are dedup losses and the packed
// key lane keeps every plan as a pointer-free record, and wide-orders, where
// the wide lane dedups on the candidate's key bytes (one string per slot).
// Neither builds a Path: the cache takes summaries read off the records. A
// serial one-shot build cannot go below its larger call's record arena, key
// arena and slot arrays — the arenas grow by blocks, without the copies a
// doubling slice leaves behind —, a paired one below both calls' at once,
// each on its own planner. The steady state is the star case: the
// 200 queries of the benchmark's whatif-wide tenant on one worker (a batch
// too wide to pair), whose workspace is warm after the first few, leaving
// the what-if configuration and the cache itself. A ceiling crossed means
// some per-candidate or per-plan allocation is back.
func TestBuildSlimAllocationBudget(t *testing.T) {
	for _, b := range []struct {
		label          string
		paired         bool
		objects, bytes float64    // ceilings per build
		was            [2]float64 // when set
		before         [2]float64 // serial, arenas grown by doubling and copying
	}{
		{"random6", false, 2200, 2460 << 10, [2]float64{1753, 2.04e6}, [2]float64{1807, 2.83e6}},
		{"wide-orders", false, 3800, 1440 << 10, [2]float64{3057, 1.21e6}, [2]float64{3057, 1.29e6}},
		{"random6", true, 2600, 3990 << 10, [2]float64{2032, 3.31e6}, [2]float64{1807, 2.83e6}},
		{"wide-orders", true, 4500, 1640 << 10, [2]float64{3611, 1.34e6}, [2]float64{3057, 1.29e6}},
	} {
		var spec workload.ShapeSpec
		for _, s := range designShapes {
			if s.label == b.label {
				spec = s.spec
			}
		}
		label := fmt.Sprintf("%s paired=%v", b.label, b.paired)
		// BuildSlim with its budget fixed: allocsPer runs at GOMAXPROCS 1.
		oneShot := func(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) {
			return Builder(false, b.paired)(a, ws)
		}
		objects, bytes := allocsPer(3, buildSlimShape(t, spec, oneShot))
		t.Logf("%s: %.0f objects, %.0f bytes per build (ceilings %.0f, %.0f; %.0f when set; %.0f before)", label, objects, bytes, b.objects, b.bytes, b.was, b.before)
		if objects > b.objects || bytes > b.bytes {
			t.Errorf("%s: %.0f objects, %.0f bytes per build; ceilings %.0f, %.0f", label, objects, bytes, b.objects, b.bytes)
		}
	}

	s, analyses := starSetAnalyses(t)
	sets := [][]*optimizer.Analysis{analyses(), analyses(), analyses()} // fresh per build, as a reload's are
	n := float64(len(sets[0]))
	objects, bytes := allocsPer(len(sets)-1, func() {
		if _, err := BuildAllSlim(sets[0], s.Catalog, 1); err != nil {
			t.Fatal(err)
		}
		sets = sets[1:]
	})
	t.Logf("star set, one worker: %.0f objects, %.0f bytes per query (ceilings 180, 20 KB; 138 and 15.7 KB when set; 151 and 18.1 KB before)", objects/n, bytes/n)
	if objects/n > 180 || bytes/n > 20<<10 {
		t.Errorf("star set: %.0f objects, %.0f bytes per query on a warm worker; ceilings 180 and 20 KB", objects/n, bytes/n)
	}
}

// starSetAnalyses returns a constructor of fresh analyses for the 200 star
// queries of the benchmark's whatif-wide tenant (20 query sets, seeds
// 1000–1019, over one catalog; benchmark/env.go).
func starSetAnalyses(tb testing.TB) (*workload.Star, func() []*optimizer.Analysis) {
	tb.Helper()
	s := mustStar(tb)
	var queries []*query.Query
	for seed := int64(1000); seed < 1020; seed++ {
		set, err := s.Queries(seed)
		if err != nil {
			tb.Fatal(err)
		}
		queries = append(queries, set...)
	}
	return s, func() []*optimizer.Analysis {
		out := make([]*optimizer.Analysis, len(queries))
		for i, q := range queries {
			out[i] = analyze(tb, s, q)
		}
		return out
	}
}

// BenchmarkBuildAllSlimStar is the build whatif-wide's build_p50_ms times:
// the 200-query star set through BuildAllSlim, analyses fresh per build as a
// reload's are. -benchmem reads bytes and objects per 200-query build.
func BenchmarkBuildAllSlimStar(b *testing.B) {
	s, analyses := starSetAnalyses(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		as := analyses()
		b.StartTimer()
		if _, err := BuildAllSlim(as, s.Catalog, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAllSlimWorkersAgree builds the first 60 star-set queries with
// one, two and eight workers — each worker's queries through its own
// workspace, in whatever order it claimed them — and one by one through
// BuildSlim: the four cache sets must encode to the same snapshot bytes.
// Under -race this is also the check that no two workers share a workspace.
func TestBuildAllSlimWorkersAgree(t *testing.T) {
	s, analyses := starSetAnalyses(t)
	encode := func(caches []*inum.Cache) []byte {
		var buf bytes.Buffer
		if err := plancache.Encode(&buf, plancache.NewSnapshot(1, caches)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	as := analyses()[:60]
	oneShot := make([]*inum.Cache, len(as))
	for i, a := range as {
		var err error
		if oneShot[i], err = BuildSlim(a, whatif.NewSession(s.Catalog)); err != nil {
			t.Fatal(err)
		}
	}
	want := encode(oneShot)
	for _, workers := range []int{1, 2, 8} {
		caches, err := BuildAllSlim(analyses()[:60], s.Catalog, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(caches); !bytes.Equal(got, want) {
			t.Errorf("%d workers: %d snapshot bytes differ from the %d of one-shot builds", workers, len(got), len(want))
		}
	}
}
