package plancache

import (
	"fmt"
	"io"
	"testing"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// wideTenant is the 200-query tenant of the benchmark's whatif-wide
// workload (and of inum's BenchmarkCostWide): 20 star query sets, seeds
// 1000–1019, over one catalog, built by the library's batch build.
type wideTenant struct {
	fp       uint64
	queries  []*query.Query
	analyses []*optimizer.Analysis
	caches   []*inum.Cache
}

func newWideTenant(tb testing.TB) *wideTenant {
	tb.Helper()
	star, err := workload.StarSchema(1.0)
	if err != nil {
		tb.Fatal(err)
	}
	w := &wideTenant{fp: Fingerprint(star.Catalog, star.Stats, optimizer.DefaultCostParams())}
	for k := int64(0); k < 20; k++ {
		set, err := star.Queries(1000 + k)
		if err != nil {
			tb.Fatal(err)
		}
		for i, q := range set {
			q.Name = fmt.Sprintf("S%d.Q%d", k+1, i+1)
		}
		w.queries = append(w.queries, set...)
	}
	w.analyses = make([]*optimizer.Analysis, len(w.queries))
	for i, q := range w.queries {
		if w.analyses[i], err = optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams()); err != nil {
			tb.Fatal(err)
		}
	}
	if w.caches, err = core.BuildAllSlim(w.analyses, star.Catalog, 0); err != nil {
		tb.Fatal(err)
	}
	return w
}

// firstEntries returns the tenant with every cache cut to its first entry.
func (w *wideTenant) firstEntries(tb testing.TB) *wideTenant {
	tb.Helper()
	out := *w
	out.caches = make([]*inum.Cache, len(w.caches))
	for i, c := range w.caches {
		internal, packed, coefs := c.Rows()
		r := len(c.Q.Rels)
		var err error
		if out.caches[i], err = inum.FromRows(c.A, internal[:1], packed[:r], coefs[:r]); err != nil {
			tb.Fatal(err)
		}
	}
	return &out
}

// A snapshotPath is one move between the cache's form and the snapshot's
// over a whole tenant.
type snapshotPath struct {
	name string
	run  func()
}

// snapshotPaths are the moves between the cache's form and the snapshot's
// that a tenant's loads make, each over the whole tenant: a save's
// NewSnapshot and Encode, a cold load's Decode and BuildCaches (apart, as
// the load phases are timed), and an incremental reload's reuse of an
// unchanged query (inum.FromRows over the previous cache's Rows).
func (w *wideTenant) snapshotPaths(tb testing.TB) []snapshotPath {
	tb.Helper()
	data := encodeToBytes(tb, NewSnapshot(w.fp, w.caches))
	snap, err := Decode(data)
	if err != nil {
		tb.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return []snapshotPath{
		{"encode", func() { check(Encode(io.Discard, NewSnapshot(w.fp, w.caches))) }},
		{"decode", func() { _, err := Decode(data); check(err) }},
		{"build", func() { _, err := BuildCaches(snap, w.queries, w.analyses); check(err) }},
		{"reuse", func() {
			for i, c := range w.caches {
				internal, packed, coefs := c.Rows()
				_, err := inum.FromRows(w.analyses[i], internal, packed, coefs)
				check(err)
			}
		}},
	}
}

// TestSnapshotPathAllocs holds the heap objects each snapshot path makes
// for the 200-query tenant (3 434 entries): a few per query, none per
// entry. Each path allocates exactly as much on a copy of the tenant cut to
// one entry per query, and stays within a fixed budget: a save (NewSnapshot
// + Encode) 1 000, a cold load (Decode + BuildCaches) 2 000, the reuse of
// every query by an incremental reload 1 500.
func TestSnapshotPathAllocs(t *testing.T) {
	full := newWideTenant(t)
	one := full.firstEntries(t).snapshotPaths(t)
	got := map[string]float64{}
	for k, p := range full.snapshotPaths(t) {
		got[p.name] = testing.AllocsPerRun(5, p.run)
		if oneEntry := testing.AllocsPerRun(5, one[k].run); oneEntry != got[p.name] {
			t.Errorf("%s: %.0f allocations for the tenant, %.0f with one entry per query: the path allocates per entry",
				p.name, got[p.name], oneEntry)
		}
	}
	for _, b := range []struct {
		path  string
		count float64
		limit float64
	}{
		{"save (NewSnapshot + Encode)", got["encode"], 1000},
		{"cold load (Decode + BuildCaches)", got["decode"] + got["build"], 2000},
		{"reuse (FromRows over Rows)", got["reuse"], 1500},
	} {
		if b.count > b.limit {
			t.Errorf("%s: %.0f allocations for the 200-query tenant, budget %.0f", b.path, b.count, b.limit)
		}
		t.Logf("%s: %.0f allocations", b.path, b.count)
	}
}

// BenchmarkSnapshotPaths times the snapshot paths TestSnapshotPathAllocs
// counts, over the 200-query tenant: encode (NewSnapshot + Encode), decode,
// build (BuildCaches over a decoded snapshot) and reuse (FromRows over every
// cache's Rows).
func BenchmarkSnapshotPaths(b *testing.B) {
	w := newWideTenant(b)
	for _, p := range w.snapshotPaths(b) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.run()
			}
		})
	}
}
