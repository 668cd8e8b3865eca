package plancache

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// wideTenant is the 200-query tenant of the benchmark's whatif-wide
// workload (and of inum's BenchmarkCostWide): 20 star query sets, seeds
// 1000–1019, over one catalog, built by the library's batch build.
type wideTenant struct {
	fp       uint64
	cat      *catalog.Catalog
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
	w := &wideTenant{fp: Fingerprint(star.Catalog, star.Stats, optimizer.DefaultCostParams()), cat: star.Catalog}
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
// + Encode) 210, a cold load (Decode + BuildCaches) 1 410, the reuse of
// every query by an incremental reload 610. A cache keeps the internal
// costs and coefficients it is bound to (inum.FromRows), so a build or a
// reuse allocates per query only the cache, its slot arena and, for a
// reuse, Rows' packed leaves.
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
		{"save (NewSnapshot + Encode)", got["encode"], 210},
		{"cold load (Decode + BuildCaches)", got["decode"] + got["build"], 1410},
		{"reuse (FromRows over Rows)", got["reuse"], 610},
	} {
		if b.count > b.limit {
			t.Errorf("%s: %.0f allocations for the 200-query tenant, budget %.0f", b.path, b.count, b.limit)
		}
		t.Logf("%s: %.0f allocations", b.path, b.count)
	}
}

// TestBuildCachesSharesTheSnapshot holds the sharing contract of a cold
// load: the caches BuildCaches binds keep the decoded snapshot's internal
// costs and coefficients as their arenas, so binding must write none of
// them. Two builds over one decoded snapshot of the 200-query tenant, as the
// benchmark's probes make, must price three random configurations per query
// bit-identically to each other and to the built tenant, with the same
// winning entry, and the snapshot must still encode to the bytes it was
// decoded from.
func TestBuildCachesSharesTheSnapshot(t *testing.T) {
	w := newWideTenant(t)
	data := encodeToBytes(t, NewSnapshot(w.fp, w.caches))
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var builds [2][]*inum.Cache
	for b := range builds {
		if builds[b], err = BuildCaches(snap, w.queries, w.analyses); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ws := whatif.NewSession(w.cat)
	for i, want := range w.caches {
		for k := 0; k < 3; k++ {
			cfg, err := workload.RandomAtomicConfig(rng, w.analyses[i], ws, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			wc, wi, err := want.Cost(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for b := range builds {
				gc, gi, err := builds[b][i].Cost(cfg)
				if err != nil || math.Float64bits(gc) != math.Float64bits(wc) || gi != wi {
					t.Fatalf("%s under %s: build %d prices %v (entry %d, %v), the built tenant %v (entry %d)",
						w.queries[i].Name, cfg, b, gc, gi, err, wc, wi)
				}
			}
		}
	}
	if got := encodeToBytes(t, snap); !bytes.Equal(got, data) {
		t.Fatalf("the snapshot re-encodes to %d bytes that differ from the %d it was decoded from", len(got), len(data))
	}
}

// TestBuildCachesRefusesEmptyQuery holds a load to one entry per query at
// least: a cache with none answers no configuration. The format can carry
// an empty query, so Decode accepts the 200-query tenant's snapshot with
// its first query's arrays emptied, and BuildCaches (and with it every cold
// load) refuses it, naming the query.
func TestBuildCachesRefusesEmptyQuery(t *testing.T) {
	w := newWideTenant(t)
	snap := NewSnapshot(w.fp, w.caches)
	qp := &snap.Queries[0]
	qp.Internal, qp.Packed, qp.Coefs = nil, nil, nil
	dec, err := Decode(encodeToBytes(t, snap))
	if err != nil {
		t.Fatalf("a query with no entries does not decode: %v", err)
	}
	if n := len(dec.Queries[0].Internal); n != 0 {
		t.Fatalf("the emptied query decodes with %d entries", n)
	}
	if _, err := BuildCaches(dec, w.queries, w.analyses); err == nil || !strings.Contains(err.Error(), "query "+qp.Name+" has no entries") {
		t.Fatalf("BuildCaches over a query with no entries: %v, want a refusal naming %s", err, qp.Name)
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
