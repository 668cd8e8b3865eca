package plancache

import (
	"bytes"
	"math"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// FuzzSnapshotDecode fuzzes the one parser a cold load feeds untrusted
// bytes — whatever is in the tenant's snapshot file. Decode must never
// panic; what it accepts must re-encode to exactly the bytes it read (the
// format has one encoding per snapshot, so nothing it accepts is
// ambiguous); every query of it that a seed's analysis can load
// (inum.FromRows, as BuildCaches binds it) prices a finite, non-negative
// cost under the empty configuration; when every query loads under its own
// SQL, the loaded caches' rows (Rows → NewSnapshot → Encode) reproduce the
// input bytes exactly; and changing any one byte of an accepted snapshot
// must be rejected, or — the checksum aside — hold to the same rules.
func FuzzSnapshotDecode(f *testing.F) {
	// Seeds are kept small — two of the star set's ten queries, two small
	// shapes — because every fuzz worker builds them again, instrumented.
	analyses := make(map[string]*optimizer.Analysis)
	encoded := func(cat *catalog.Catalog, st *stats.Store, queries ...*query.Query) []byte {
		var caches []*inum.Cache
		for _, q := range queries {
			a, err := optimizer.NewAnalysis(q, st, optimizer.DefaultCostParams())
			if err != nil {
				f.Fatal(err)
			}
			analyses[q.Name] = a
			c, err := core.BuildSlim(a, whatif.NewSession(cat))
			if err != nil {
				f.Fatal(err)
			}
			caches = append(caches, c)
		}
		return encodeToBytes(f, NewSnapshot(Fingerprint(cat, st, optimizer.DefaultCostParams()), caches))
	}
	s, err := workload.StarSchema(1.0)
	if err != nil {
		f.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encoded(s.Catalog, s.Stats, qs[:2]...), uint32(8), byte(0x40))
	for _, spec := range []workload.ShapeSpec{
		{Shape: workload.ShapeChain, Rels: 4, Seed: 5},
		{Shape: workload.ShapeClique, Rels: 4, Seed: 5},
	} {
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encoded(cat, nil, q), uint32(len(q.SQL)), byte(1))
	}
	f.Add([]byte("PINUMPC\x03"), uint32(0), byte(0))

	reencodes := func(t *testing.T, what string, data []byte) bool {
		snap, err := Decode(data)
		if err != nil {
			return false
		}
		var re bytes.Buffer
		if err := Encode(&re, snap); err != nil {
			t.Fatalf("%s: Decode accepted what Encode refuses: %v", what, err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("%s: accepted %d bytes that re-encode to %d different ones", what, len(data), re.Len())
		}
		var caches []*inum.Cache
		for _, qp := range snap.Queries {
			a := analyses[qp.Name]
			if a == nil || len(a.Q.Rels) != qp.NRels {
				continue
			}
			c, err := inum.FromRows(a, qp.Internal, qp.Slots, qp.Coefs)
			if err != nil {
				continue // fails to load
			}
			if cost, _, err := c.Cost(nil); err != nil || !(cost >= 0 && cost <= math.MaxFloat64) {
				t.Fatalf("%s: query %s loads but prices %v under the empty configuration (%v)", what, qp.Name, cost, err)
			}
			if qp.SQL == a.Q.SQL {
				caches = append(caches, c)
			}
		}
		if len(caches) == len(snap.Queries) {
			re.Reset()
			if err := Encode(&re, NewSnapshot(snap.Fingerprint, caches)); err != nil || !bytes.Equal(re.Bytes(), data) {
				t.Fatalf("%s: every query loads, but its caches' rows re-encode to %d different bytes (%v)", what, re.Len(), err)
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, flip byte) {
		if !reencodes(t, "input", data) || flip == 0 {
			return
		}
		mut := append([]byte(nil), data...)
		mut[int(pos)%len(mut)] ^= flip
		reencodes(t, "single-byte mutation", mut)
	})
}
