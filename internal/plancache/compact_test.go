package plancache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// compactReference is inum.Cache.Compact's definition checked naively, over
// every ordered pair of entries and their Cache.Leaf requirements, with
// no shipped compaction code: entry b is dropped when another entry a
// dominates it — a's internal cost and every coefficient ≤ b's, and on every
// relation a's leaf identity is b's, or a's is AccessAny where b's is
// AccessOrdered — and either b does not dominate a or a comes first. The
// kept entries fill a fresh cache over the same analysis, in cache order.
// The root package's facade test carries a twin of it.
func compactReference(t testing.TB, c *inum.Cache) *inum.Cache {
	t.Helper()
	n := len(c.Q.Rels)
	leaves := make([][]optimizer.LeafReq, len(c.Plans))
	for i := range c.Plans {
		for rel := 0; rel < n; rel++ {
			leaves[i] = append(leaves[i], c.Leaf(i, rel))
		}
	}
	dominates := func(a, b int) bool {
		if c.Plans[a] > c.Plans[b] {
			return false
		}
		for rel, la := range leaves[a] {
			lb := leaves[b][rel]
			same := la.Mode == lb.Mode && la.Col == lb.Col
			if la.Coef > lb.Coef || !same && (la.Mode != optimizer.AccessAny || lb.Mode != optimizer.AccessOrdered) {
				return false
			}
		}
		return true
	}
	_, packed, coefs := c.Rows()
	var keptInternal, keptCoefs []float64
	var keptPacked []uint16
	for j, b := range c.Plans {
		dropped := false
		for i := range c.Plans {
			if i != j && dominates(i, j) && (i < j || !dominates(j, i)) {
				dropped = true
				break
			}
		}
		if !dropped {
			keptInternal = append(keptInternal, b)
			keptPacked = append(keptPacked, packed[j*n:(j+1)*n]...)
			keptCoefs = append(keptCoefs, coefs[j*n:(j+1)*n]...)
		}
	}
	out, err := inum.FromRows(c.A, keptInternal, keptPacked, keptCoefs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactMatchesReferenceOnTies holds Compact's grouping to
// compactReference on seeded synthetic caches over real analyses (every
// workload.Shapes topology), built through FromRows with the tie structures
// no planner export is guaranteed to produce: many entries per projected
// row (each relation's leaf is drawn as AccessAny or an AccessOrdered
// identity over a few base rows, nested-loop lookups included), mixed
// ordered-relation sets, exact duplicates, and internal costs and
// coefficients drawn from three values each. Compact must keep exactly the
// reference's entries, in cache order: the two caches encode to the same
// bytes.
func TestCompactMatchesReferenceOnTies(t *testing.T) {
	seen, dropped := 0, 0
	for seed := int64(1); seed <= 45; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := workload.Shapes[int(seed)%len(workload.Shapes)]
		_, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: sh, Rels: 3 + rng.Intn(4), Density: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		r := len(q.Rels)
		pack := func(rel int, mode optimizer.AccessMode, col string) uint16 {
			pk, err := a.PackLeaf(rel, optimizer.LeafReq{Mode: mode, Col: col})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return pk
		}
		// A base row fixes each relation's projected leaf: AccessAny, whose
		// entries may read it in any interesting order, or a lookup.
		bases := make([][]string, 1+rng.Intn(4)) // "" = AccessAny, else the lookup's column
		for i := range bases {
			bases[i] = make([]string, r)
			for rel := range bases[i] {
				if cols := a.Rels[rel].Interesting; len(cols) > 0 && rng.Intn(4) == 0 {
					bases[i][rel] = cols[rng.Intn(len(cols))]
				}
			}
		}
		var internals, coefs []float64
		var packed []uint16
		for n := 40 + rng.Intn(160); len(internals) < n; {
			if len(internals) > 0 && rng.Intn(8) == 0 {
				j := rng.Intn(len(internals))
				internals = append(internals, internals[j])
				packed, coefs = append(packed, packed[j*r:(j+1)*r]...), append(coefs, coefs[j*r:(j+1)*r]...)
				continue
			}
			base := bases[rng.Intn(len(bases))]
			for rel, col := range base {
				cols := a.Rels[rel].Interesting
				switch {
				case col != "":
					packed = append(packed, pack(rel, optimizer.AccessLookup, col))
				case len(cols) > 0 && rng.Intn(2) == 0:
					packed = append(packed, pack(rel, optimizer.AccessOrdered, cols[rng.Intn(len(cols))]))
				default:
					packed = append(packed, pack(rel, optimizer.AccessAny, ""))
				}
				coefs = append(coefs, float64(rng.Intn(3)))
			}
			internals = append(internals, float64(100*(1+rng.Intn(3))))
		}
		c, err := inum.FromRows(a, internals, packed, coefs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in, err := inum.FromRows(a, internals, packed, coefs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Compact()
		want := compactReference(t, in)
		if got, was := encodeToBytes(t, NewSnapshot(1, []*inum.Cache{c})), encodeToBytes(t, NewSnapshot(1, []*inum.Cache{want})); !bytes.Equal(got, was) {
			t.Fatalf("seed %d (%s, %d relations, %d entries): Compact kept %d entries, the reference %d, or another order",
				seed, sh, r, len(internals), len(c.Plans), len(want.Plans))
		}
		seen, dropped = seen+len(internals), dropped+len(internals)-len(c.Plans)
	}
	t.Logf("%d of %d synthetic entries dominated", dropped, seen)
	if dropped == 0 {
		t.Fatal("no synthetic entry was dominated: the generator exercises nothing")
	}
}

// assertSameCosts requires exact cost bits from got and want under every
// configuration (both failing alike is agreement).
func assertSameCosts(t *testing.T, label string, got, want *inum.Cache, cfgs []*query.Config) {
	t.Helper()
	for ci, cfg := range cfgs {
		gc, _, gerr := got.Cost(cfg)
		wc, _, werr := want.Cost(cfg)
		if (gerr == nil) != (werr == nil) || math.Float64bits(gc) != math.Float64bits(wc) {
			t.Fatalf("%s cfg %d: cost %v (%v), uncompacted %v (%v)", label, ci, gc, gerr, wc, werr)
		}
	}
}

// TestNoCachedEntryDominated holds the library's compaction without an
// oracle for the kept set, on every workload.Shapes topology, coarse and
// precise, serial and paired: after a build no entry is dominated (the
// naive check drops nothing), the paired build is the serial one entry for
// entry, the build's cached and dominated plans add up to the plans it saw,
// it caches no more entries than the uncompacted reference construction
// (core.BuildAll), and under seeded configurations every cost is
// bit-identical to that reference's. The 17-relation chain —
// the wide key lane —, whose all-orders configuration no planner can
// export, goes through the workspace a build drives, under its head's
// indexes, and is held to the same export before Compact.
func TestNoCachedEntryDominated(t *testing.T) {
	for i, sh := range workload.Shapes {
		spec := workload.ShapeSpec{Shape: sh, Rels: 5, Density: 0.4, Seed: int64(500 + i)}
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		cfgs := append(workload.ShapeConfigs(rand.New(rand.NewSource(spec.Seed)), cat, q, 24), &query.Config{})
		for _, precise := range []bool{false, true} {
			label := fmt.Sprintf("%s/%d", sh, len(q.Rels))
			if precise {
				label += "/precise"
			}
			var serial, paired, ref *inum.Cache
			if len(q.Rels) > 16 {
				serial, paired, ref = exportHead(t, a, cat, precise)
			} else {
				refs, err := core.BuildAll([]*optimizer.Analysis{a}, cat, 1, precise)
				if err != nil {
					t.Fatal(err)
				}
				build := func(paired bool) *inum.Cache {
					c, err := core.Builder(precise, paired)(a, whatif.NewSession(cat))
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				serial, paired, ref = build(false), build(true), refs[0]
			}
			if n := len(compactReference(t, serial).Plans); n != len(serial.Plans) {
				t.Errorf("%s: %d of %d kept entries are dominated", label, len(serial.Plans)-n, len(serial.Plans))
			}
			if !bytes.Equal(encodeToBytes(t, NewSnapshot(1, []*inum.Cache{paired})), encodeToBytes(t, NewSnapshot(1, []*inum.Cache{serial}))) {
				t.Errorf("%s: the paired build's entries differ from the serial build's", label)
			}
			for _, c := range []*inum.Cache{serial, paired} {
				st := c.Stats
				if st.PlansCached != len(c.Plans) || st.PlansCached+st.PlansDominated != st.PlansSeen {
					t.Errorf("%s: %d entries, %d cached + %d dominated of %d seen",
						label, len(c.Plans), st.PlansCached, st.PlansDominated, st.PlansSeen)
				}
				if st.PlansCached > len(ref.Plans) {
					t.Errorf("%s: %d entries cached; the uncompacted cache has %d", label, st.PlansCached, len(ref.Plans))
				}
				if got, was := c.MemStats().EntryBytes, ref.MemStats().EntryBytes; got > was {
					t.Errorf("%s: compacted entries take %d bytes, uncompacted %d", label, got, was)
				}
				assertSameCosts(t, label, c, ref, cfgs)
			}
		}
	}
}

// exportHead builds a wide chain's cache as a build does — both calls'
// exports through one workspace, serial and paired, then Compact — under
// planConfig's head indexes. It returns the compacted serial and paired
// caches and the serial export uncompacted.
func exportHead(t *testing.T, a *optimizer.Analysis, cat *catalog.Catalog, precise bool) (serial, paired, raw *inum.Cache) {
	t.Helper()
	opts := []optimizer.Options{
		{ExportAll: true, PreciseNLJ: precise},
		{EnableNestLoop: true, ExportAll: true, PreciseNLJ: precise, PaperPrune: !precise},
	}
	export := func(run optimizer.Runner, compact bool) *inum.Cache {
		c := inum.NewCache(a)
		st, err := optimizer.NewWorkspace().Export(a, planConfig(cat, a.Q), opts, run, c.AddSummary)
		if err != nil {
			t.Fatal(err)
		}
		c.Stats.PlansSeen = st.PathsRetained
		if compact {
			c.Compact()
		}
		return c
	}
	pairCalls := func(n int, call func(int)) { core.Fan(n, 2, func() func(int) { return call }) }
	return export(nil, true), export(pairCalls, true), export(nil, false)
}

// TestPinumCacheNoLargerThanInum is the paper's E5 comparison as a property
// on the star workload's ten queries: once dominated entries are dropped,
// PINUM's two-call cache holds no more entries than conventional INUM's
// (inum.Build, one call per interesting order combination and nested-loop
// mode), query by query.
func TestPinumCacheNoLargerThanInum(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	var pinum, inumRaw, inumKept int
	for _, q := range qs {
		a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		pin, err := core.BuildSlim(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := inum.Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		in := compactReference(t, raw)
		pinum, inumRaw, inumKept = pinum+len(pin.Plans), inumRaw+len(raw.Plans), inumKept+len(in.Plans)
		if len(pin.Plans) > len(in.Plans) {
			t.Errorf("%s: PINUM keeps %d entries, INUM %d", q.Name, len(pin.Plans), len(in.Plans))
		}
	}
	t.Logf("star Q1–Q10: PINUM keeps %d entries, INUM %d of its %d", pinum, inumKept, inumRaw)
}
