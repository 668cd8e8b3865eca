package plancache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// selfJoinQuery joins dim1_1 to itself so one table owns two relation
// slots with different requirements — the case that historically broke
// per-table assumptions.
func selfJoinQuery(t *testing.T, s *workload.Star, name, orderCol string) *query.Query {
	t.Helper()
	d := s.Catalog.Table("dim1_1")
	if d == nil {
		t.Fatal("no dim1_1 table")
	}
	q := &query.Query{
		Name: name,
		Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
		Joins: []query.Join{{
			Left:  query.ColRef{Rel: 0, Column: "a1"},
			Right: query.ColRef{Rel: 1, Column: "id"},
		}},
		Filters: []query.Filter{{
			Col: query.ColRef{Rel: 0, Column: "a2"}, Op: query.Between, Value: 1, Value2: 1000,
		}},
		Select:  []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
		OrderBy: []query.ColRef{{Rel: 1, Column: orderCol}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

// roundTrip pushes a cache through the full persistence pipeline —
// NewSnapshot → Encode → Decode → inum.FromRows — and returns the reloaded
// cache over a fresh analysis of the same query.
func roundTrip(t *testing.T, c *inum.Cache, st *stats.Store) *inum.Cache {
	t.Helper()
	snap := NewSnapshot(0, []*inum.Cache{c})
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(c.Q, st, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	qp := dec.Queries[0]
	out, err := inum.FromRows(a, qp.Internal, qp.Packed, qp.Coefs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertCacheEquivalent prices the reference construction's cache (tree,
// core.Build's: filled from Path trees, then compactReference's, since a
// library build drops dominated entries) and another under the
// configurations and requires exact cost bits, identical winning-plan
// positions, and a bit-equal empty-configuration slot table read through
// the same slot by every plan leaf.
func assertCacheEquivalent(t *testing.T, label string, tree, other *inum.Cache, cfgs []*query.Config) {
	t.Helper()
	if len(tree.Plans) != len(other.Plans) {
		t.Fatalf("%s: %d reference plans vs %d", label, len(tree.Plans), len(other.Plans))
	}
	assertLeavesRoundTrip(t, label+" (reference)", tree)
	assertLeavesRoundTrip(t, label, other)
	ts, os := tree.A.PriceLeafSlots(nil, nil), other.A.PriceLeafSlots(nil, nil)
	if len(ts) != len(os) {
		t.Fatalf("%s: empty slot tables of %d vs %d slots", label, len(ts), len(os))
	}
	for i := range ts {
		if math.Float64bits(ts[i]) != math.Float64bits(os[i]) {
			t.Fatalf("%s: empty slot %d bits differ: %v vs %v", label, i, ts[i], os[i])
		}
	}
	n := len(tree.Q.Rels)
	_, tpks, _ := tree.Rows()
	_, opks, _ := other.Rows()
	for i := range tree.Plans {
		if math.Float64bits(tree.Plans[i]) != math.Float64bits(other.Plans[i]) {
			t.Fatalf("%s plan %d: internal bits differ", label, i)
		}
		if tree.Combo(i).Key() != other.Combo(i).Key() {
			t.Fatalf("%s plan %d: combo differs: %v vs %v", label, i, tree.Combo(i), other.Combo(i))
		}
		for rel := 0; rel < n; rel++ {
			if tree.Leaf(i, rel) != other.Leaf(i, rel) {
				t.Fatalf("%s plan %d leaf %d: %+v vs %+v", label, i, rel, tree.Leaf(i, rel), other.Leaf(i, rel))
			}
		}
		tpk, opk := tpks[i*n:(i+1)*n], opks[i*n:(i+1)*n]
		for rel := range tpk {
			if tree.A.LeafSlot(rel, tpk[rel]) != other.A.LeafSlot(rel, opk[rel]) {
				t.Fatalf("%s plan %d leaf %d: slot %d vs %d", label, i, rel,
					tree.A.LeafSlot(rel, tpk[rel]), other.A.LeafSlot(rel, opk[rel]))
			}
		}
	}
	for ci, cfg := range cfgs {
		tc, tp, terr := tree.Cost(cfg)
		oc, op, oerr := other.Cost(cfg)
		if (terr == nil) != (oerr == nil) {
			t.Fatalf("%s cfg %d: error mismatch: %v vs %v", label, ci, terr, oerr)
		}
		if terr != nil {
			continue
		}
		if math.Float64bits(tc) != math.Float64bits(oc) {
			t.Fatalf("%s cfg %d: cost bits differ: %v vs %v", label, ci, tc, oc)
		}
		if tp != op {
			t.Fatalf("%s cfg %d: winning plan %d vs %d", label, ci, tp, op)
		}
	}
}

// assertLeavesRoundTrip takes a cache's leaves across the boundary the
// snapshot codec uses and back: Rows → FromRows into a fresh cache over
// the same analysis must reproduce every leaf (the arena stores slot
// indexes, the boundary speaks packed identities). That an entry AddPath
// made holds the requirements its path summarises to is inum's
// TestAddPathLeavesMatchSummary.
func assertLeavesRoundTrip(t *testing.T, label string, c *inum.Cache) {
	t.Helper()
	internal, pks, coefs := c.Rows()
	fresh, err := inum.FromRows(c.A, internal, pks, coefs)
	if err != nil {
		t.Fatalf("%s: re-adding its own packed leaves: %v", label, err)
	}
	_, fpks, _ := fresh.Rows()
	n := len(c.Q.Rels)
	for i := range c.Plans {
		for rel := 0; rel < n; rel++ {
			k := i*n + rel
			if fpks[k] != pks[k] || fresh.Leaf(i, rel) != c.Leaf(i, rel) {
				t.Fatalf("%s plan %d leaf %d: %#04x %+v came back as %#04x %+v",
					label, i, rel, pks[k], c.Leaf(i, rel), fpks[k], fresh.Leaf(i, rel))
			}
		}
	}
}

// TestSlimTreeCostEquivalence pins the construction's guarantee on the
// star workload plus self-joins: the library's build (core.BuildSlim, from
// the planner's export summaries, compacted) and a snapshot-roundtripped
// load hold the reference construction's entries (core.Build, from Path
// trees) minus exactly the dominated ones (compactReference), and answer
// Cost (and the empty slot table) bit-identically to them.
func TestSlimTreeCostEquivalence(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs, selfJoinQuery(t, s, "SJ-a", "a2"), selfJoinQuery(t, s, "SJ-b", "a3"))
	rng := rand.New(rand.NewSource(99))
	for _, q := range qs {
		a1, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		a2, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.Build(a1, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		tree = compactReference(t, tree)
		slim, err := core.BuildSlim(a2, whatif.NewSession(s.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, slim, s.Stats)

		ws := whatif.NewSession(s.Catalog)
		cfgs := []*query.Config{{}}
		for i := 0; i < 25; i++ {
			cfg, err := workload.RandomAtomicConfig(rng, a1, ws, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
		}
		assertCacheEquivalent(t, q.Name+" slim", tree, slim, cfgs)
		assertCacheEquivalent(t, q.Name+" loaded", tree, loaded, cfgs)
	}
}

// TestSlimTreeShapeEquivalence re-pins the guarantee across every join
// topology the shape generator produces.
func TestSlimTreeShapeEquivalence(t *testing.T) {
	specs := []workload.ShapeSpec{
		{Shape: workload.ShapeChain, Rels: 4, Seed: 5},
		{Shape: workload.ShapeChain, Rels: 7, Seed: 5},
		{Shape: workload.ShapeCycle, Rels: 6, Seed: 5},
		{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 5},
		{Shape: workload.ShapeStar, Rels: 6, Seed: 5},
		{Shape: workload.ShapeClique, Rels: 5, Seed: 5},
		{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 5},
	}
	rng := rand.New(rand.NewSource(7))
	for _, spec := range specs {
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s/%d", spec.Shape, spec.Rels)
		a1, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		a2, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.Build(a1, whatif.NewSession(cat))
		if err != nil {
			t.Fatal(err)
		}
		tree = compactReference(t, tree)
		slim, err := core.BuildSlim(a2, whatif.NewSession(cat))
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, slim, nil)
		cfgs := workload.ShapeConfigs(rng, cat, q, 10)
		cfgs = append(cfgs, &query.Config{})
		assertCacheEquivalent(t, label+" slim", tree, slim, cfgs)
		assertCacheEquivalent(t, label+" loaded", tree, loaded, cfgs)
	}
}

// TestAdvisorSlimTreeEquivalence runs the full greedy search over the
// caches of the advisor's own AddQueries path, of one-shot core.BuildSlim
// builds and of their snapshot round trips, and requires results identical
// to a run over the reference construction's caches (core.BuildAll, filled
// from Path trees, with the dominated entries dropped by compactReference;
// advisor's TestRunMatchesReferenceSelfJoinMix holds the greedy loop to the
// full-repricing oracle on this workload).
func TestAdvisorSlimTreeEquivalence(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs[:6], selfJoinQuery(t, s, "SJ-a", "a2"), selfJoinQuery(t, s, "SJ-b", "a3"))
	weights := make([]float64, len(qs))
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}

	buildSlimCaches := func() ([]*optimizer.Analysis, []*inum.Cache) {
		analyses := make([]*optimizer.Analysis, len(qs))
		caches := make([]*inum.Cache, len(qs))
		for i, q := range qs {
			a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.BuildSlim(a, whatif.NewSession(s.Catalog))
			if err != nil {
				t.Fatal(err)
			}
			analyses[i], caches[i] = a, c
		}
		return analyses, caches
	}

	runOver := func(label string, analyses []*optimizer.Analysis, caches []*inum.Cache) *advisor.Result {
		ad := advisor.New(s.Catalog, s.Stats, storage.BytesForGB(4))
		for i, q := range qs {
			if err := ad.AddPrepared(q, analyses[i], caches[i], weights[i]); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		res, err := ad.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}

	// Ground truth: the reference construction's caches.
	analyses, slims := buildSlimCaches()
	refs, err := core.BuildAll(analyses, s.Catalog, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range refs {
		refs[i] = compactReference(t, c)
	}
	want := runOver("reference", analyses, refs)

	assertSame := func(label string, got *advisor.Result) {
		t.Helper()
		if len(got.Chosen) != len(want.Chosen) {
			t.Fatalf("%s: %d picks vs %d", label, len(got.Chosen), len(want.Chosen))
		}
		for i := range got.Chosen {
			if got.Chosen[i].Key() != want.Chosen[i].Key() {
				t.Fatalf("%s pick %d: %s vs %s", label, i, got.Chosen[i].Key(), want.Chosen[i].Key())
			}
		}
		if math.Float64bits(got.BaseCost) != math.Float64bits(want.BaseCost) ||
			math.Float64bits(got.FinalCost) != math.Float64bits(want.FinalCost) {
			t.Fatalf("%s: base/final cost bits differ: %v/%v vs %v/%v",
				label, got.BaseCost, got.FinalCost, want.BaseCost, want.FinalCost)
		}
		for name, w := range want.PerQuery {
			g := got.PerQuery[name]
			if math.Float64bits(g[0]) != math.Float64bits(w[0]) ||
				math.Float64bits(g[1]) != math.Float64bits(w[1]) {
				t.Fatalf("%s %s: per-query bits differ: %v vs %v", label, name, g, w)
			}
		}
		if got.Rounds != want.Rounds || got.TotalBytes != want.TotalBytes {
			t.Fatalf("%s: rounds/bytes differ: %d/%d vs %d/%d",
				label, got.Rounds, got.TotalBytes, want.Rounds, want.TotalBytes)
		}
	}

	ad := advisor.New(s.Catalog, s.Stats, storage.BytesForGB(4))
	if err := ad.AddQueries(qs, weights); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertSame("AddQueries", got)
	assertSame("slim", runOver("slim", analyses, slims))

	loaded := make([]*inum.Cache, len(slims))
	for i, c := range slims {
		loaded[i] = roundTrip(t, c, s.Stats)
	}
	assertSame("loaded", runOver("loaded", analyses, loaded))
}
