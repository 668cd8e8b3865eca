package plancache

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// starSnapshot builds slim caches for the star workload and packages them
// into a snapshot.
func starSnapshot(t *testing.T, seed int64) (*workload.Star, *Snapshot) {
	t.Helper()
	s, caches := starCaches(t, seed, core.BuildSlim)
	return s, NewSnapshot(Fingerprint(s.Catalog, s.Stats, optimizer.DefaultCostParams()), caches)
}

// starCaches builds the star workload's caches with build.
func starCaches(t *testing.T, seed int64, build core.BuildFunc) (*workload.Star, []*inum.Cache) {
	t.Helper()
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(seed)
	if err != nil {
		t.Fatal(err)
	}
	caches := make([]*inum.Cache, len(qs))
	for i, q := range qs {
		a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		if caches[i], err = build(a, whatif.NewSession(s.Catalog)); err != nil {
			t.Fatal(err)
		}
	}
	return s, caches
}

func encodeToBytes(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripByteIdentical pins the codec's determinism: encoding,
// decoding and re-encoding a snapshot yields the same bytes, and the
// decoded structures carry identical float bits.
func TestRoundTripByteIdentical(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	data := encodeToBytes(t, snap)

	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fingerprint != snap.Fingerprint {
		t.Fatalf("fingerprint changed across the codec: %x -> %x", snap.Fingerprint, dec.Fingerprint)
	}
	if len(dec.Queries) != len(snap.Queries) {
		t.Fatalf("query count changed: %d -> %d", len(snap.Queries), len(dec.Queries))
	}
	for i, qp := range dec.Queries {
		orig := snap.Queries[i]
		if qp.Name != orig.Name || qp.SQL != orig.SQL || qp.NRels != orig.NRels {
			t.Fatalf("query %d header changed: %+v vs %+v", i, qp, orig)
		}
		if len(qp.Internal) != len(orig.Internal) || len(qp.Packed) != len(orig.Packed) || len(qp.Coefs) != len(orig.Coefs) {
			t.Fatalf("query %s entry count changed: %d -> %d", qp.Name, len(orig.Internal), len(qp.Internal))
		}
		for j, internal := range qp.Internal {
			if math.Float64bits(internal) != math.Float64bits(orig.Internal[j]) {
				t.Fatalf("%s entry %d internal bits changed", qp.Name, j)
			}
			for rel := 0; rel < qp.NRels; rel++ {
				k := j*qp.NRels + rel
				if qp.Packed[k] != orig.Packed[k] ||
					math.Float64bits(qp.Coefs[k]) != math.Float64bits(orig.Coefs[k]) {
					t.Fatalf("%s entry %d leaf %d changed: %#04x/%v vs %#04x/%v",
						qp.Name, j, rel, qp.Packed[k], qp.Coefs[k], orig.Packed[k], orig.Coefs[k])
				}
			}
		}
	}

	re := encodeToBytes(t, dec)
	if !bytes.Equal(data, re) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(data), len(re))
	}
}

// TestDecodeRejectsCorruption flips or truncates bytes across the whole
// snapshot and requires every mutation to be rejected (the checksum backs
// up the structural checks).
func TestDecodeRejectsCorruption(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	data := encodeToBytes(t, snap)

	if _, err := Decode(nil); err == nil {
		t.Error("Decode accepted an empty snapshot")
	}
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Error("Decode accepted a truncated snapshot")
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0xAB)); err == nil {
		t.Error("Decode accepted trailing garbage")
	}

	bad := append([]byte(nil), data...)
	bad[7] = 99 // version byte
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted an unknown version")
	}
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a bad magic")
	}

	// Flip one bit at a spread of offsets: every corruption must fail
	// (either structurally or by checksum), never silently load.
	for off := 8; off < len(data); off += 97 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("Decode accepted a snapshot with byte %d flipped", off)
		}
	}
}

// TestDecodeRejectsPreviousVersion pins the format-staleness contract for
// the packed-leaf encoding: a v1 snapshot (per-leaf column strings through
// a pool) presents the old version byte and must be rejected by the
// version check with the stale-format error, not mis-parsed as v2.
func TestDecodeRejectsPreviousVersion(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	data := encodeToBytes(t, snap)
	old := append([]byte(nil), data...)
	old[7] = 1 // the previous format version
	_, err := Decode(old)
	if err == nil {
		t.Fatal("Decode accepted a v1 snapshot")
	}
	want := "plancache: unsupported snapshot version 1 (want 2)"
	if err.Error() != want {
		t.Fatalf("v1 rejection error = %q, want %q", err, want)
	}
}

// TestDecodeRejectsEveryTruncation is the exhaustive corruption taxonomy
// for truncation: a snapshot cut at ANY byte offset — which includes every
// section boundary (after the magic, the fingerprint, the query count,
// each query header field, each entry, and inside the trailing checksum)
// — must be rejected, and the full encoding must still decode.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	// Two queries keep the byte count small enough to try every prefix.
	small := &Snapshot{Fingerprint: snap.Fingerprint, Queries: snap.Queries[:2]}
	data := encodeToBytes(t, small)

	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted a snapshot truncated to %d of %d bytes", n, len(data))
		}
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("full snapshot no longer decodes: %v", err)
	}
}

// TestDecodeRejectsEveryChecksumFlip flips each bit of the stored checksum
// (and a byte right before it, which the checksum covers): silent
// acceptance of either would let a torn tail through.
func TestDecodeRejectsEveryChecksumFlip(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	small := &Snapshot{Fingerprint: snap.Fingerprint, Queries: snap.Queries[:2]}
	data := encodeToBytes(t, small)

	for off := len(data) - 9; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("Decode accepted a snapshot with bit %d of byte %d flipped", bit, off)
			}
		}
	}
}

// TestSaveCrashSafety proves a torn temp-file write never clobbers the
// live snapshot: with a fault injected into the temp write path, Save
// fails with ErrPartialWrite, leaves a truncated temp file behind (a
// crash cleans nothing up), and the previously saved snapshot still loads
// byte-intact. After the fault heals, Save succeeds again.
func TestSaveCrashSafety(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, snap := starSnapshot(t, 42)
	fp := Fingerprint(s.Catalog, s.Stats, optimizer.DefaultCostParams())
	dir := t.TempDir()
	path := filepath.Join(dir, "star.pcache")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultpoint.Set("plancache.save.write", "error"); err != nil {
		t.Fatal(err)
	}
	err = Save(path, snap)
	if !errors.Is(err, ErrPartialWrite) {
		t.Fatalf("faulted Save returned %v, want ErrPartialWrite", err)
	}
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("faulted Save did not carry the injected cause: %v", err)
	}

	// The live snapshot is untouched and still loads.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed Save modified the live snapshot file")
	}
	if _, err := Load(path, fp); err != nil {
		t.Fatalf("live snapshot no longer loads after a torn save: %v", err)
	}

	// The torn temp file is there (the simulated crash cleans nothing up)
	// and its truncated content is rejected by the codec.
	tmps, err := filepath.Glob(filepath.Join(dir, "star.pcache.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 1 {
		t.Fatalf("expected exactly one torn temp file, found %v", tmps)
	}
	torn, err := os.ReadFile(tmps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(before) {
		t.Fatalf("torn temp holds %d bytes, want a strict prefix of %d", len(torn), len(before))
	}
	if _, err := Decode(torn); err == nil {
		t.Fatal("Decode accepted the torn temp file")
	}

	// Healed, the save path works again.
	faultpoint.Clear("plancache.save.write")
	if err := Save(path, snap); err != nil {
		t.Fatalf("Save after healing: %v", err)
	}
	if _, err := Load(path, fp); err != nil {
		t.Fatal(err)
	}
}

// TestTableFingerprints pins the locality contract incremental reload
// rests on: statistics drift in one table moves that table's fingerprint
// and no other, while a cost-parameter change moves every fingerprint.
func TestTableFingerprints(t *testing.T) {
	s, _ := starSnapshot(t, 42)
	params := optimizer.DefaultCostParams()
	_, base := Fingerprints(s.Catalog, s.Stats, params)
	if len(base) != len(s.Catalog.Tables()) {
		t.Fatalf("fingerprinted %d tables, catalog has %d", len(base), len(s.Catalog.Tables()))
	}

	_, again := Fingerprints(s.Catalog, s.Stats, params)
	for name, fp := range base {
		if again[name] != fp {
			t.Fatalf("table %s fingerprint not deterministic", name)
		}
	}

	fact := s.Catalog.Table("fact")
	fact.RowCount++
	_, drifted := Fingerprints(s.Catalog, s.Stats, params)
	fact.RowCount--
	for name, fp := range base {
		moved := drifted[name] != fp
		if name == "fact" && !moved {
			t.Error("fact row-count drift did not move fact's fingerprint")
		}
		if name != "fact" && moved {
			t.Errorf("fact row-count drift moved %s's fingerprint", name)
		}
	}

	params.RandomPageCost *= 2
	_, repriced := Fingerprints(s.Catalog, s.Stats, params)
	for name, fp := range base {
		if repriced[name] == fp {
			t.Errorf("cost-parameter change did not move %s's fingerprint", name)
		}
	}
}

// TestLoadRejectsStaleFingerprint pins the staleness contract: a snapshot
// built under one environment must not load under another.
func TestLoadRejectsStaleFingerprint(t *testing.T) {
	s, snap := starSnapshot(t, 42)
	path := t.TempDir() + "/star.pcache"
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}

	fp := Fingerprint(s.Catalog, s.Stats, optimizer.DefaultCostParams())
	if _, err := Load(path, fp); err != nil {
		t.Fatalf("Load rejected a fresh snapshot: %v", err)
	}

	// Any drift in schema statistics or cost parameters must change the
	// fingerprint...
	grown := s.Catalog.Table("fact").RowCount + 1
	old := s.Catalog.Table("fact").RowCount
	s.Catalog.Table("fact").RowCount = grown
	fpGrown := Fingerprint(s.Catalog, s.Stats, optimizer.DefaultCostParams())
	s.Catalog.Table("fact").RowCount = old
	if fpGrown == fp {
		t.Fatal("fingerprint ignored a row-count change")
	}
	params := optimizer.DefaultCostParams()
	params.RandomPageCost *= 2
	if Fingerprint(s.Catalog, s.Stats, params) == fp {
		t.Fatal("fingerprint ignored a cost-parameter change")
	}
	if Fingerprint(s.Catalog, nil, optimizer.DefaultCostParams()) == fp {
		t.Fatal("fingerprint ignored the statistics store")
	}

	// ...and the mismatched load must fail.
	if _, err := Load(path, fpGrown); err == nil {
		t.Fatal("Load accepted a snapshot with a stale fingerprint")
	}
}

// TestLoadRejectsUnpriceableCosts pins what pricing assumes of an entry:
// its internal cost and its coefficients are finite and non-negative
// (Compact's dominance argument needs it, and a NaN cost cannot be
// rendered). A snapshot file carrying NaN, an infinity or a negative value
// in either place must fail to load, and the same entry handed to the
// cache directly (inum.FromRows) must be refused too; both
// errors name the query and the entry.
func TestLoadRejectsUnpriceableCosts(t *testing.T) {
	s, snap := starSnapshot(t, 42)
	qp := &snap.Queries[0]
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(qs, func(q *query.Query) bool { return q.Name == qp.Name })
	a, err := optimizer.NewAnalysis(qs[i], s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.pcache")
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, field := range []*float64{&qp.Internal[0], &qp.Coefs[qp.NRels-1]} {
			good := *field
			*field = bad
			if err := Save(path, snap); err != nil {
				t.Fatal(err)
			}
			_, lerr := Load(path, snap.Fingerprint)
			_, cerr := inum.FromRows(a, qp.Internal, qp.Packed, qp.Coefs)
			*field = good
			for _, err := range []error{lerr, cerr} {
				if err == nil || !strings.Contains(err.Error(), "query "+qp.Name+" entry 0") {
					t.Errorf("an entry priced %v loaded or was refused without naming itself: %v", bad, err)
				}
			}
		}
	}
	if _, err := inum.FromRows(a, qp.Internal, qp.Packed, qp.Coefs); err != nil {
		t.Fatalf("the restored entry is refused: %v", err)
	}
}

// TestStarSnapshotBytesFrozen pins the wire form across the arena's change
// of representation (packed identities → slot indexes, PR 23): the star
// workload's snapshot, encoded from the reference construction's caches
// (core.Build, which does not compact), is byte-equal to what the commit
// before that change wrote — the first two literals were printed there by
// this very test body. The library's caches drop dominated entries; their
// snapshot is pinned by the second pair of literals and decodes to the
// frozen entries minus exactly the dominated ones (compactReference): one
// entry of Q6.
func TestStarSnapshotBytesFrozen(t *testing.T) {
	fnvSum := func(data []byte) uint64 {
		h := fnv.New64a()
		h.Write(data)
		return h.Sum64()
	}
	s, refs := starCaches(t, 42, core.Build)
	frozen := encodeToBytes(t, NewSnapshot(Fingerprint(s.Catalog, s.Stats, optimizer.DefaultCostParams()), refs))
	const wantLen, wantSum = 21471, uint64(0x30a7a18c97a38398)
	if len(frozen) != wantLen || fnvSum(frozen) != wantSum {
		t.Fatalf("star snapshot encodes to %d bytes, FNV-1a %#x; the frozen form is %d bytes, %#x",
			len(frozen), fnvSum(frozen), wantLen, wantSum)
	}

	_, snap := starSnapshot(t, 42)
	data := encodeToBytes(t, snap)
	const compactLen, compactSum = 21423, uint64(0x80091f3a7fee4e99)
	if len(data) != compactLen || fnvSum(data) != compactSum {
		t.Errorf("compacted star snapshot encodes to %d bytes, FNV-1a %#x; pinned %d bytes, %#x",
			len(data), fnvSum(data), compactLen, compactSum)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	dropped := map[string]int{}
	for i, qp := range dec.Queries {
		wantInternal, wantPacked, wantCoefs := compactReference(t, refs[i]).Rows()
		if len(qp.Internal) != len(wantInternal) {
			t.Fatalf("%s: %d entries decoded, the frozen ones minus the dominated are %d", qp.Name, len(qp.Internal), len(wantInternal))
		}
		bitsEqual := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		for j := range qp.Internal {
			lo, hi := j*qp.NRels, (j+1)*qp.NRels
			if !bitsEqual(qp.Internal[j], wantInternal[j]) || !slices.Equal(qp.Packed[lo:hi], wantPacked[lo:hi]) ||
				!slices.EqualFunc(qp.Coefs[lo:hi], wantCoefs[lo:hi], bitsEqual) {
				t.Fatalf("%s entry %d: decoded %v %v %v, frozen %v %v %v", qp.Name, j,
					qp.Internal[j], qp.Packed[lo:hi], qp.Coefs[lo:hi], wantInternal[j], wantPacked[lo:hi], wantCoefs[lo:hi])
			}
		}
		if n := len(refs[i].Plans) - len(qp.Internal); n > 0 {
			dropped[qp.Name] = n
		}
	}
	if len(dropped) != 1 || dropped["Q6"] != 1 {
		t.Errorf("dominated entries dropped per query: %v; want Q6's one", dropped)
	}
}
