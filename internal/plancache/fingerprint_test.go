package plancache

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/workload"
)

// Fingerprint values are a format: every snapshot header and every store
// on disk carries one, so the walk may be made faster but never different.
// The goldens below are what the two-pass hash/fnv implementation this
// walk replaced printed for workload.StarSchema(1.0), with statistics and
// without.
const (
	goldenStarFP        = 0xaabed22b151d8c98
	goldenStarFPNoStats = 0x76237aff4bcec8ce
)

var goldenStarTableFPs = map[string][2]uint64{ // {with statistics, st == nil}
	"dim1_1":  {0xa3dfe258a73b6bd5, 0x6fc08581912f37bd},
	"dim1_2":  {0x899ef857fd39a122, 0x7fe771d06da78fb4},
	"dim1_3":  {0x581416f37a91290a, 0x7caf2f4bbaa90ed1},
	"dim1_4":  {0xcbff090981ff1476, 0x236d31d9c83b3dec},
	"dim1_5":  {0xb7a0cda657ac591f, 0x8ec0087e133bfd3a},
	"dim1_6":  {0x7ac47ddc9ef8656b, 0x0df2ebdb7976b672},
	"dim1_7":  {0xa617f262e644e8c4, 0xff87fc56963bf9e3},
	"dim1_8":  {0x884e767db0be9017, 0x9d61bf12f5c7435e},
	"dim2_1":  {0xc221bf119ad3973f, 0x8449ab835d282f54},
	"dim2_10": {0xdae0f39c83751b8a, 0x2ab6ce58194de185},
	"dim2_11": {0x495745e7a0fc3a96, 0xce374d9d255bd344},
	"dim2_12": {0xfcb1b7ce0c8228bd, 0x4d133b9da62e766a},
	"dim2_2":  {0x1af344e603dd3bc4, 0x2534493a6b99e274},
	"dim2_3":  {0xd86c118c0ae888f0, 0x213377e0a37a1a2f},
	"dim2_4":  {0x12bc560a724e01d1, 0xbe9ca7366bee9014},
	"dim2_5":  {0x6362a5dafb485c47, 0x2a87d349a8b48f58},
	"dim2_6":  {0xa1d8206ad361cea4, 0x5b497a5aca6eb3f5},
	"dim2_7":  {0x0a206e91d9697b40, 0x48c085927dcee411},
	"dim2_8":  {0xfeaa98f2455a1cde, 0x8f22f624563be229},
	"dim2_9":  {0xd7bb076bcb19c01d, 0x458ee037ca6a9277},
	"dim3_1":  {0x0e1e0f9717188e37, 0x35bd07e373574ce8},
	"dim3_2":  {0xf0638e19f715d1ed, 0x10e9520670e87c76},
	"dim3_3":  {0x4d3846bb797bf0dd, 0x5e35ac02cde91f01},
	"dim3_4":  {0xf75dd85ce85b94de, 0x0b661b8d476034f0},
	"dim3_5":  {0x33ea348b0f2f8d4f, 0x9a7fd9e961803553},
	"dim3_6":  {0x3bb72e624c91c449, 0x21ef14b7f421bf72},
	"dim3_7":  {0x11cd6274094bbaa5, 0xf399aefb26002008},
	"dim3_8":  {0x0ea7b771bf7f4baa, 0xd1b28e675cf63501},
	"fact":    {0x8524641fab4724a8, 0x68df25ee206d7df5},
}

func TestFingerprintGolden(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultCostParams()
	for k, tc := range []struct {
		name string
		st   *stats.Store
		env  uint64
	}{{"with statistics", s.Stats, goldenStarFP}, {"st == nil", nil, goldenStarFPNoStats}} {
		if got := Fingerprint(s.Catalog, tc.st, params); got != tc.env {
			t.Errorf("%s: Fingerprint = %#016x, golden %#016x", tc.name, got, tc.env)
		}
		_, tables := Fingerprints(s.Catalog, tc.st, params)
		if len(tables) != len(goldenStarTableFPs) {
			t.Errorf("%s: %d table fingerprints, golden has %d", tc.name, len(tables), len(goldenStarTableFPs))
		}
		for name, want := range goldenStarTableFPs {
			if got := tables[name]; got != want[k] {
				t.Errorf("%s: table %s fingerprint = %#016x, golden %#016x", tc.name, name, got, want[k])
			}
		}
	}
}

// refHasher is the implementation the walk replaced, kept as the oracle:
// one hash/fnv stream per fingerprint, fed field by field.
type refHasher struct{ h hash.Hash64 }

func (f refHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}
func (f refHasher) i64(v int64) { f.u64(uint64(v)) }
func (f refHasher) str(s string) {
	f.u64(uint64(len(s)))
	io.WriteString(f.h, s)
}

func newRefHasher(tag string, p optimizer.CostParams) refHasher {
	f := refHasher{fnv.New64a()}
	f.str(tag)
	for _, v := range []float64{p.SeqPageCost, p.RandomPageCost, p.CPUTupleCost, p.CPUIndexTupleCost, p.CPUOperatorCost} {
		f.u64(math.Float64bits(v))
	}
	return f
}

func (f refHasher) table(t *catalog.Table, st *stats.Store) {
	f.str(t.Name)
	f.i64(t.RowCount)
	f.i64(t.Pages)
	for _, col := range t.Columns {
		f.str(col.Name)
		f.i64(int64(col.Type))
		f.i64(int64(col.AvgWidth))
		f.i64(col.NDV)
		f.i64(col.Min)
		f.i64(col.Max)
		if col.NotNull {
			f.u64(1)
		} else {
			f.u64(0)
		}
		if st == nil {
			continue
		}
		cs := st.Get(t.Name, col.Name)
		if cs == nil {
			continue
		}
		f.str("stats")
		f.i64(cs.Rows)
		f.i64(cs.Distinct)
		f.i64(cs.Min)
		f.i64(cs.Max)
		if cs.Hist != nil {
			f.i64(cs.Hist.Rows)
			f.i64(cs.Hist.Distinct)
			for _, b := range cs.Hist.Bounds {
				f.i64(b)
			}
		}
	}
	for _, fk := range t.ForeignKeys {
		f.str(fk.Column)
		f.str(fk.RefTable)
		f.str(fk.RefColumn)
	}
}

func refFingerprints(cat *catalog.Catalog, st *stats.Store, p optimizer.CostParams) (uint64, map[string]uint64) {
	env := newRefHasher("pinum-plancache-fp-v1", p)
	tables := make(map[string]uint64)
	for _, t := range cat.Tables() {
		env.table(t, st)
		one := newRefHasher("pinum-plancache-tablefp-v1", p)
		one.table(t, st)
		tables[t.Name] = one.h.Sum64()
	}
	return env.h.Sum64(), tables
}

// checkWalk asserts the one walk, Fingerprint and the oracle agree on
// an environment, and that changing one table (its row count) moves the
// environment's fingerprint and that table's entry — and no other.
func checkWalk(t *testing.T, label string, cat *catalog.Catalog, st *stats.Store) {
	t.Helper()
	params := optimizer.DefaultCostParams()
	agree := func() (uint64, map[string]uint64) {
		t.Helper()
		env, tables := Fingerprints(cat, st, params)
		wantEnv, wantTables := refFingerprints(cat, st, params)
		if env != wantEnv || Fingerprint(cat, st, params) != wantEnv {
			t.Fatalf("%s: Fingerprints %#016x, Fingerprint %#016x, oracle %#016x", label, env, Fingerprint(cat, st, params), wantEnv)
		}
		if len(tables) != len(wantTables) {
			t.Fatalf("%s: %d table fingerprints, oracle has %d", label, len(tables), len(wantTables))
		}
		for name, want := range wantTables {
			if tables[name] != want {
				t.Fatalf("%s: table %s: Fingerprints %#016x, oracle %#016x", label, name, tables[name], want)
			}
		}
		return env, tables
	}
	env, tables := agree()
	for _, changed := range cat.Tables() {
		changed.RowCount++
		env2, tables2 := agree()
		changed.RowCount--
		if env2 == env {
			t.Errorf("%s: changing %s did not move the environment fingerprint", label, changed.Name)
		}
		for name, fp := range tables {
			if moved := tables2[name] != fp; moved != (name == changed.Name) {
				t.Errorf("%s: changing %s: entry %s moved=%v", label, changed.Name, name, moved)
			}
		}
	}
}

func TestFingerprintsWalkMatchesOracle(t *testing.T) {
	for _, shape := range workload.Shapes {
		for seed := int64(1); seed <= 3; seed++ {
			spec := workload.ShapeSpec{Shape: shape, Rels: 3 + int(seed)*2, Density: 0.4, Seed: seed}
			cat, _, err := workload.ShapeQuery(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkWalk(t, fmt.Sprintf("%s/seed %d", shape, seed), cat, nil)
		}
	}
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetTableRows("dim1_3", 123_456); err != nil {
		t.Fatal(err)
	}
	checkWalk(t, "star, dim1_3 overridden", s.Catalog, s.Stats)
	checkWalk(t, "star, dim1_3 overridden, st == nil", s.Catalog, nil)
}
