// Package plancache implements the persistent plan-cache store: a compact,
// versioned snapshot of one or more PINUM plan caches that a long-lived
// process can write once and load on every start instead of re-invoking
// the optimizer.
//
// A snapshot stores, per query, exactly what the cached cost model
// (inum.Cache.Cost) consumes, in the cache's own form — each plan's
// internal cost and, per relation, its leaf as the two-byte index of the
// leaf's slot in the query's leaf-slot table plus the float64 coefficient
// — and nothing else: no column strings (a slot resolves through the
// query's deterministic interning at load, optimizer.Analysis.LeafOfSlot).
// The codec reads no leaf: a slot is an opaque uint16 here, and
// inum.FromRows checks it against the query. Loading a snapshot therefore
// reconstructs a cache whose Cost results are bit-identical to the cache
// that was saved (float64 payloads round-trip as raw IEEE-754 bits, and
// entry order is preserved).
//
// Snapshots are fingerprinted against the catalog, statistics and cost
// parameters they were built under. The stored internal costs and leaf
// coefficients are only meaningful for the schema and statistics the
// optimizer saw at build time, so Decode callers must compare the
// snapshot's fingerprint against the serving environment's — a stale
// snapshot is rejected with an error instead of silently mis-costing
// every what-if question. The binary encoding is deterministic
// (encode→decode→re-encode is byte-identical) and checksummed, so a
// truncated or corrupted file fails loudly too.
package plancache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
)

// QueryPlans is the stored plan cache of one query, in the wire's layout:
// three flat arrays (arenas) in cache order (Cost scans the entries in
// order with strict improvement, so order is part of bit-identity).
type QueryPlans struct {
	// Name identifies the query (matched against the workload at load).
	Name string
	// SQL is the query text, kept so a loaded snapshot can be audited and
	// so load can verify it still matches the workload's query.
	SQL string
	// NRels is the query's relation count: every entry stores exactly
	// this many leaves.
	NRels int
	// Internal holds each entry's access-method-independent plan cost.
	Internal []float64
	// Slots holds, entry-major, one leaf per entry and relation: the index
	// of its slot in the query's leaf-slot table (inum.Cache.Rows).
	Slots []uint16
	// Coefs holds the matching access-cost coefficients.
	Coefs []float64
}

// Snapshot is a persistable set of plan caches plus the fingerprint of
// the environment they were built under.
type Snapshot struct {
	// Fingerprint identifies the (catalog, statistics, cost parameters)
	// the caches were built against.
	Fingerprint uint64
	// Queries holds one cache's plans per workload query, in workload order.
	Queries []QueryPlans
}

// NewSnapshot assembles a snapshot from built caches (inum.Cache.Rows), in
// the given order, under the given environment fingerprint. It is the only
// supported way to build a Snapshot for Save/Encode: Snapshot and its
// QueryPlans arenas are shared immutable once handed out (all three are
// views of the caches' own), so construction stays inside this package.
func NewSnapshot(fingerprint uint64, caches []*inum.Cache) *Snapshot {
	snap := &Snapshot{
		Fingerprint: fingerprint,
		Queries:     make([]QueryPlans, len(caches)),
	}
	for i, c := range caches {
		qp := &snap.Queries[i]
		qp.Name, qp.SQL, qp.NRels = c.Q.Name, c.Q.SQL, len(c.Q.Rels)
		qp.Internal, qp.Slots, qp.Coefs = c.Rows()
	}
	return snap
}

// fpWalk is the one walk over an environment that yields both kinds of
// fingerprint: every field goes into two FNV-1a states at once, env (the
// global stream, never reset) and tab (reset at each table). The two
// multiply chains are independent, so feeding both costs about what
// feeding one does; the byte sequences are exactly those the format has
// always hashed, so values are stable across releases and stores on disk
// stay valid.
type fpWalk struct{ env, tab uint64 }

func (f *fpWalk) u64(v uint64) {
	env, tab := f.env, f.tab
	for i := 0; i < 64; i += 8 {
		b := uint64(byte(v >> i))
		env = (env ^ b) * fnvPrime
		tab = (tab ^ b) * fnvPrime
	}
	f.env, f.tab = env, tab
}
func (f *fpWalk) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpWalk) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *fpWalk) str(s string) {
	f.u64(uint64(len(s)))
	env, tab := f.env, f.tab
	for i := 0; i < len(s); i++ {
		b := uint64(s[i])
		env = (env ^ b) * fnvPrime
		tab = (tab ^ b) * fnvPrime
	}
	f.env, f.tab = env, tab
}

// fpPrefix is the state every stream of one kind starts from: its version
// tag, then the cost-model parameters every stored cost depends on.
func fpPrefix(tag string, params optimizer.CostParams) uint64 {
	f := fpWalk{env: fnvOffset}
	f.str(tag)
	f.f64(params.SeqPageCost)
	f.f64(params.RandomPageCost)
	f.f64(params.CPUTupleCost)
	f.f64(params.CPUIndexTupleCost)
	f.f64(params.CPUOperatorCost)
	return f.env
}

// table hashes one catalog table: row counts, pages, columns with
// widths/NDVs/domains, the statistics attached to each column, and the
// foreign keys.
func (f *fpWalk) table(t *catalog.Table, st *stats.Store) {
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

// walk runs the one pass over catalog and statistics. It returns the
// environment fingerprint and, when perTable is set, each table's own.
func walk(cat *catalog.Catalog, st *stats.Store, params optimizer.CostParams, perTable bool) (uint64, map[string]uint64) {
	all := cat.Tables()
	var tables map[string]uint64
	if perTable {
		tables = make(map[string]uint64, len(all))
	}
	tabStart := fpPrefix("pinum-plancache-tablefp-v1", params)
	f := fpWalk{env: fpPrefix("pinum-plancache-fp-v1", params)}
	for _, t := range all {
		f.tab = tabStart
		f.table(t, st)
		if perTable {
			tables[t.Name] = f.tab
		}
	}
	return f.env, tables
}

// Fingerprints walks the environment once and returns both fingerprints a
// load needs: the one Fingerprint returns and, per catalog table, one hashed
// independently (same field walk, same cost parameters mixed into every
// hash). Two environments agreeing on a table's fingerprint cost every plan
// touching only that table's statistics identically, so a reload can
// re-optimize just the queries whose referenced tables moved and reuse the
// rest of the snapshot verbatim.
func Fingerprints(cat *catalog.Catalog, st *stats.Store, params optimizer.CostParams) (env uint64, tables map[string]uint64) {
	return walk(cat, st, params, true)
}

// Fingerprint hashes everything the stored costs depend on: every catalog
// table (row counts, pages, columns with widths/NDVs/domains, foreign
// keys) in registration order, the statistics attached to each of its
// columns, and the cost-model parameters. Two environments with equal
// fingerprints cost plans identically, so a snapshot built under one is
// exact under the other; any schema, statistics or parameter drift
// changes the fingerprint and gets the snapshot rejected at load.
func Fingerprint(cat *catalog.Catalog, st *stats.Store, params optimizer.CostParams) uint64 {
	env, _ := walk(cat, st, params, false)
	return env
}

// ------------------------------------------------------------- codec ----

// magic identifies the format; its last byte is the version. Version 3
// stores each leaf as its slot index and closes the file with a CRC-64
// (v2 stored a packed mode-and-order-id identity under an FNV-1a sum, v1
// per-leaf column strings through a pool); older snapshots are rejected
// by their version byte as stale, never parsed.
var magic = [8]byte{'P', 'I', 'N', 'U', 'M', 'P', 'C', 3}

// crcTable is the checksum's table: CRC-64 with the ECMA polynomial.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Decode sanity caps: a snapshot exceeding any of these is rejected as
// corrupt rather than allocated for.
const (
	maxQueries = 1 << 20
	maxRels    = 64
	maxEntries = 1 << 24
	maxStrLen  = 1 << 20
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Encode writes the snapshot in the deterministic v3 binary format:
// little-endian fixed-width integers, float64s as raw IEEE-754 bits, and
// per-relation leaves as slot indexes (no column strings on the wire),
// closed by a CRC-64 (ECMA) checksum over everything before it. The same
// snapshot always encodes to the same bytes, so encode→decode→re-encode
// is byte-identical. A snapshot that does not encode writes nothing.
func Encode(w io.Writer, s *Snapshot) error {
	buf, err := encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encode validates the snapshot and appends it, checksum included, to one
// buffer of exactly its encoded size.
func encode(s *Snapshot) ([]byte, error) {
	size := len(magic) + 8 + 4 + 8 // header, fingerprint, query count, checksum
	for i := range s.Queries {
		qp := &s.Queries[i]
		if qp.NRels <= 0 || qp.NRels > maxRels {
			return nil, fmt.Errorf("plancache: query %s: bad relation count %d", qp.Name, qp.NRels)
		}
		n := len(qp.Internal)
		if len(qp.Slots) != n*qp.NRels || len(qp.Coefs) != n*qp.NRels {
			return nil, fmt.Errorf("plancache: query %s: %d entries with %d leaves and %d coefficients for %d relations",
				qp.Name, n, len(qp.Slots), len(qp.Coefs), qp.NRels)
		}
		size += 4 + len(qp.Name) + 4 + len(qp.SQL) + 4 + 4 + n*(8+10*qp.NRels)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = le.AppendUint64(buf, s.Fingerprint)
	buf = le.AppendUint32(buf, uint32(len(s.Queries)))
	for i := range s.Queries {
		qp := &s.Queries[i]
		buf = le.AppendUint32(buf, uint32(len(qp.Name)))
		buf = append(buf, qp.Name...)
		buf = le.AppendUint32(buf, uint32(len(qp.SQL)))
		buf = append(buf, qp.SQL...)
		buf = le.AppendUint32(buf, uint32(qp.NRels))
		buf = le.AppendUint32(buf, uint32(len(qp.Internal)))
		for e, internal := range qp.Internal {
			buf = le.AppendUint64(buf, math.Float64bits(internal))
			lo := e * qp.NRels
			for k := lo; k < lo+qp.NRels; k++ {
				buf = le.AppendUint16(buf, qp.Slots[k])
				buf = le.AppendUint64(buf, math.Float64bits(qp.Coefs[k]))
			}
		}
	}
	return le.AppendUint64(buf, crc64.Checksum(buf, crcTable)), nil
}

// reader decodes the byte stream with bounds checking.
type reader struct {
	buf []byte
	off int
}

// canHold rejects a count field whose minimally-encoded payload could
// not fit in the remaining bytes, so a corrupted count is refused before
// anything is allocated for it (a crafted small file must not provoke a
// huge allocation just to fail the checksum later).
func (r *reader) canHold(count uint32, minItemBytes int) bool {
	return int64(count)*int64(minItemBytes) <= int64(len(r.buf)-r.off)
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, fmt.Errorf("plancache: snapshot truncated at byte %d", r.off)
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *reader) u32() (uint32, error) {
	p, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (r *reader) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("plancache: implausible string length %d", n)
	}
	p, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// Decode reads a v3 snapshot, verifying the magic, version, structural
// bounds and trailing checksum. The checksum is verified after the parse,
// over every byte before it, so a corrupt file fails either way. It does NOT verify the fingerprint —
// callers must compare Snapshot.Fingerprint against their environment's
// (see Fingerprint) before trusting any stored cost.
func Decode(data []byte) (*Snapshot, error) {
	if err := faultpoint.Hit("plancache.decode"); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	r := &reader{buf: data}
	head, err := r.take(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 7; i++ {
		if head[i] != magic[i] {
			return nil, fmt.Errorf("plancache: not a plan-cache snapshot (bad magic)")
		}
	}
	if head[7] != magic[7] {
		return nil, fmt.Errorf("plancache: unsupported snapshot version %d (want %d)", head[7], magic[7])
	}
	s := &Snapshot{}
	if s.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	nq, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each query needs at least its three header fields plus two counts.
	if nq > maxQueries || !r.canHold(nq, 20) {
		return nil, fmt.Errorf("plancache: implausible query count %d", nq)
	}
	s.Queries = make([]QueryPlans, nq)
	for i := range s.Queries {
		if err := decodeQuery(r, &s.Queries[i]); err != nil {
			return nil, err
		}
	}
	want := crc64.Checksum(r.buf[:r.off], crcTable)
	got, err := r.u64() // the stored checksum is not part of itself
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("plancache: checksum mismatch (stored %016x, computed %016x): snapshot corrupted", got, want)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("plancache: %d trailing bytes after snapshot", len(r.buf)-r.off)
	}
	return s, nil
}

func decodeQuery(r *reader, qp *QueryPlans) error {
	var err error
	if qp.Name, err = r.str(); err != nil {
		return err
	}
	if qp.SQL, err = r.str(); err != nil {
		return err
	}
	nRels, err := r.u32()
	if err != nil {
		return err
	}
	if nRels == 0 || nRels > maxRels {
		return fmt.Errorf("plancache: query %s: bad relation count %d", qp.Name, nRels)
	}
	qp.NRels = int(nRels)

	nEntries, err := r.u32()
	if err != nil {
		return err
	}
	if nEntries > maxEntries || !r.canHold(nEntries, 8+10*qp.NRels) {
		return fmt.Errorf("plancache: query %s: implausible entry count %d", qp.Name, nEntries)
	}
	// canHold has checked that the entries fit, so they are taken in one
	// piece and parsed in place.
	entry := 8 + 10*qp.NRels
	p, err := r.take(int(nEntries) * entry)
	if err != nil {
		return err
	}
	qp.Internal = make([]float64, nEntries)
	qp.Slots = make([]uint16, int(nEntries)*qp.NRels)
	qp.Coefs = make([]float64, int(nEntries)*qp.NRels)
	le := binary.LittleEndian
	for i := range qp.Internal {
		e := p[i*entry : (i+1)*entry]
		internal := math.Float64frombits(le.Uint64(e))
		if !(internal >= 0 && internal <= math.MaxFloat64) {
			return fmt.Errorf("plancache: query %s entry %d: internal cost %v is not finite and non-negative", qp.Name, i, internal)
		}
		qp.Internal[i] = internal
		for rel := 0; rel < qp.NRels; rel++ {
			leaf := e[8+10*rel:]
			k := math.Float64frombits(le.Uint64(leaf[2:]))
			if !(k >= 0 && k <= math.MaxFloat64) {
				return fmt.Errorf("plancache: query %s entry %d: coefficient %v of relation %d is not finite and non-negative", qp.Name, i, k, rel)
			}
			qp.Slots[i*qp.NRels+rel], qp.Coefs[i*qp.NRels+rel] = le.Uint16(leaf), k
		}
	}
	return nil
}

// BuildCaches matches snapshot queries to the workload by name,
// verifying the stored SQL still equals the workload's, and reconstructs
// one cache per query (aligned with queries/analyses). Both the
// public LoadCaches facade and the serving layer's startup go through
// this one matcher, so their validation cannot drift apart.
func BuildCaches(snap *Snapshot, queries []*query.Query, analyses []*optimizer.Analysis) ([]*inum.Cache, error) {
	byName := make(map[string]*QueryPlans, len(snap.Queries))
	for i := range snap.Queries {
		byName[snap.Queries[i].Name] = &snap.Queries[i]
	}
	caches := make([]*inum.Cache, len(queries))
	for i, q := range queries {
		qp := byName[q.Name]
		if qp == nil {
			return nil, fmt.Errorf("plancache: snapshot has no plans for query %s", q.Name)
		}
		if qp.SQL != q.SQL {
			return nil, fmt.Errorf("plancache: snapshot stored different SQL for query %s: rebuild the snapshot", q.Name)
		}
		if n := len(analyses[i].Q.Rels); n != qp.NRels {
			return nil, fmt.Errorf("plancache: query %s has %d relations, snapshot stored %d", q.Name, n, qp.NRels)
		}
		c, err := inum.FromRows(analyses[i], qp.Internal, qp.Slots, qp.Coefs)
		if err != nil {
			return nil, fmt.Errorf("plancache: query %s: %w", q.Name, err)
		}
		caches[i] = c
	}
	return caches, nil
}

// ------------------------------------------------------------- files ----

// ErrPartialWrite marks a snapshot save that failed before its bytes were
// durably on disk: the temp-file write, fsync or close went wrong, so the
// target file was never replaced. Callers distinguish this (retryable,
// old snapshot intact) from encode errors with errors.Is.
var ErrPartialWrite = errors.New("plancache: partial snapshot write")

// Save encodes the snapshot and writes it crash-safely: encode in memory,
// write a temp file beside the target, fsync the temp file, rename it
// over the target, then fsync the parent directory so the rename itself
// is durable. A crash mid-save or a concurrent reader therefore sees
// either the old complete snapshot or the new one, never a torn file —
// and a crash right after Save returns cannot roll the rename back or
// resurrect unsynced bytes. Failures on the temp-file path are wrapped in
// ErrPartialWrite; the target is only replaced by fully synced bytes.
func Save(path string, s *Snapshot) error {
	buf, err := encode(s)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("%w: %w", ErrPartialWrite, err)
	}
	if ferr := faultpoint.Hit("plancache.save.write"); ferr != nil {
		// Simulate a torn write followed by a crash: half the bytes reach
		// the temp file and nothing cleans it up. The live snapshot must
		// survive this — the rename below never runs.
		tmp.Write(buf[:len(buf)/2])
		tmp.Close()
		return fmt.Errorf("%w: %w", ErrPartialWrite, ferr)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %w", ErrPartialWrite, err)
	}
	// fsync before the rename: without it the rename can commit a name
	// pointing at bytes the kernel never flushed, and a crash after Save
	// leaves a complete-looking file with a truncated tail.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %w", ErrPartialWrite, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %w", ErrPartialWrite, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %w", ErrPartialWrite, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// fsync the parent directory so the rename (the commit point) is
	// durable too; without it a crash can resurrect the old file.
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a just-committed rename durable.
// Platforms that refuse to fsync directories are tolerated (there is
// nothing more a portable caller can do).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Load reads, decodes and fingerprint-checks a snapshot: want must be the
// loading environment's Fingerprint, and a mismatch — schema, statistics
// or cost parameters drifted since the snapshot was built — is an error.
func Load(path string, want uint64) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if s.Fingerprint != want {
		return nil, fmt.Errorf("plancache: snapshot %s was built for a different environment (fingerprint %016x, current %016x): rebuild the snapshot",
			path, s.Fingerprint, want)
	}
	return s, nil
}
