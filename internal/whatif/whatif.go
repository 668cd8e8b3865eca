// Package whatif implements hypothetical-index sessions: the paper's §V-A
// what-if interface. A session creates indexes that exist only as
// statistics (leaf-page size estimates from average attribute widths and
// row counts), and packages index sets into configurations the optimizer
// can plan under.
package whatif

import (
	"fmt"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
)

// Session manages hypothetical indexes over a base catalog. It never
// mutates the base catalog: hypothetical indexes live only in the session.
type Session struct {
	base  *catalog.Catalog
	byKey map[string]*catalog.Index // by canonical table(cols) key
}

// NewSession returns an empty what-if session over cat.
func NewSession(cat *catalog.Catalog) *Session {
	return &Session{base: cat, byKey: make(map[string]*catalog.Index)}
}

// CreateIndex declares a hypothetical index on table(columns...) and
// returns its descriptor. Declaring the same key twice returns the existing
// descriptor, mirroring how what-if interfaces deduplicate candidates.
func (s *Session) CreateIndex(table string, columns ...string) (*catalog.Index, error) {
	t, err := s.checkSpec(table, columns)
	if err != nil {
		return nil, err
	}
	var buf [256]byte
	key := appendIndexKey(buf[:0], table, columns)
	if ix, ok := s.byKey[string(key)]; ok {
		return ix, nil
	}
	ix := storage.HypotheticalIndex(fmt.Sprintf("hypo_%s_%d", table, len(s.byKey)+1), t, columns)
	s.byKey[string(key)] = ix
	return ix, nil
}

// Transient describes table(columns...) under CreateIndex's validation
// without declaring it: the session neither retains nor deduplicates the
// descriptor, and is not written to. It is named as the n-th index
// (n ≥ 1) past those declared so far. Servers whose interner is full
// price never-seen specs through it.
func (s *Session) Transient(n int, table string, columns ...string) (*catalog.Index, error) {
	t, err := s.checkSpec(table, columns)
	if err != nil {
		return nil, err
	}
	return storage.HypotheticalIndex(fmt.Sprintf("hypo_%s_%d", table, len(s.byKey)+n), t, columns), nil
}

// checkSpec validates an index spec against the base catalog.
func (s *Session) checkSpec(table string, columns []string) (*catalog.Table, error) {
	t := s.base.Table(table)
	if t == nil {
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("whatif: index on %q needs at least one column", table)
	}
	seen := make(map[string]bool, len(columns))
	for _, col := range columns {
		if t.Column(col) == nil {
			return nil, fmt.Errorf("whatif: unknown column %s.%s", table, col)
		}
		if seen[col] {
			return nil, fmt.Errorf("whatif: duplicate column %q in index on %q", col, table)
		}
		seen[col] = true
	}
	return t, nil
}

// appendIndexKey appends the canonical table(col1,col2,...) dedup key
// CreateIndex and Lookup share — one format, one place to change it. Both
// build it in a 256-byte stack buffer (the wide design shapes' covering
// indexes run to about 250 bytes), so a probe allocates nothing.
func appendIndexKey(b []byte, table string, columns []string) []byte {
	b = append(append(b, table...), '(')
	for i, c := range columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(b, ')')
}

// Count returns the number of hypothetical indexes the session holds.
// Long-lived servers use it to bound their shared index interner.
func (s *Session) Count() int { return len(s.byKey) }

// Lookup returns the already-declared index on table(columns...), or nil
// — CreateIndex's dedup check without the side effect of declaring.
func (s *Session) Lookup(table string, columns ...string) *catalog.Index {
	var buf [256]byte
	return s.byKey[string(appendIndexKey(buf[:0], table, columns))]
}

// Config bundles the given indexes (hypothetical or real) into a planning
// configuration.
func Config(indexes ...*catalog.Index) *query.Config {
	return &query.Config{Indexes: indexes}
}

// CoveringConfig builds an atomic configuration covering the interesting
// order combination oc of query q: one single-column hypothetical index per
// non-Φ slot. This is how INUM's cache construction asks its per-combination
// what-if questions.
func (s *Session) CoveringConfig(q *query.Query, oc query.OrderCombo) (*query.Config, error) {
	cfg := &query.Config{}
	done := make(map[string]bool)
	for i, col := range oc {
		if col == "" {
			continue
		}
		table := q.Rels[i].Table.Name
		// Self-join slots share the table's physical indexes: one index
		// per distinct (table, order) pair suffices, since each relation
		// occurrence picks its own access path.
		key := table + ":" + col
		if done[key] {
			continue
		}
		done[key] = true
		ix, err := s.CreateIndex(table, col)
		if err != nil {
			return nil, err
		}
		cfg.Indexes = append(cfg.Indexes, ix)
	}
	return cfg, nil
}
