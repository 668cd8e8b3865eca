package whatif

import (
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
)

func cat(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tb := &catalog.Table{Name: "t", RowCount: 1_000_000}
	for _, n := range []string{"id", "a", "b"} {
		tb.Columns = append(tb.Columns, &catalog.Column{Name: n, Type: catalog.Int, NDV: 1000, Min: 1, Max: 1000})
	}
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateIndexProperties(t *testing.T) {
	s := NewSession(cat(t))
	ix, err := s.CreateIndex("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Hypothetical {
		t.Error("session index not hypothetical")
	}
	if ix.LeafPages <= 0 {
		t.Error("no leaf page estimate")
	}
	if ix.InternalPages != 0 {
		t.Error("what-if index has internal pages (§V-A says ignore them)")
	}
	if !ix.Covers("a") || ix.Covers("b") {
		t.Error("Covers semantics wrong")
	}
}

func TestCreateIndexDeduplicates(t *testing.T) {
	s := NewSession(cat(t))
	a, err := s.CreateIndex("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateIndex("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same key produced distinct descriptors")
	}
	c, err := s.CreateIndex("t", "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different column order deduplicated")
	}
	if s.Count() != 2 {
		t.Errorf("session has %d indexes, want 2", s.Count())
	}
}

func TestCreateIndexValidation(t *testing.T) {
	s := NewSession(cat(t))
	if _, err := s.CreateIndex("missing", "a"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := s.CreateIndex("t"); err == nil {
		t.Error("empty column list accepted")
	}
	if _, err := s.CreateIndex("t", "zz"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := s.CreateIndex("t", "a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
}

// TestSessionDoesNotTouchBaseCatalog pins that hypothetical indexes live
// only in the session: declaring or describing one leaves the base
// catalog's tables as they were.
func TestSessionDoesNotTouchBaseCatalog(t *testing.T) {
	c := cat(t)
	tb := c.Table("t")
	cols := len(tb.Columns)
	s := NewSession(c)
	if _, err := s.CreateIndex("t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transient(1, "t", "b"); err != nil {
		t.Fatal(err)
	}
	if got := c.Tables(); len(got) != 1 || got[0] != tb || len(tb.Columns) != cols || c.NameSpace().Tables() != 1 {
		t.Error("a hypothetical index changed the base catalog")
	}
}

func TestConfigHelpers(t *testing.T) {
	s := NewSession(cat(t))
	ix, _ := s.CreateIndex("t", "a")
	cfg := Config(ix)
	if len(cfg.Indexes) != 1 {
		t.Error("Config helper wrong")
	}
}
