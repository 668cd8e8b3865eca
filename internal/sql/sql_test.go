package sql

import (
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	add := func(name string, rows int64, cols ...string) {
		tb := &catalog.Table{Name: name, RowCount: rows}
		for _, cn := range cols {
			tb.Columns = append(tb.Columns, &catalog.Column{Name: cn, Type: catalog.Int, NDV: rows, Min: 1, Max: rows})
		}
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	add("orders", 10000, "id", "customer_id", "amount", "order_date")
	add("customers", 1000, "id", "region", "segment")
	return c
}

// mustParseBind parses and binds src, failing the test on error.
func mustParseBind(t *testing.T, src string, cat *catalog.Catalog, name string) *query.Query {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Bind(stmt, cat, name)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, t.b FROM t WHERE a >= 10 AND b BETWEEN 1 AND 2 -- comment\nORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if kinds[0] != TokKeyword || toks[0].Text != "SELECT" {
		t.Errorf("first token %+v", toks[0])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
	// The comment must be skipped entirely.
	for _, tok := range toks {
		if strings.Contains(tok.Text, "comment") {
			t.Error("comment leaked into tokens")
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"select 'unterminated", "select ~", "a - b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) accepted", src)
		}
	}
}

func TestParseFullQuery(t *testing.T) {
	stmt, err := Parse("SELECT o.amount, customers.region FROM orders o, customers " +
		"WHERE o.customer_id = customers.id AND o.amount BETWEEN 10 AND 20 AND o.order_date >= 5 " +
		"GROUP BY customers.region, o.amount ORDER BY o.amount DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Columns) != 2 || len(stmt.From) != 2 || len(stmt.Where) != 3 {
		t.Fatalf("parsed shape: %d cols, %d from, %d where", len(stmt.Columns), len(stmt.From), len(stmt.Where))
	}
	if stmt.From[0].Alias != "o" {
		t.Errorf("alias = %q", stmt.From[0].Alias)
	}
	if stmt.Where[0].Kind != PredJoin || stmt.Where[1].Kind != PredBetween || stmt.Where[2].Kind != PredCompare {
		t.Error("predicate kinds wrong")
	}
	if len(stmt.GroupBy) != 2 || len(stmt.OrderBy) != 1 {
		t.Error("group/order parse wrong")
	}
	// Round trip through String() must re-parse.
	if _, err := Parse(stmt.String()); err != nil {
		t.Errorf("String() output does not re-parse: %v", err)
	}
}

func TestParseStarAndDistinct(t *testing.T) {
	stmt, err := Parse("SELECT * FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Star {
		t.Error("star not detected")
	}
	stmt, err = Parse("SELECT DISTINCT region FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Distinct {
		t.Error("distinct not detected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a <",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a < b", // non-equality join
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing garbage (",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestBindResolvesAndSeparates(t *testing.T) {
	cat := testCatalog(t)
	q := mustParseBind(t, "SELECT amount, region FROM orders, customers "+
		"WHERE orders.customer_id = customers.id AND amount BETWEEN 10 AND 20 "+
		"ORDER BY region", cat, "q1")
	if len(q.Rels) != 2 || len(q.Joins) != 1 || len(q.Filters) != 1 {
		t.Fatalf("bound shape: %d rels %d joins %d filters", len(q.Rels), len(q.Joins), len(q.Filters))
	}
	if q.Joins[0].Left.Rel == q.Joins[0].Right.Rel {
		t.Error("join binds to one relation")
	}
	// Unqualified "amount" resolves to orders, "region" to customers.
	if q.Filters[0].Col.Rel != 0 {
		t.Errorf("filter bound to rel %d", q.Filters[0].Col.Rel)
	}
	if q.OrderBy[0].Rel != 1 {
		t.Errorf("order-by bound to rel %d", q.OrderBy[0].Rel)
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT x FROM orders",                                   // unknown column
		"SELECT id FROM orders, customers",                       // ambiguous + cartesian
		"SELECT amount FROM nope",                                // unknown table
		"SELECT amount FROM orders o, orders o",                  // duplicate alias
		"SELECT o.zz FROM orders o",                              // unknown qualified column
		"SELECT q.amount FROM orders o",                          // unknown qualifier
		"SELECT amount FROM orders, customers",                   // cartesian product
		"SELECT amount FROM orders WHERE id = amount AND id = 1", // self-join predicate
	}
	for _, src := range bad {
		stmt, err := Parse(src)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := Bind(stmt, cat, "q"); err == nil {
			t.Errorf("Bind(%q) accepted", src)
		}
	}
}

func TestBindDistinctBecomesGrouping(t *testing.T) {
	cat := testCatalog(t)
	q := mustParseBind(t, "SELECT DISTINCT region FROM customers", cat, "qd")
	if len(q.GroupBy) != 1 || q.GroupBy[0] != (query.ColRef{Rel: 0, Column: "region"}) {
		t.Errorf("distinct did not become grouping: %v", q.GroupBy)
	}
}

func TestBindSelfJoinWithAliases(t *testing.T) {
	cat := testCatalog(t)
	q := mustParseBind(t, "SELECT a.id, b.id FROM customers a, customers b WHERE a.segment = b.id", cat, "self")
	if len(q.Rels) != 2 {
		t.Fatalf("%d rels", len(q.Rels))
	}
	if q.Joins[0].Left.Rel == q.Joins[0].Right.Rel {
		t.Error("self-join collapsed to one relation")
	}
}
