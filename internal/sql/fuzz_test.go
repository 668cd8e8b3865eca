package sql_test

import (
	"reflect"
	"testing"

	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/workload"
)

// stripped returns the statement without what a rendering cannot carry back:
// token offsets and the original text.
func stripped(s *sql.SelectStmt) sql.SelectStmt {
	out := *s
	out.Text = ""
	cols := func(in []sql.ColumnExpr) []sql.ColumnExpr {
		if in == nil {
			return nil
		}
		c := make([]sql.ColumnExpr, len(in))
		for i, e := range in {
			e.Pos = 0
			c[i] = e
		}
		return c
	}
	out.Columns, out.GroupBy, out.OrderBy = cols(s.Columns), cols(s.GroupBy), cols(s.OrderBy)
	if s.From != nil {
		out.From = make([]sql.TableExpr, len(s.From))
		for i, t := range s.From {
			t.Pos = 0
			out.From[i] = t
		}
	}
	if s.Where != nil {
		out.Where = make([]sql.Predicate, len(s.Where))
		for i, p := range s.Where {
			p.Pos, p.Left.Pos, p.Right.Pos = 0, 0, 0
			out.Where[i] = p
		}
	}
	return out
}

// FuzzSQLParse holds the parser that reads /explain's SQL off the wire to a
// fixpoint: whatever Parse accepts, String renders as text Parse accepts
// again, into the same statement, which renders to the same text — and
// neither step panics on any input. Seeds: the statements of sql_test.go
// and the star workload's generated SQL.
func FuzzSQLParse(f *testing.F) {
	for _, src := range []string{
		"SELECT a, t.b FROM t WHERE a >= 10 AND b BETWEEN 1 AND 2 -- comment\nORDER BY a",
		"SELECT o.amount, customers.region FROM orders o, customers " +
			"WHERE o.customer_id = customers.id AND o.amount BETWEEN 10 AND 20 AND o.order_date >= 5 " +
			"GROUP BY customers.region, o.amount ORDER BY o.amount DESC",
		"SELECT * FROM orders",
		"SELECT DISTINCT region FROM customers",
		"SELECT amount, region FROM orders, customers WHERE orders.customer_id = customers.id AND amount BETWEEN 10 AND 20 ORDER BY region",
		"SELECT a.id, b.id FROM customers a, customers b WHERE a.segment = b.id",
		"SELECT amount FROM orders WHERE id = amount AND id = 1",
		"SELECT a FROM t WHERE a < b",
		"SELECT a FROM t trailing garbage (",
		"select 'unterminated",
		"SELECT a FROM t WHERE a <> -3",
	} {
		f.Add(src)
	}
	s, err := workload.StarSchema(1.0)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		qs, err := s.Queries(seed)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range qs {
			f.Add(q.SQL)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, err := sql.Parse(src)
		if err != nil {
			return
		}
		text := first.String()
		again, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(stripped(again), stripped(first)) {
			t.Fatalf("Parse(%q) renders as %q, which parses differently:\n  %+v\n  %+v", src, text, stripped(first), stripped(again))
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders as %q, and that as %q", src, text, got)
		}
	})
}
