package sql

import (
	"fmt"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
)

// Bind resolves a parsed statement against the catalog and produces the
// optimizer's bound query model. It implements the role of the paper's
// "query preprocessor": static analysis, name resolution, and separation of
// join predicates from single-table filters.
func Bind(stmt *SelectStmt, cat *catalog.Catalog, name string) (*query.Query, error) {
	q := &query.Query{Name: name, SQL: stmt.Text}

	byName := make(map[string]int)
	for _, te := range stmt.From {
		t := cat.Table(te.Name)
		if t == nil {
			return nil, fmt.Errorf("sql: unknown table %q", te.Name)
		}
		idx := len(q.Rels)
		q.Rels = append(q.Rels, query.Rel{Table: t, Alias: te.Alias})
		key := te.Name
		if te.Alias != "" {
			key = te.Alias
		}
		if _, dup := byName[key]; dup {
			return nil, fmt.Errorf("sql: duplicate table name or alias %q (use aliases for self-joins)", key)
		}
		byName[key] = idx
	}

	resolve := func(c ColumnExpr) (query.ColRef, error) {
		if c.Qualifier != "" {
			idx, ok := byName[c.Qualifier]
			if !ok {
				return query.ColRef{}, fmt.Errorf("sql: unknown table or alias %q", c.Qualifier)
			}
			if q.Rels[idx].Table.Column(c.Name) == nil {
				return query.ColRef{}, fmt.Errorf("sql: table %q has no column %q", c.Qualifier, c.Name)
			}
			return query.ColRef{Rel: idx, Column: c.Name}, nil
		}
		found := -1
		for i, r := range q.Rels {
			if r.Table.Column(c.Name) != nil {
				if found >= 0 {
					return query.ColRef{}, fmt.Errorf("sql: column %q is ambiguous", c.Name)
				}
				found = i
			}
		}
		if found < 0 {
			return query.ColRef{}, fmt.Errorf("sql: unknown column %q", c.Name)
		}
		return query.ColRef{Rel: found, Column: c.Name}, nil
	}

	if stmt.Star {
		for i, r := range q.Rels {
			for _, col := range r.Table.Columns {
				q.Select = append(q.Select, query.ColRef{Rel: i, Column: col.Name})
			}
		}
	} else {
		for _, c := range stmt.Columns {
			ref, err := resolve(c)
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, ref)
		}
	}

	for _, pr := range stmt.Where {
		switch pr.Kind {
		case PredJoin:
			l, err := resolve(pr.Left)
			if err != nil {
				return nil, err
			}
			r, err := resolve(pr.Right)
			if err != nil {
				return nil, err
			}
			if l.Rel == r.Rel {
				return nil, fmt.Errorf("sql: join predicate %s relates a table to itself", pr)
			}
			q.Joins = append(q.Joins, query.Join{Left: l, Right: r})
		case PredBetween:
			c, err := resolve(pr.Left)
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, query.Filter{Col: c, Op: query.Between, Value: pr.Value, Value2: pr.Hi})
		default:
			c, err := resolve(pr.Left)
			if err != nil {
				return nil, err
			}
			var op query.CmpOp
			switch pr.Op {
			case OpEq:
				op = query.Eq
			case OpLt:
				op = query.Lt
			case OpLe:
				op = query.Le
			case OpGt:
				op = query.Gt
			case OpGe:
				op = query.Ge
			}
			q.Filters = append(q.Filters, query.Filter{Col: c, Op: op, Value: pr.Value})
		}
	}

	for _, c := range stmt.GroupBy {
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, ref)
	}
	// SELECT DISTINCT is treated as grouping on the select list, the same
	// rewrite PostgreSQL's grouping planner applies.
	if stmt.Distinct && len(stmt.GroupBy) == 0 {
		q.GroupBy = append(q.GroupBy, q.Select...)
	}
	for _, c := range stmt.OrderBy {
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		q.OrderBy = append(q.OrderBy, ref)
	}

	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.JoinGraphConnected() {
		return nil, fmt.Errorf("sql: query %s has a disconnected join graph (cartesian products are not supported)", name)
	}
	return q, nil
}
