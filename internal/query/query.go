// Package query defines the bound (semantically analysed) query model the
// optimizer plans: base relations, an equi-join graph, single-table filter
// predicates, and output/grouping/ordering requirements.
//
// It also derives the paper's §II vocabulary: interesting orders (columns
// appearing in join, group-by, or order-by clauses), interesting order
// combinations (at most one order per table), and coverage of combinations
// by atomic index configurations.
package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/pinumdb/pinum/internal/catalog"
)

// ColRef names a column of a specific base relation, by relation index
// within the query (not by table name: self-joins get distinct indices).
type ColRef struct {
	Rel    int
	Column string
}

func (c ColRef) String() string { return fmt.Sprintf("r%d.%s", c.Rel, c.Column) }

// CmpOp is a filter comparison operator.
type CmpOp int

const (
	Eq CmpOp = iota
	Lt
	Le
	Gt
	Ge
	Between
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "BETWEEN"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Filter is a single-table predicate: col op Value (or BETWEEN Value and
// Value2). All filters in a query are implicitly AND-ed.
type Filter struct {
	Col    ColRef
	Op     CmpOp
	Value  int64
	Value2 int64 // upper bound for Between
}

func (f Filter) String() string {
	if f.Op == Between {
		return fmt.Sprintf("%s BETWEEN %d AND %d", f.Col, f.Value, f.Value2)
	}
	return fmt.Sprintf("%s %s %d", f.Col, f.Op, f.Value)
}

// Join is an equi-join predicate Left = Right between two relations.
type Join struct {
	Left, Right ColRef
}

func (j Join) String() string { return fmt.Sprintf("%s = %s", j.Left, j.Right) }

// Rel is one base relation in the FROM list.
type Rel struct {
	Table *catalog.Table
	Alias string
}

// Query is a bound select-project-join query with optional grouping and
// ordering, the fragment PINUM supports (the paper's implementation
// excludes complex sub-queries, inheritance and outer joins; so does ours).
type Query struct {
	Name    string // identifier used in reports (Q1..Q10)
	SQL     string // original text if parsed, else synthesised
	Rels    []Rel
	Joins   []Join
	Filters []Filter
	Select  []ColRef
	GroupBy []ColRef
	OrderBy []ColRef
}

// Validate checks internal consistency: every ColRef resolves to an
// existing relation and column, and joins link two distinct relations.
func (q *Query) Validate() error {
	if len(q.Rels) == 0 {
		return fmt.Errorf("query %s: no relations", q.Name)
	}
	check := func(c ColRef, what string) error {
		if c.Rel < 0 || c.Rel >= len(q.Rels) {
			return fmt.Errorf("query %s: %s references relation %d of %d", q.Name, what, c.Rel, len(q.Rels))
		}
		if q.Rels[c.Rel].Table.Column(c.Column) == nil {
			return fmt.Errorf("query %s: %s references unknown column %s.%s",
				q.Name, what, q.Rels[c.Rel].Table.Name, c.Column)
		}
		return nil
	}
	for _, c := range q.Select {
		if err := check(c, "select list"); err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if err := check(j.Left, "join"); err != nil {
			return err
		}
		if err := check(j.Right, "join"); err != nil {
			return err
		}
		if j.Left.Rel == j.Right.Rel {
			return fmt.Errorf("query %s: join %s relates a relation to itself", q.Name, j)
		}
	}
	for _, f := range q.Filters {
		if err := check(f.Col, "filter"); err != nil {
			return err
		}
		if f.Op == Between && f.Value2 < f.Value {
			return fmt.Errorf("query %s: empty BETWEEN range in %s", q.Name, f)
		}
	}
	for _, c := range q.GroupBy {
		if err := check(c, "group by"); err != nil {
			return err
		}
	}
	for _, c := range q.OrderBy {
		if err := check(c, "order by"); err != nil {
			return err
		}
	}
	return nil
}

// RelName returns a display name for relation i (alias if present).
func (q *Query) RelName(i int) string {
	r := q.Rels[i]
	if r.Alias != "" {
		return r.Alias
	}
	return r.Table.Name
}

// JoinGraphConnected reports whether the join predicates connect all
// relations (no cartesian products), which the DP join planner requires.
func (q *Query) JoinGraphConnected() bool {
	n := len(q.Rels)
	if n <= 1 {
		return true
	}
	adj := make([][]int, n)
	for _, j := range q.Joins {
		adj[j.Left.Rel] = append(adj[j.Left.Rel], j.Right.Rel)
		adj[j.Right.Rel] = append(adj[j.Right.Rel], j.Left.Rel)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ColumnsNeeded returns, per relation, the set of columns the query touches
// on that relation (select, join, filter, group, order). Index-only scans
// are possible when an index contains all of them.
func (q *Query) ColumnsNeeded() []map[string]bool {
	need := make([]map[string]bool, len(q.Rels))
	for i := range need {
		need[i] = make(map[string]bool)
	}
	add := func(c ColRef) { need[c.Rel][c.Column] = true }
	for _, c := range q.Select {
		add(c)
	}
	for _, j := range q.Joins {
		add(j.Left)
		add(j.Right)
	}
	for _, f := range q.Filters {
		add(f.Col)
	}
	for _, c := range q.GroupBy {
		add(c)
	}
	for _, c := range q.OrderBy {
		add(c)
	}
	return need
}

// InterestingOrders returns, for each relation, the sorted list of columns
// that are interesting orders for it: columns appearing in a join, group-by
// or order-by clause (paper §II definition 2).
func (q *Query) InterestingOrders() [][]string {
	sets := make([]map[string]bool, len(q.Rels))
	for i := range sets {
		sets[i] = make(map[string]bool)
	}
	for _, j := range q.Joins {
		sets[j.Left.Rel][j.Left.Column] = true
		sets[j.Right.Rel][j.Right.Column] = true
	}
	for _, c := range q.GroupBy {
		sets[c.Rel][c.Column] = true
	}
	for _, c := range q.OrderBy {
		sets[c.Rel][c.Column] = true
	}
	out := make([][]string, len(q.Rels))
	for i, s := range sets {
		cols := make([]string, 0, len(s))
		for c := range s {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		out[i] = cols
	}
	return out
}

// OrderCombo is an interesting order combination (paper §II definition 3):
// for each relation, either a column name or "" denoting Φ (no order).
type OrderCombo []string

// Key returns a canonical string form usable as a map key. Shipped code
// never keys by it: it is how TestComboEnumeration and plancache's
// TestSlimTreeCostEquivalence and TestSlimTreeShapeEquivalence
// (assertCacheEquivalent) compare combinations.
func (oc OrderCombo) Key() string {
	return strings.Join(oc, "|")
}

// String renders the combination with Φ for unordered slots.
func (oc OrderCombo) String() string {
	parts := make([]string, len(oc))
	for i, c := range oc {
		if c == "" {
			parts[i] = "Φ"
		} else {
			parts[i] = c
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Clone returns a copy.
func (oc OrderCombo) Clone() OrderCombo { return append(OrderCombo(nil), oc...) }

// EnumerateCombos enumerates every interesting order combination of the
// query: the cartesian product over relations of (Φ + each interesting
// order). For TPC-H Q5 the paper counts 648 of these.
func (q *Query) EnumerateCombos() []OrderCombo {
	ios := q.InterestingOrders()
	total := 1
	for _, list := range ios {
		total *= 1 + len(list)
	}
	out := make([]OrderCombo, 0, total)
	combo := make(OrderCombo, len(ios))
	var rec func(i int)
	rec = func(i int) {
		if i == len(ios) {
			out = append(out, combo.Clone())
			return
		}
		combo[i] = ""
		rec(i + 1)
		for _, col := range ios[i] {
			combo[i] = col
			rec(i + 1)
		}
		combo[i] = ""
	}
	rec(0)
	return out
}

// ComboCount returns the number of interesting order combinations without
// materialising them.
func (q *Query) ComboCount() int {
	n := 1
	for _, list := range q.InterestingOrders() {
		n *= 1 + len(list)
	}
	return n
}

// Config is an index configuration: a set of indexes identified by name in
// some catalog. A configuration is "atomic" w.r.t. a query when it holds at
// most one index per referenced table (paper §II definition 1).
type Config struct {
	Indexes []*catalog.Index
}

// Atomic reports whether the configuration is atomic with respect to q.
// Shipped code never asks: it is the check TestRandomAtomicConfigIsAtomic
// (package workload) and TestCoveringConfigIsAtomicAndCovers (package
// inum) hold their generators to.
func (cfg *Config) Atomic(q *Query) bool {
	perTable := make(map[string]int)
	for _, ix := range cfg.Indexes {
		perTable[ix.Table]++
	}
	for _, r := range q.Rels {
		if perTable[r.Table.Name] > 1 {
			return false
		}
	}
	return true
}

// String renders the configuration compactly; a nil configuration is the
// empty one, as everywhere a configuration is priced.
func (cfg *Config) String() string {
	if cfg == nil || len(cfg.Indexes) == 0 {
		return "{}"
	}
	parts := make([]string, len(cfg.Indexes))
	for i, ix := range cfg.Indexes {
		parts[i] = ix.Key()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
