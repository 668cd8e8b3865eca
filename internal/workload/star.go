// Package workload generates the paper's experimental workloads: the
// synthetic 10 GB star-schema database with one fact table and 28 dimension
// tables arranged in a hierarchy (§VI-A), the 10-query analytical workload
// over it, the TPC-H Q5 analogue used in the §IV redundancy analysis, and
// random atomic configurations for the accuracy experiments.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/stats"
)

// AttrDomain is the value domain of non-key attribute columns; BETWEEN
// filters spanning 1 % of it reproduce the paper's "where clauses with 1 %
// selectivity".
const AttrDomain = 100000

// Dimension hierarchy shape: 8 first-level dimensions referenced by the
// fact table, 12 second-level dimensions referenced by first-level ones,
// and 8 third-level dimensions referenced by second-level ones — 28 in all,
// "the dimension tables themselves have other dimension tables and so on".
const (
	level1Dims = 8
	level2Dims = 12
	level3Dims = 8
)

// Star describes the generated star-schema database.
type Star struct {
	Catalog *catalog.Catalog
	Stats   *stats.Store
	// Fact is the central fact table.
	Fact *catalog.Table
	// Dims holds the 28 dimension tables, level 1 first.
	Dims []*catalog.Table
	// Scale is the size multiplier relative to the paper's 10 GB database
	// (1.0 reproduces the paper's statistics).
	Scale float64
}

// factRows at scale 1.0 yields a ≈9.3 GB fact table, which with the
// dimension tables totals ≈10 GB, the paper's database size.
const factRowsScale1 = 35_000_000

// StarSchema builds the star-schema catalog and statistics at the given
// scale. Scale 1.0 is the paper's 10 GB database; the physical-execution
// experiments use a small scale with the same schema.
func StarSchema(scale float64) (*Star, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %g", scale)
	}
	s := &Star{Catalog: catalog.New(), Stats: stats.NewStore(), Scale: scale}

	rows := func(base int64) int64 {
		r := int64(float64(base) * scale)
		if r < 10 {
			r = 10
		}
		return r
	}

	// Third-level dimensions first, so foreign keys resolve upward.
	type dimSpec struct {
		name     string
		rows     int64
		attrs    int
		children []string // child dimension tables this one references
	}
	var specs []dimSpec
	for i := 0; i < level3Dims; i++ {
		specs = append(specs, dimSpec{
			name:  fmt.Sprintf("dim3_%d", i+1),
			rows:  rows(10_000 + int64(i)*2_000),
			attrs: 2,
		})
	}
	for i := 0; i < level2Dims; i++ {
		sp := dimSpec{
			name:  fmt.Sprintf("dim2_%d", i+1),
			rows:  rows(100_000 + int64(i)*20_000),
			attrs: 3,
		}
		// The first 8 second-level dimensions each reference one
		// third-level dimension.
		if i < level3Dims {
			sp.children = []string{fmt.Sprintf("dim3_%d", i+1)}
		}
		specs = append(specs, sp)
	}
	for i := 0; i < level1Dims; i++ {
		sp := dimSpec{
			name:  fmt.Sprintf("dim1_%d", i+1),
			rows:  rows(1_000_000 + int64(i)*250_000),
			attrs: 4,
		}
		// Each first-level dimension references up to two second-level
		// dimensions.
		c1 := i % level2Dims
		c2 := (i + level1Dims) % level2Dims
		sp.children = []string{fmt.Sprintf("dim2_%d", c1+1)}
		if c2 != c1 {
			sp.children = append(sp.children, fmt.Sprintf("dim2_%d", c2+1))
		}
		specs = append(specs, sp)
	}

	for _, sp := range specs {
		t, err := s.makeDim(sp.name, sp.rows, sp.attrs, sp.children)
		if err != nil {
			return nil, err
		}
		s.Dims = append(s.Dims, t)
	}

	// The fact table references every first-level dimension.
	fact := &catalog.Table{Name: "fact", RowCount: rows(factRowsScale1)}
	fact.Columns = append(fact.Columns, &catalog.Column{
		Name: "id", Type: catalog.Int, NDV: fact.RowCount, Min: 1, Max: fact.RowCount, NotNull: true,
	})
	for i := 0; i < level1Dims; i++ {
		dim := s.Catalog.Table(fmt.Sprintf("dim1_%d", i+1))
		col := fmt.Sprintf("fk_dim1_%d", i+1)
		fact.Columns = append(fact.Columns, &catalog.Column{
			Name: col, Type: catalog.Int, NDV: dim.RowCount, Min: 1, Max: dim.RowCount, NotNull: true,
		})
		fact.ForeignKeys = append(fact.ForeignKeys, catalog.ForeignKey{
			Column: col, RefTable: dim.Name, RefColumn: "id",
		})
	}
	for i := 0; i < 12; i++ {
		fact.Columns = append(fact.Columns, &catalog.Column{
			Name: fmt.Sprintf("m%d", i+1), Type: catalog.Int,
			NDV: AttrDomain, Min: 1, Max: AttrDomain,
		})
	}
	for i := 0; i < 8; i++ {
		fact.Columns = append(fact.Columns, &catalog.Column{
			Name: fmt.Sprintf("a%d", i+1), Type: catalog.Int,
			NDV: AttrDomain, Min: 1, Max: AttrDomain,
		})
	}
	if err := s.Catalog.AddTable(fact); err != nil {
		return nil, err
	}
	s.Fact = fact
	s.attachUniformStats(fact)
	return s, nil
}

func (s *Star) makeDim(name string, rowCount int64, attrs int, children []string) (*catalog.Table, error) {
	t := &catalog.Table{Name: name, RowCount: rowCount}
	t.Columns = append(t.Columns, &catalog.Column{
		Name: "id", Type: catalog.Int, NDV: rowCount, Min: 1, Max: rowCount, NotNull: true,
	})
	for _, child := range children {
		ct := s.Catalog.Table(child)
		if ct == nil {
			return nil, fmt.Errorf("workload: dimension %q references unknown child %q", name, child)
		}
		col := "fk_" + child
		t.Columns = append(t.Columns, &catalog.Column{
			Name: col, Type: catalog.Int, NDV: ct.RowCount, Min: 1, Max: ct.RowCount, NotNull: true,
		})
		t.ForeignKeys = append(t.ForeignKeys, catalog.ForeignKey{
			Column: col, RefTable: child, RefColumn: "id",
		})
	}
	for i := 0; i < attrs; i++ {
		t.Columns = append(t.Columns, &catalog.Column{
			Name: fmt.Sprintf("a%d", i+1), Type: catalog.Int,
			NDV: AttrDomain, Min: 1, Max: AttrDomain,
		})
	}
	if err := s.Catalog.AddTable(t); err != nil {
		return nil, err
	}
	s.attachUniformStats(t)
	return t, nil
}

// attachUniformStats installs uniform histograms for every column, matching
// the paper's "columns ... uniformly distributed across all positive
// integers" (scaled to each column's domain).
func (s *Star) attachUniformStats(t *catalog.Table) {
	for _, c := range t.Columns {
		ndv := c.NDV
		if ndv <= 0 {
			ndv = t.RowCount
		}
		h := stats.Uniform(c.Min, c.Max, t.RowCount, ndv, 64)
		s.Stats.Set(t.Name, c.Name, &stats.ColumnStats{
			Rows:     t.RowCount,
			Distinct: ndv,
			Min:      c.Min,
			Max:      c.Max,
			Hist:     h,
		})
	}
}

// joinEdge describes one usable foreign-key edge from table From.FromCol to
// table To."id".
type joinEdge struct {
	From    string
	FromCol string
	To      string
}

// edges returns every foreign-key edge in the schema.
func (s *Star) edges() []joinEdge {
	var out []joinEdge
	for _, t := range s.Catalog.Tables() {
		for _, fk := range t.ForeignKeys {
			out = append(out, joinEdge{From: t.Name, FromCol: fk.Column, To: fk.RefTable})
		}
	}
	return out
}

// Queries generates the 10-query workload of §VI-A: each query joins a
// subset of tables along foreign keys (2 up to 7 tables), selects random
// columns, filters with ≈1 % selectivity BETWEEN predicates, and orders by
// a column; some queries also group. The generation is deterministic in the
// seed.
func (s *Star) Queries(seed int64) ([]*query.Query, error) {
	rng := rand.New(rand.NewSource(seed))
	// Table counts per query, ascending so Q1 is the simplest and Q10 the
	// widest join, as in the paper's figures.
	sizes := []int{2, 2, 3, 3, 4, 4, 5, 5, 6, 7}
	queries := make([]*query.Query, 0, len(sizes))
	for qi, n := range sizes {
		name := fmt.Sprintf("Q%d", qi+1)
		sqlText := s.generateSQL(rng, n, qi)
		stmt, err := sql.Parse(sqlText)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %v (sql: %s)", name, err, sqlText)
		}
		q, err := sql.Bind(stmt, s.Catalog, name)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %v (sql: %s)", name, err, sqlText)
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// generateSQL builds one random star query joining n tables, starting from
// the fact table and walking foreign-key edges.
func (s *Star) generateSQL(rng *rand.Rand, n, qi int) string {
	edges := s.edges()
	inQuery := map[string]bool{"fact": true}
	order := []string{"fact"}
	var joins []string
	for len(order) < n {
		// Candidate edges from an included table to an excluded one.
		var cands []joinEdge
		for _, e := range edges {
			if inQuery[e.From] && !inQuery[e.To] {
				cands = append(cands, e)
			}
		}
		if len(cands) == 0 {
			break
		}
		e := cands[rng.Intn(len(cands))]
		inQuery[e.To] = true
		order = append(order, e.To)
		joins = append(joins, fmt.Sprintf("%s.%s = %s.id", e.From, e.FromCol, e.To))
	}

	// Random select columns: 2–4 attribute/measure columns, drawn from a
	// small "hot" pool per table. Analytical workloads reuse a handful of
	// measures across queries; the overlap is what lets the advisor's
	// covering indexes serve several queries within the space budget.
	var selects []string
	nSel := 2 + rng.Intn(3)
	for i := 0; i < nSel; i++ {
		t := s.Catalog.Table(order[rng.Intn(len(order))])
		col := hotColumn(t, rng)
		if col == "" {
			continue
		}
		ref := t.Name + "." + col
		dup := false
		for _, prev := range selects {
			if prev == ref {
				dup = true
				break
			}
		}
		if !dup {
			selects = append(selects, ref)
		}
	}
	if len(selects) == 0 {
		selects = []string{"fact.m1"}
	}

	// 1–2 BETWEEN filters with ~1 % selectivity on attribute columns,
	// also drawn from the hot pool.
	var filters []string
	nFil := 1 + rng.Intn(2)
	for i := 0; i < nFil; i++ {
		t := s.Catalog.Table(order[rng.Intn(len(order))])
		col := hotColumn(t, rng)
		if col == "" {
			continue
		}
		width := AttrDomain / 100 // 1 % of the domain
		lo := 1 + rng.Intn(AttrDomain-width)
		filters = append(filters, fmt.Sprintf("%s.%s BETWEEN %d AND %d", t.Name, col, lo, lo+width-1))
	}

	// ORDER BY one column of a joined table; every third query also
	// groups, exercising the grouping planner's interesting orders.
	ot := s.Catalog.Table(order[rng.Intn(len(order))])
	oCol := hotColumn(ot, rng)
	if oCol == "" {
		oCol = "id"
	}
	groupBy := ""
	if qi%3 == 2 {
		gt := s.Catalog.Table(order[rng.Intn(len(order))])
		gCol := hotColumn(gt, rng)
		if gCol != "" {
			// Group on the order column too so ORDER BY remains valid
			// grouping-wise.
			groupBy = fmt.Sprintf(" GROUP BY %s.%s, %s.%s", gt.Name, gCol, ot.Name, oCol)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", strings.Join(selects, ", "), strings.Join(order, ", "))
	conds := append(append([]string{}, joins...), filters...)
	if len(conds) > 0 {
		fmt.Fprintf(&b, " WHERE %s", strings.Join(conds, " AND "))
	}
	b.WriteString(groupBy)
	fmt.Fprintf(&b, " ORDER BY %s.%s", ot.Name, oCol)
	return b.String()
}

// hotColumn picks from the first few attribute columns of t, modelling the
// column reuse real analytical workloads exhibit.
func hotColumn(t *catalog.Table, rng *rand.Rand) string {
	cands := attrColumns(t)
	if len(cands) == 0 {
		return ""
	}
	hot := 3
	if hot > len(cands) {
		hot = len(cands)
	}
	return cands[rng.Intn(hot)]
}

func attrColumns(t *catalog.Table) []string {
	var cands []string
	for _, c := range t.Columns {
		if c.Name == "id" || strings.HasPrefix(c.Name, "fk_") {
			continue
		}
		cands = append(cands, c.Name)
	}
	return cands
}

// SetTableRows changes one table's row count and refreshes its uniform
// column statistics to match — the statistics-drift injection hook used
// by hot-reload tests and the daemon's -stats-overrides flag. Only the
// named table's statistics move, so queries that never touch it keep
// bit-identical costs across a reload.
func (s *Star) SetTableRows(name string, rows int64) error {
	if rows <= 0 {
		return fmt.Errorf("workload: row count for %s must be positive, got %d", name, rows)
	}
	t := s.Catalog.Table(name)
	if t == nil {
		return fmt.Errorf("workload: no table %s", name)
	}
	t.RowCount = rows
	t.Pages = 0 // re-derive heap size from the new row count
	s.attachUniformStats(t)
	return nil
}

// Q5Analogue builds the 6-table query used for the §IV analysis. Its
// interesting-order structure yields exactly 648 interesting order
// combinations, the number the paper reports for TPC-H Q5:
//
//	fact joins dim1_1, dim1_2, dim1_3 (3 orders on fact → factor 4),
//	dim1_1 joins its child (pk + fk orders → 3), dim1_3 joins its child's
//	sibling... with grouping and ordering columns adding one order each:
//	4 × 3 × 3 × 3 × 2 × 3 = 648.
func (s *Star) Q5Analogue() (*query.Query, error) {
	d1 := s.Catalog.Table("dim1_1")
	d3 := s.Catalog.Table("dim1_3")
	if d1 == nil || d3 == nil || len(d1.ForeignKeys) == 0 || len(d3.ForeignKeys) == 0 {
		return nil, fmt.Errorf("workload: star schema misses expected dimensions")
	}
	child1 := d1.ForeignKeys[0] // dim1_1 → its second-level child
	child3 := d3.ForeignKeys[0] // dim1_3 → its second-level child
	sqlText := fmt.Sprintf(
		"SELECT fact.m1, dim1_2.a1, %s.a1 "+
			"FROM fact, dim1_1, dim1_2, dim1_3, %s, %s "+
			"WHERE fact.fk_dim1_1 = dim1_1.id AND fact.fk_dim1_2 = dim1_2.id AND fact.fk_dim1_3 = dim1_3.id "+
			"AND dim1_1.%s = %s.id AND dim1_3.%s = %s.id "+
			"AND fact.a1 BETWEEN 1 AND %d "+
			"GROUP BY dim1_2.a1, %s.a1 ORDER BY %s.a1",
		child3.RefTable,
		child1.RefTable, child3.RefTable,
		child1.Column, child1.RefTable, child3.Column, child3.RefTable,
		AttrDomain/100,
		child3.RefTable, child3.RefTable,
	)
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return sql.Bind(stmt, s.Catalog, "Q5-analogue")
}
