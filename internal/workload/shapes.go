// Join-graph shape generator: deterministic catalogs and queries whose
// join graphs have a requested topology (chain, cycle, star, snowflake,
// clique, or a random connected graph with tunable density). The optimizer
// equivalence suite, the fuzz target, the benchmarks, and the enumeration
// experiment all draw their non-star workloads from here, so every
// consumer exercises the same family of graphs.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
)

// Shape identifies a join-graph topology.
type Shape int

const (
	// ShapeChain joins relations in a line: 0—1—2—…—(n-1).
	ShapeChain Shape = iota
	// ShapeCycle closes the chain with an extra 0—(n-1) clause.
	ShapeCycle
	// ShapeStar joins every relation directly to relation 0.
	ShapeStar
	// ShapeSnowflake attaches a first level of dimensions to relation 0
	// and a second level to the first (two-deep star).
	ShapeSnowflake
	// ShapeClique joins every pair of relations.
	ShapeClique
	// ShapeRandom builds a random spanning tree plus extra edges chosen
	// with probability Density.
	ShapeRandom
	// ShapeWideChain is a chain of more relations than the optimizer's
	// packed plan keys hold (>16), exercising the wide fast-planner lane.
	ShapeWideChain
	// ShapeWideOrders joins two relations on enough distinct column
	// pairs that one relation's interesting orders overflow the packed
	// 6-bit column ids (>63).
	ShapeWideOrders
	// ShapeWideGroup groups on more columns than a packed output order
	// holds (>8).
	ShapeWideGroup
)

// Shapes lists every generated topology, in the order the decoder of
// FuzzOptimizeEquivalence (package optimizer) enumerates them; the
// optimizer's shape suites range over it too, and shipped code does not
// read it. New shapes append at the end: the position of existing entries
// is the fuzz corpus ABI.
var Shapes = []Shape{ShapeChain, ShapeCycle, ShapeStar, ShapeSnowflake, ShapeClique, ShapeRandom,
	ShapeWideChain, ShapeWideOrders, ShapeWideGroup}

func (s Shape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeCycle:
		return "cycle"
	case ShapeStar:
		return "star"
	case ShapeSnowflake:
		return "snowflake"
	case ShapeClique:
		return "clique"
	case ShapeRandom:
		return "random"
	case ShapeWideChain:
		return "wide-chain"
	case ShapeWideOrders:
		return "wide-orders"
	case ShapeWideGroup:
		return "wide-group"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ShapeSpec describes one generated query.
type ShapeSpec struct {
	Shape Shape
	// Rels is the number of relations (clamped to [2, 12]; ShapeWideChain
	// clamps to [17, 24] instead, ShapeWideOrders and ShapeWideGroup fix
	// their own relation counts).
	Rels int
	// Density applies to ShapeRandom: the probability of adding each
	// non-spanning-tree edge (0 reproduces a random tree, 1 the clique).
	Density float64
	// Seed drives table sizes, edge choices, filters, grouping and
	// ordering deterministically.
	Seed int64
}

// shapeEdges returns the topology's edge list as (lo, hi) relation pairs,
// lo < hi. Spanning-tree parents always carry a smaller index than their
// children, which is what lets every edge hang the foreign key on the
// lower-indexed side.
func shapeEdges(spec ShapeSpec, n int, rng *rand.Rand) [][2]int {
	var edges [][2]int
	seen := make(map[[2]int]bool)
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		e := [2]int{a, b}
		if seen[e] {
			return // e.g. the 2-relation cycle degenerates to the chain
		}
		seen[e] = true
		edges = append(edges, e)
	}
	switch spec.Shape {
	case ShapeChain, ShapeWideChain, ShapeWideGroup:
		for i := 0; i+1 < n; i++ {
			add(i, i+1)
		}
	case ShapeWideOrders:
		// No fk edges: ShapeQuery connects the two relations with
		// wideJoinCols direct clauses instead.
	case ShapeCycle:
		for i := 0; i+1 < n; i++ {
			add(i, i+1)
		}
		add(0, n-1)
	case ShapeStar:
		for i := 1; i < n; i++ {
			add(0, i)
		}
	case ShapeSnowflake:
		// First level: roughly half the dimensions attach to the hub;
		// the rest attach round-robin to the first level.
		level1 := (n - 1 + 1) / 2
		if level1 < 1 {
			level1 = 1
		}
		for i := 1; i <= level1 && i < n; i++ {
			add(0, i)
		}
		for i := level1 + 1; i < n; i++ {
			add(1+(i-level1-1)%level1, i)
		}
	case ShapeClique:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				add(i, j)
			}
		}
	case ShapeRandom:
		// Random spanning tree: each relation attaches to an earlier one.
		for i := 1; i < n; i++ {
			add(rng.Intn(i), i)
		}
		// Extra edges with probability Density, in deterministic pair order.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !seen[[2]int{i, j}] && rng.Float64() < spec.Density {
					add(i, j)
				}
			}
		}
	}
	return edges
}

// ShapeQuery builds a fresh catalog and a bound query whose join graph has
// the requested topology, with randomized-but-deterministic table sizes,
// 1 %-ish BETWEEN filters, and optional grouping and ordering. The same
// spec always yields the same catalog and query.
// wideJoinCols is the clause count of ShapeWideOrders: one more
// interesting order on the wide relation than the optimizer's packed
// 6-bit column ids can hold.
const wideJoinCols = 64

func ShapeQuery(spec ShapeSpec) (*catalog.Catalog, *query.Query, error) {
	n := spec.Rels
	switch spec.Shape {
	case ShapeWideChain:
		if n < 17 {
			n = 17
		}
		if n > 24 {
			n = 24
		}
	case ShapeWideOrders:
		n = 2
	case ShapeWideGroup:
		n = 3
	default:
		if n < 2 {
			n = 2
		}
		if n > 12 {
			n = 12
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	edges := shapeEdges(spec, n, rng)

	// Table sizes: relation 0 is the big (fact-like) one; the rest span
	// three orders of magnitude so join-order choices stay interesting.
	rows := make([]int64, n)
	rows[0] = 500_000 + int64(rng.Intn(1_500_000))
	for i := 1; i < n; i++ {
		rows[i] = 1_000 + int64(rng.Intn(200_000))
	}

	cat := catalog.New()
	const attrDomain = 1000
	for i := 0; i < n; i++ {
		t := &catalog.Table{Name: fmt.Sprintf("t%d", i), RowCount: rows[i]}
		t.Columns = append(t.Columns, &catalog.Column{
			Name: "id", Type: catalog.Int, NDV: rows[i], Min: 1, Max: rows[i], NotNull: true,
		})
		for _, e := range edges {
			if e[0] != i {
				continue
			}
			ndv := rows[e[1]]
			if ndv > rows[i] {
				ndv = rows[i]
			}
			t.Columns = append(t.Columns, &catalog.Column{
				Name: fmt.Sprintf("fk_t%d", e[1]), Type: catalog.Int,
				NDV: ndv, Min: 1, Max: rows[e[1]], NotNull: true,
			})
		}
		if spec.Shape == ShapeWideOrders && i == 0 {
			// The wide relation: one join column per clause, so its
			// interesting orders overflow the packed ids.
			for k := 0; k < wideJoinCols; k++ {
				ndv := rows[1]
				if ndv > rows[0] {
					ndv = rows[0]
				}
				t.Columns = append(t.Columns, &catalog.Column{
					Name: fmt.Sprintf("w%d", k), Type: catalog.Int,
					NDV: ndv, Min: 1, Max: rows[1], NotNull: true,
				})
			}
		}
		attrs := 2
		if spec.Shape == ShapeWideGroup {
			attrs = 3 // three per relation: nine grouping columns below
		}
		for a := 1; a <= attrs; a++ {
			t.Columns = append(t.Columns, &catalog.Column{
				Name: fmt.Sprintf("a%d", a), Type: catalog.Int,
				NDV: attrDomain, Min: 1, Max: attrDomain,
			})
		}
		if err := cat.AddTable(t); err != nil {
			return nil, nil, err
		}
	}

	q := &query.Query{Name: fmt.Sprintf("%s-%d", spec.Shape, n)}
	for i := 0; i < n; i++ {
		q.Rels = append(q.Rels, query.Rel{Table: cat.Table(fmt.Sprintf("t%d", i))})
	}
	for _, e := range edges {
		q.Joins = append(q.Joins, query.Join{
			Left:  query.ColRef{Rel: e[0], Column: fmt.Sprintf("fk_t%d", e[1])},
			Right: query.ColRef{Rel: e[1], Column: "id"},
		})
	}
	if spec.Shape == ShapeWideOrders {
		for k := 0; k < wideJoinCols; k++ {
			q.Joins = append(q.Joins, query.Join{
				Left:  query.ColRef{Rel: 0, Column: fmt.Sprintf("w%d", k)},
				Right: query.ColRef{Rel: 1, Column: "id"},
			})
		}
	}

	// Two select columns from distinct relations, ~1 % BETWEEN filters on
	// about half the relations, and grouping/ordering half the time each.
	q.Select = []query.ColRef{
		{Rel: rng.Intn(n), Column: "a1"},
		{Rel: rng.Intn(n), Column: "a2"},
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		lo := int64(1 + rng.Intn(attrDomain-20))
		q.Filters = append(q.Filters, query.Filter{
			Col: query.ColRef{Rel: i, Column: "a1"}, Op: query.Between,
			Value: lo, Value2: lo + int64(rng.Intn(10)),
		})
	}
	if rng.Intn(2) == 0 {
		q.GroupBy = []query.ColRef{q.Select[0]}
	}
	if rng.Intn(2) == 0 {
		ob := q.Select[1]
		if len(q.GroupBy) > 0 {
			ob = q.GroupBy[0]
		}
		q.OrderBy = []query.ColRef{ob}
	}
	if spec.Shape == ShapeWideGroup {
		// Nine grouping columns: past the packed output-order capacity.
		q.GroupBy = q.GroupBy[:0]
		for i := 0; i < n; i++ {
			for a := 1; a <= 3; a++ {
				q.GroupBy = append(q.GroupBy, query.ColRef{Rel: i, Column: fmt.Sprintf("a%d", a)})
			}
		}
		q.OrderBy = nil
	}
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	return cat, q, nil
}

// ShapeAllOrdersConfig covers every interesting order of every relation
// with one covering hypothetical index (the cache-construction call's
// configuration), built from the query alone.
func ShapeAllOrdersConfig(cat *catalog.Catalog, q *query.Query) *query.Config {
	cfg := &query.Config{}
	ios := q.InterestingOrders()
	needed := q.ColumnsNeeded()
	for i, cols := range ios {
		t := q.Rels[i].Table
		for _, lead := range cols {
			ixCols := []string{lead}
			var rest []string
			for c := range needed[i] {
				if c != lead {
					rest = append(rest, c)
				}
			}
			sort.Strings(rest)
			ixCols = append(ixCols, rest...)
			cfg.Indexes = append(cfg.Indexes, storage.HypotheticalIndex(
				fmt.Sprintf("ao_%d_%s", i, lead), t, ixCols))
		}
	}
	return cfg
}

// ShapeConfigs builds n random index configurations for the query (thin or
// covering indexes on random interesting orders), plus the all-orders
// covering configuration first, mirroring the optimizer equivalence
// suite's configuration family without depending on an Analysis.
func ShapeConfigs(rng *rand.Rand, cat *catalog.Catalog, q *query.Query, n int) []*query.Config {
	out := []*query.Config{ShapeAllOrdersConfig(cat, q)}
	ios := q.InterestingOrders()
	needed := q.ColumnsNeeded()
	for c := 0; c < n; c++ {
		cfg := &query.Config{}
		for i, cols := range ios {
			if len(cols) == 0 || rng.Intn(3) == 0 {
				continue
			}
			lead := cols[rng.Intn(len(cols))]
			ixCols := []string{lead}
			if rng.Intn(2) == 0 { // widen toward covering
				var rest []string
				for other := range needed[i] {
					if other != lead {
						rest = append(rest, other)
					}
				}
				sort.Strings(rest)
				ixCols = append(ixCols, rest...)
			}
			cfg.Indexes = append(cfg.Indexes, storage.HypotheticalIndex(
				fmt.Sprintf("sh_%d_%d_%d", c, i, len(cfg.Indexes)), q.Rels[i].Table, ixCols))
		}
		out = append(out, cfg)
	}
	return out
}
