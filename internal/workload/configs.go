package workload

import (
	"math/rand"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
)

// RandomAtomicConfig draws a random atomic configuration for the analysed
// query: for each relation, with the given probability, one hypothetical
// index over 1–3 of the columns the query references on that relation
// (experiment E2 uses 1000 of these per query, as §VI-C does).
func RandomAtomicConfig(rng *rand.Rand, a *optimizer.Analysis, ws *whatif.Session, indexProb float64) (*query.Config, error) {
	cfg := &query.Config{}
	seen := make(map[string]bool)
	for i := range a.Rels {
		ri := &a.Rels[i]
		if seen[ri.Table.Name] {
			continue // self-joins: one index per table keeps the config atomic
		}
		if rng.Float64() >= indexProb {
			continue
		}
		cols := append([]string(nil), ri.Needed...) // shuffled below
		if len(cols) == 0 {
			continue
		}
		rng.Shuffle(len(cols), func(x, y int) { cols[x], cols[y] = cols[y], cols[x] })
		n := 1 + rng.Intn(3)
		if n > len(cols) {
			n = len(cols)
		}
		ix, err := ws.CreateIndex(ri.Table.Name, cols[:n]...)
		if err != nil {
			return nil, err
		}
		cfg.Indexes = append(cfg.Indexes, ix)
		seen[ri.Table.Name] = true
	}
	return cfg, nil
}

// CandidateIndexes produces the advisor's syntactic candidate set for a
// query, in the spirit of §V-E's "large set of candidate indexes":
//
//   - one single-column index per referenced column;
//   - one two-column index per (interesting order, other referenced column)
//     pair;
//   - one covering index per interesting order (order column first, then
//     every other referenced column);
//   - one covering index per relation ordered arbitrarily (for pure
//     index-only access).
func CandidateIndexes(a *optimizer.Analysis, ws *whatif.Session) ([]*query.Config, []string, error) {
	var names []string
	add := func(table string, cols ...string) error {
		ix, err := ws.CreateIndex(table, cols...)
		if err != nil {
			return err
		}
		names = append(names, ix.Name)
		return nil
	}
	seenTable := make(map[string]bool)
	for i := range a.Rels {
		ri := &a.Rels[i]
		if seenTable[ri.Table.Name] {
			continue
		}
		seenTable[ri.Table.Name] = true
		cols := ri.Needed
		for _, c := range cols {
			if err := add(ri.Table.Name, c); err != nil {
				return nil, nil, err
			}
		}
		for _, lead := range ri.Interesting {
			for _, c := range cols {
				if c == lead {
					continue
				}
				if err := add(ri.Table.Name, lead, c); err != nil {
					return nil, nil, err
				}
			}
			covering := append([]string{lead}, without(cols, lead)...)
			if len(covering) > 1 {
				if err := add(ri.Table.Name, covering...); err != nil {
					return nil, nil, err
				}
			}
		}
		if len(cols) > 1 {
			if err := add(ri.Table.Name, cols...); err != nil {
				return nil, nil, err
			}
		}
	}
	return nil, names, nil
}

func without(cols []string, drop string) []string {
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		if c != drop {
			out = append(out, c)
		}
	}
	return out
}
