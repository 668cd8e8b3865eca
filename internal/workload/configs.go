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
