package optimizer_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestSlimExportsMatchTrees holds the build's export — summaries read off
// the planner's records — to the reference construction's rows. Per call,
// the Path trees of the exported plans, built from the same records, go
// through AddPath (Summarize, LeafSlot) and the summaries through
// AddSummary, neither deduplicated; the two caches must agree entry for
// entry, in order: internal cost bits, leaf slots and coefficient bits.
// Inputs: every design shape, star Q10 and the 17-relation chain, under
// core.Build's two calls and under core.BuildPrecise's (random6's precise
// pair, ~6 s, is skipped in -short mode).
func TestSlimExportsMatchTrees(t *testing.T) {
	wk := optimizer.NewWorkspace()
	for _, in := range exportInputs(t) {
		for _, precise := range []bool{false, true} {
			label := fmt.Sprintf("%s/precise=%v", in.label, precise)
			if precise && in.label == "random-6" && testing.Short() {
				continue
			}
			tree, slim := inum.NewCache(in.a), inum.NewCache(in.a)
			err := optimizer.ExportWithTrees(wk, in.a, in.cfg, buildOptions(precise), slim.AddSummary, tree.AddPath)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(slim.Plans) != len(tree.Plans) || len(tree.Plans) == 0 {
				t.Fatalf("%s: %d slim entries, %d from trees", label, len(slim.Plans), len(tree.Plans))
			}
			n := len(in.a.Q.Rels)
			_, sss, scs := slim.Rows()
			_, tss, tcs := tree.Rows()
			for i, tp := range tree.Plans {
				sp := slim.Plans[i]
				if math.Float64bits(sp) != math.Float64bits(tp) {
					t.Fatalf("%s entry %d: internal %v, from the tree %v", label, i, sp, tp)
				}
				ss, sc := sss[i*n:(i+1)*n], scs[i*n:(i+1)*n]
				ts, tc := tss[i*n:(i+1)*n], tcs[i*n:(i+1)*n]
				for rel := range ts {
					if ss[rel] != ts[rel] || math.Float64bits(sc[rel]) != math.Float64bits(tc[rel]) {
						t.Fatalf("%s entry %d (%s) relation %d: slot %d coef %v, from the tree slot %d coef %v", label, i, tree.Combo(i), rel,
							ss[rel], sc[rel], ts[rel], tc[rel])
					}
				}
			}
		}
	}
}

// exportInput is one query a construction call plans, with its planning
// configuration.
type exportInput struct {
	label string
	a     *optimizer.Analysis
	cfg   *query.Config
}

// exportInputs are every design shape, the 17-relation chain (indexed on
// its head) and star Q10, each under its all-orders configuration.
func exportInputs(t *testing.T) []exportInput {
	t.Helper()
	var inputs []exportInput
	for _, spec := range append([]workload.ShapeSpec{{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42}}, designSpecs...) {
		a, cfg := shapeBuildConfig(t, spec)
		inputs = append(inputs, exportInput{a.Q.Name, a, cfg})
	}
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := optimizer.NewAnalysis(qs[9], s.Stats, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := inum.AllOrdersConfig(a, whatif.NewSession(s.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	return append(inputs, exportInput{"star-" + a.Q.Name, a, cfg})
}
