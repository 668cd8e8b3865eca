// A Workspace against the one-shot Optimize: a buffer or a record the last
// call left behind must never show in a result.
package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/workload"
)

// assertSameCall is assertSameResult for calls that may fail: then both
// must, with the same message.
func assertSameCall(t *testing.T, label string, got *optimizer.Result, gerr error, want *optimizer.Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, want %v", label, gerr, werr)
	}
	if gerr == nil {
		assertSameResult(t, label, got, want)
	}
}

// TestWorkspaceReuseBitIdentical plans every workload shape (the 17-relation
// chain included) under all 32 option combinations, in a shuffled order,
// through two workspaces — one that only optimizes, one that also runs each
// ExportAll call through Export first — and holds each result to a fresh
// Optimize of the same call. Consecutive calls therefore differ in query,
// key lane, relation count and option set, so every buffer arrives dirty
// from something else; a query with a disconnected join graph, which fails
// after its base relations went through the frontier, runs between good
// ones.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	type call struct {
		label string
		a     *optimizer.Analysis
		cfg   *query.Config
		opt   optimizer.Options
	}
	var calls []call
	for _, spec := range everyShape() {
		a, cfg := shapeBuildConfig(t, spec)
		for b := uint8(0); b < 32; b++ {
			calls = append(calls, call{fmt.Sprintf("%s-%d/opt=%d", spec.Shape, len(a.Rels), b), a, cfg, optionsFromBits(b)})
		}
	}
	// A chain with its middle clause gone: two components.
	_, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 5, Seed: 300})
	if err != nil {
		t.Fatal(err)
	}
	q.Joins = append(q.Joins[:2:2], q.Joins[3:]...)
	broken, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []uint8{0, 2, 3, 11, 19, 27} {
		calls = append(calls, call{fmt.Sprintf("disconnected/opt=%d", b), broken, nil, optionsFromBits(b)})
	}
	rng := rand.New(rand.NewSource(24))
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	failed := 0
	scratch, exporting := optimizer.NewWorkspace(), optimizer.NewWorkspace()
	for _, c := range calls {
		want, werr := optimizer.Optimize(c.a, c.cfg, c.opt)
		if werr != nil {
			failed++
		}
		got, gerr := scratch.Optimize(c.a, c.cfg, c.opt)
		assertSameCall(t, c.label+"/scratch", got, gerr, want, werr)
		if c.opt.ExportAll {
			_, _ = exporting.Export(c.a, c.cfg, []optimizer.Options{c.opt}, func(*optimizer.Summary) {})
		}
		got, gerr = exporting.Optimize(c.a, c.cfg, c.opt)
		assertSameCall(t, c.label+"/exporting", got, gerr, want, werr)
	}
	if failed != 6 {
		t.Fatalf("%d calls failed, want the 6 on the disconnected query", failed)
	}
}

// TestJoinRelPathsShareRows is the precondition of joinPaths pricing a
// pair's operators and enforcing sorts once: every path a join relation
// retains carries exactly the relation's row count, on every design shape
// and the 17-relation chain under both construction option sets. The
// reference planner's relations are out of reach, so its side is read off
// the trees it exports: every scan and join node carries the estimate of
// its relation set.
func TestJoinRelPathsShareRows(t *testing.T) {
	specs := append([]workload.ShapeSpec{{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42}}, designSpecs...)
	for _, spec := range specs {
		a, cfg := shapeBuildConfig(t, spec)
		for _, opt := range buildOptions(false) {
			label := fmt.Sprintf("%s-%d/nlj=%v", spec.Shape, len(a.Rels), opt.EnableNestLoop)
			seen := 0
			err := optimizer.EachJoinRelPath(a, cfg, opt, func(set optimizer.RelSet, relRows float64, pt *optimizer.Path) {
				seen++
				if math.Float64bits(pt.Rows) != math.Float64bits(relRows) {
					t.Fatalf("%s: relation %b estimates %v rows, its %v path %v", label, set, relRows, pt.Op, pt.Rows)
				}
			})
			if err != nil || seen == 0 {
				t.Fatalf("%s: %d paths visited, error %v", label, seen, err)
			}
			if len(a.Rels) > 16 {
				continue
			}
			ref, err := optimizer.OptimizeReference(a, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			var walk func(pt *optimizer.Path)
			walk = func(pt *optimizer.Path) {
				if pt == nil {
					return
				}
				switch pt.Op {
				case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNestLoopMat, optimizer.OpNestLoop, optimizer.OpSort:
					if want := a.JoinRows(pt.Rels); math.Float64bits(pt.Rows) != math.Float64bits(want) {
						t.Fatalf("%s: reference %v node over %b carries %v rows, the relation %v", label, pt.Op, pt.Rels, pt.Rows, want)
					}
				}
				walk(pt.Outer)
				if pt.Op != optimizer.OpNestLoop { // the probe node's rows are per probe
					walk(pt.Inner)
				}
				walk(pt.Child)
			}
			for _, pt := range ref.Exported {
				walk(pt)
			}
		}
	}
}
