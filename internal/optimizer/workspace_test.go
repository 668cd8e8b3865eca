// A Workspace against the one-shot Optimize: a buffer or a record the last
// call left behind must never show in a result.
package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
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
// chain included) under the nine option sets the planner implements, in a
// shuffled order, through three workspaces — one that only optimizes, one
// that also runs each ExportAll call through a serial Export first, and one
// that pairs: it exports every ExportAll call as the second of two calls on
// two goroutines, after the last ExportAll call's option set, and now and
// then has both calls of such a pair panic midway, or its emit panic in call
// 0's first summary while call 1 may still plan, before it optimizes the
// call on the planner those left — and holds each result to a fresh
// Optimize of the same call, and the paired exports to the serial ones.
// Consecutive calls therefore differ in query, key lane, relation count and
// option set, so every buffer of both planners arrives dirty from something
// else; a query with a disconnected join graph, which fails after its base
// relations went through the frontier, runs between good ones.
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
		for _, opt := range optimizer.ValidOptions {
			calls = append(calls, call{fmt.Sprintf("%s-%d/opt=%+v", spec.Shape, len(a.Rels), opt), a, cfg, opt})
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
	for _, b := range []uint8{2, 3, 10, 11, 18, 19} {
		calls = append(calls, call{fmt.Sprintf("disconnected/opt=%d", b), broken, nil, optionsFromBits(b)})
	}
	rng := rand.New(rand.NewSource(24))
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	failed, attempts, panicked, emitPanics := 0, 0, 0, 0
	scratch, exporting, pairing := optimizer.NewWorkspace(), optimizer.NewWorkspace(), optimizer.NewWorkspace()
	prev := optimizer.Options{ExportAll: true}
	for i, c := range calls {
		want, werr := optimizer.Optimize(c.a, c.cfg, c.opt)
		if werr != nil {
			failed++
		}
		got, gerr := scratch.Optimize(c.a, c.cfg, c.opt)
		assertSameCall(t, c.label+"/scratch", got, gerr, want, werr)

		pair := []optimizer.Options{prev, prev}
		if c.opt.ExportAll {
			pair[1] = c.opt
		}
		if i%9 == 4 {
			attempts++
			panicked += panicsMidway(pairing, c.a, c.cfg, pair)
		}
		if i%9 == 7 && werr == nil {
			emitPanics++
			emitPanicSurfaces(t, c.label, pairing, c.a, c.cfg, pair)
		}
		if c.opt.ExportAll {
			serial, serr := exportAll(exporting, c.a, c.cfg, pair, nil)
			paired, perr := exportAll(pairing, c.a, c.cfg, pair, goRunner)
			if (serr == nil) != (perr == nil) || !reflect.DeepEqual(serial, paired) {
				t.Fatalf("%s: paired export (%d summaries, %v) differs from the serial one (%d, %v)", c.label, len(paired.sums), perr, len(serial.sums), serr)
			}
		}
		got, gerr = exporting.Optimize(c.a, c.cfg, c.opt)
		assertSameCall(t, c.label+"/exporting", got, gerr, want, werr)

		got, gerr = pairing.Optimize(c.a, c.cfg, c.opt)
		assertSameCall(t, c.label+"/paired", got, gerr, want, werr)
		prev = pair[1]
	}
	if failed != 6 {
		t.Fatalf("%d calls failed, want the 6 on the disconnected query", failed)
	}
	if panicked != attempts {
		t.Fatalf("%d of %d paired exports with a broken index panicked", panicked, attempts)
	}
	if emitPanics == 0 {
		t.Fatal("no paired export had its emit panic")
	}
}

// emitPanicSurfaces runs a paired Export of a on w whose emit panics on the
// first summary, which call 0 emits on its own goroutine, and fails unless
// that panic reaches the caller.
func emitPanicSurfaces(t *testing.T, label string, w *optimizer.Workspace, a *optimizer.Analysis, cfg *query.Config, opts []optimizer.Options) {
	t.Helper()
	type emitPanic struct{}
	defer func() {
		if p := recover(); p != (emitPanic{}) {
			t.Fatalf("%s: a paired export whose emit panics returned with %v", label, p)
		}
	}()
	_, _ = w.Export(a, cfg, opts, goRunner, func(*optimizer.Summary) { panic(emitPanic{}) })
}

// TestPairedExportEmitsCallZeroFirst holds a paired Export's pipeline: call
// 0's summaries are emitted inside call 0, before call 1 starts under a
// runner that runs the calls one after the other, and call 1's only after
// run returns; the summaries, their order and the counters are the serial
// Export's. A runner that runs call 1 first sees the same. Inputs: every
// design shape.
func TestPairedExportEmitsCallZeroFirst(t *testing.T) {
	for _, spec := range designSpecs {
		a, cfg := shapeBuildConfig(t, spec)
		label := fmt.Sprintf("%s-%d", spec.Shape, len(a.Rels))
		opts := buildOptions(false)
		serial, err := exportAll(optimizer.NewWorkspace(), a, cfg, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, reversed := range []bool{false, true} {
			var got exported
			var during [2]int // summaries emitted when call i returned
			run := func(n int, call func(i int)) {
				for k := 0; k < n; k++ {
					i := k
					if reversed {
						i = n - 1 - k
					}
					call(i)
					during[i] = len(got.sums)
				}
			}
			st, err := optimizer.NewWorkspace().Export(a, cfg, opts, run, func(s *optimizer.Summary) { got.sums = append(got.sums, cloneSummary(s)) })
			if err != nil {
				t.Fatal(err)
			}
			got.st = st
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s reversed=%v: pipelined export (%d summaries) differs from the serial one (%d)", label, reversed, len(got.sums), len(serial.sums))
			}
			one := during[0] // call 1 emits nothing inside run
			if reversed {
				one = 0
			}
			if during[0] == 0 || during[1] != one {
				t.Fatalf("%s reversed=%v: %v summaries emitted as calls 0 and 1 returned, want call 0's inside call 0 and call 1's after run", label, reversed, during)
			}
		}
	}
}

// exported is what one Export handed out: copies of its summaries, in
// order, and its summed counters.
type exported struct {
	sums []optimizer.Summary
	st   optimizer.PlannerStats
}

func exportAll(w *optimizer.Workspace, a *optimizer.Analysis, cfg *query.Config, opts []optimizer.Options, run optimizer.Runner) (exported, error) {
	var out exported
	st, err := w.Export(a, cfg, opts, run, func(s *optimizer.Summary) { out.sums = append(out.sums, cloneSummary(s)) })
	out.st = st
	return out, err
}

// cloneSummary copies an emitted summary out of the workspace's buffers.
func cloneSummary(s *optimizer.Summary) optimizer.Summary {
	return optimizer.Summary{Internal: s.Internal, Slots: slices.Clone(s.Slots), Coefs: slices.Clone(s.Coefs)}
}

// goRunner is an optimizer.Runner that runs every call on a goroutine of
// its own and re-raises the first panic, in call order, once all have
// stopped — core.Fan's contract.
func goRunner(n int, call func(i int)) {
	var wg sync.WaitGroup
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			call(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// panicsMidway runs a paired Export of a on w under cfg plus an index with
// no columns on a's last relation, which both calls reach only after the
// other relations' scans went through their frontiers, and reports 1 when
// it panicked as it must.
func panicsMidway(w *optimizer.Workspace, a *optimizer.Analysis, cfg *query.Config, opts []optimizer.Options) (panicked int) {
	bad := &query.Config{Indexes: []*catalog.Index{{Name: "no-columns", Table: a.Q.Rels[len(a.Q.Rels)-1].Table.Name}}}
	if cfg != nil {
		bad.Indexes = append(slices.Clone(cfg.Indexes), bad.Indexes...)
	}
	defer func() {
		if recover() != nil {
			panicked = 1
		}
	}()
	_, _ = w.Export(a, bad, opts, goRunner, func(*optimizer.Summary) {})
	return 0
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

// TestAnalysisSharedByPlanners plans one fresh analysis from four goroutines
// at once — Optimize in normal mode with and without nested loops, and
// Export in each construction mode, each on a workspace of its own — and
// holds every result to the same call made alone afterwards: an analysis is
// read-only once built, its join enumeration built once by whichever call
// needs it first. Inputs: every design shape and the 17-relation chain. Run
// under -race it is also the check that no planner writes the analysis.
func TestAnalysisSharedByPlanners(t *testing.T) {
	construction := buildOptions(false)
	for _, spec := range append([]workload.ShapeSpec{{Shape: workload.ShapeWideChain, Rels: 17, Seed: 42}}, designSpecs...) {
		a, cfg := shapeBuildConfig(t, spec)
		label := fmt.Sprintf("%s-%d", spec.Shape, len(a.Rels))
		normal := []optimizer.Options{{EnableNestLoop: true}, {}}
		var (
			wg      sync.WaitGroup
			results [2]*optimizer.Result
			exports [2]exported
			errs    [4]error
		)
		wg.Add(4)
		for i := 0; i < 2; i++ {
			i := i
			go func() {
				defer wg.Done()
				results[i], errs[i] = optimizer.NewWorkspace().Optimize(a, cfg, normal[i])
			}()
			go func() {
				defer wg.Done()
				exports[i], errs[2+i] = exportAll(optimizer.NewWorkspace(), a, cfg, construction[i:i+1], nil)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: concurrent call %d: %v", label, i, err)
			}
		}
		for i := 0; i < 2; i++ {
			want, err := optimizer.Optimize(a, cfg, normal[i])
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s/optimize %+v", label, normal[i]), results[i], want)
			alone, err := exportAll(optimizer.NewWorkspace(), a, cfg, construction[i:i+1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exports[i], alone) {
				t.Fatalf("%s/export %+v: %d summaries at once, %d alone", label, construction[i], len(exports[i].sums), len(alone.sums))
			}
		}
	}
}
