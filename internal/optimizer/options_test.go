// The Options validity rule: nine of the 32 option sets plan, the rest are
// refused before any planner state is touched.
package optimizer_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestOptionsRefused runs all 32 Options values through Optimize, a
// workspace's Optimize, its serial and paired Export and the test oracle:
// exactly the 23 outside ValidOptions fail Optimize and the oracle, and the
// exports refuse those and the three valid sets without ExportAll, 26 in
// all. Every refusal wraps ErrOptions, a refused export emits nothing, and
// the rest plan without error. After each value the workspace that saw it plans a valid
// Optimize and a paired construction Export exactly as a fresh workspace
// does.
func TestOptionsRefused(t *testing.T) {
	a, cfg := shapeBuildConfig(t, workload.ShapeSpec{Shape: workload.ShapeStar, Rels: 4, Seed: 7})
	valid := optimizer.Options{EnableNestLoop: true, ExportAll: true, PaperPrune: true}
	want, err := optimizer.Optimize(a, cfg, valid)
	if err != nil {
		t.Fatal(err)
	}
	construction := buildOptions(false)
	wantExport, err := exportAll(optimizer.NewWorkspace(), a, cfg, construction, nil)
	if err != nil {
		t.Fatal(err)
	}

	w, refused, exportRefused := optimizer.NewWorkspace(), 0, 0
	for b := uint8(0); b < 32; b++ {
		opt := optionsFromBits(b)
		label := fmt.Sprintf("opt=%d %+v", b, opt)
		ok := slices.Contains(optimizer.ValidOptions, opt)
		exportOK := ok && opt.ExportAll
		if !ok {
			refused++
		}
		if !exportOK {
			exportRefused++
		}
		res, oerr := optimizer.Optimize(a, cfg, opt)
		ref, rerr := optimizer.OptimizeReference(a, cfg, opt)
		wres, werr := w.Optimize(a, cfg, opt)
		serial, serr := exportAll(w, a, cfg, []optimizer.Options{opt}, nil)
		paired, perr := exportAll(w, a, cfg, []optimizer.Options{{ExportAll: true}, opt}, goRunner)
		for i, err := range []error{oerr, rerr, werr, serr, perr} {
			want := ok
			if i >= 3 {
				want = exportOK
			}
			if want && err != nil || !want && !errors.Is(err, optimizer.ErrOptions) {
				t.Fatalf("%s: call %d returned %v; valid=%v", label, i, err, want)
			}
		}
		if !ok && (res != nil || ref != nil || wres != nil) {
			t.Fatalf("%s: a refused set returned results", label)
		}
		if !exportOK && len(serial.sums)+len(paired.sums) != 0 {
			t.Fatalf("%s: a refused export emitted %d summaries", label, len(serial.sums)+len(paired.sums))
		}

		got, err := w.Optimize(a, cfg, valid)
		if err != nil {
			t.Fatalf("%s: then %+v: %v", label, valid, err)
		}
		assertSameResult(t, label+"/then optimize", got, want)
		gotExport, err := exportAll(w, a, cfg, construction, goRunner)
		if err != nil || !reflect.DeepEqual(gotExport, wantExport) {
			t.Fatalf("%s: then a paired construction export: %d summaries, %v; a fresh workspace's %d", label, len(gotExport.sums), err, len(wantExport.sums))
		}
	}
	if refused != 23 || exportRefused != 26 || len(optimizer.ValidOptions) != 9 {
		t.Fatalf("%d of 32 option sets refused, %d refused by Export and %d valid, want 23, 26 and 9", refused, exportRefused, len(optimizer.ValidOptions))
	}
}
