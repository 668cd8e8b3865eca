package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// starSet returns fresh analyses of the ten star queries of one seed.
func starSet(t *testing.T, s *workload.Star, seed int64) []*optimizer.Analysis {
	t.Helper()
	qs, err := s.Queries(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*optimizer.Analysis, len(qs))
	for i, q := range qs {
		out[i] = analyze(t, s, q)
	}
	return out
}

// TestPlanWorkRanksPlannerWork holds the claim order's estimate to the work
// it stands for: on ten star query sets and on the eight design shapes,
// PlanWork must pick the query whose slim build considers the most paths
// (PathsConsidered over both calls, a deterministic count) and rank the
// set with a Spearman correlation of at least 0.95 against those counts.
func TestPlanWorkRanksPlannerWork(t *testing.T) {
	s := mustStar(t)
	sets := map[string][]*optimizer.Analysis{}
	for _, seed := range []int64{42, 142, 143, 144, 145, 146, 147, 1000, 1005, 1019} {
		sets[fmt.Sprintf("star seed %d", seed)] = starSet(t, s, seed)
	}
	cats := map[*optimizer.Analysis]*whatif.Session{}
	for _, sh := range designShapes {
		cat, q, err := workload.ShapeQuery(sh.spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		sets["design shapes"] = append(sets["design shapes"], a)
		cats[a] = whatif.NewSession(cat)
	}
	build := Builder(false, true, false)
	for label, set := range sets {
		est, paths := make([]float64, len(set)), make([]float64, len(set))
		for i, a := range set {
			ws := cats[a]
			if ws == nil {
				ws = whatif.NewSession(s.Catalog)
			}
			c, err := build(a, ws)
			if err != nil {
				t.Fatal(err)
			}
			est[i], paths[i] = float64(a.PlanWork()), float64(c.Stats.Planner.PathsConsidered)
		}
		rho := spearman(est, paths)
		t.Logf("%s: Spearman %.3f", label, rho)
		if argmax(est) != argmax(paths) || rho < 0.95 {
			t.Errorf("%s: PlanWork's largest is query %d, PathsConsidered's %d; Spearman %.3f, want ≥ 0.95\nestimates %v\npaths %v",
				label, argmax(est), argmax(paths), rho, est, paths)
		}
	}
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// spearman is the rank correlation of x and y: Pearson's over their ranks,
// tied values sharing their mean rank.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	mean := (n + 1) / 2
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mean, ry[i]-mean
		sxy, sxx, syy = sxy+dx*dy, sxx+dx*dx, syy+dy*dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		for k := i; k < j; k++ {
			r[idx[k]] = float64(i+j+1) / 2
		}
		i = j
	}
	return r
}

// TestBatchClaimsLargestFirst records, per worker, which analyses a batch's
// BuildFunc is handed, in order, for the star set of seed 42, listed
// cheapest first as the paper lists it. Workers claim from one sequence, so
// each worker's queries must come in descending PlanWork order (ties in
// input order), one worker's first query must be the largest, and every
// query must be built exactly once; at a budget of 1 the one worker sees
// the whole sequence. The caches still land at their input index.
func TestBatchClaimsLargestFirst(t *testing.T) {
	s := mustStar(t)
	for _, budget := range []int{1, 2} {
		set := starSet(t, s, 42)
		index := map[*optimizer.Analysis]int{}
		for i, a := range set {
			index[a] = i
		}
		var (
			mu      sync.Mutex
			workers []*[]int // the queries each worker built, in order
		)
		caches, err := BuildAllWith(set, s.Catalog, budget, func(bool) BuildFunc {
			seen := new([]int)
			mu.Lock()
			workers = append(workers, seen)
			mu.Unlock()
			return func(a *optimizer.Analysis, _ *whatif.Session) (*inum.Cache, error) {
				*seen = append(*seen, index[a])
				return &inum.Cache{A: a}, nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range caches {
			if c.A != set[i] {
				t.Fatalf("budget %d: cache %d holds query %d", budget, i, index[c.A])
			}
		}
		work := make([]int, len(set))
		for i, a := range set {
			work[i] = a.PlanWork()
		}
		want := make([]int, len(set))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(x, y int) int { return work[y] - work[x] })
		if want[0] != 9 {
			t.Errorf("seed 42's largest estimate is query %d, want Q10 (index 9)", want[0])
		}
		rank := make([]int, len(want))
		for r, i := range want {
			rank[i] = r
		}
		var all []int
		headFirst := false
		for w, seen := range workers {
			t.Logf("budget %d, worker %d: built %v; estimates %v", budget, w, *seen, work)
			if !slices.IsSortedFunc(*seen, func(x, y int) int { return rank[x] - rank[y] }) {
				t.Errorf("budget %d: worker %d built %v, not in claim order %v", budget, w, *seen, want)
			}
			if len(*seen) > 0 && (*seen)[0] == want[0] {
				headFirst = true
			}
			all = append(all, *seen...)
		}
		slices.Sort(all)
		if !slices.Equal(all, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Fatalf("budget %d: queries built %v, want each of 0–9 once", budget, all)
		}
		if !headFirst {
			t.Errorf("budget %d: no worker started with the largest estimate (query %d)", budget, want[0])
		}
		if budget == 1 && (len(workers) != 1 || !slices.Equal(*workers[0], want)) {
			t.Errorf("budget 1: claimed %v, want descending estimates %v", *workers[0], want)
		}
	}
}
