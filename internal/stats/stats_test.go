package stats

import (
	"testing"
	"testing/quick"
)

func TestUniformHistogramBounds(t *testing.T) {
	h := Uniform(1, 100000, 1_000_000, 100000, 64)
	if h.Min() != 1 || h.Max() != 100000 {
		t.Fatalf("bounds [%d,%d]", h.Min(), h.Max())
	}
	if h.Buckets() != 64 {
		t.Fatalf("buckets = %d", h.Buckets())
	}
	// 1% of the domain should select about 1% of rows.
	if s := h.SelectivityRange(5000, 5999); s < 0.008 || s > 0.012 {
		t.Errorf("1%% range selectivity = %.4f", s)
	}
	if s := h.SelectivityEq(500); s <= 0 || s > 1e-4 {
		t.Errorf("eq selectivity = %g", s)
	}
	if h.SelectivityEq(200000) != 0 {
		t.Error("out-of-domain eq selectivity not 0")
	}
}

func TestUniformDegenerateDomains(t *testing.T) {
	h := Uniform(5, 5, 100, 1, 8)
	if h.SelectivityLT(5) != 0 {
		t.Error("LT(min) should be 0")
	}
	if h.SelectivityLT(100) != 1 {
		t.Error("LT(above max) should be 1")
	}
	// Swapped bounds normalise.
	h2 := Uniform(10, 1, 100, 10, 4)
	if h2.Min() != 1 || h2.Max() < 10 {
		t.Errorf("swapped bounds -> [%d,%d]", h2.Min(), h2.Max())
	}
}

// Property: SelectivityLT is monotone non-decreasing and clamped to [0,1].
func TestSelectivityLTMonotone(t *testing.T) {
	h := Uniform(1, 1_000_000, 10_000_000, 1_000_000, 64)
	f := func(a, b int64) bool {
		a, b = a%2_000_000, b%2_000_000
		if a > b {
			a, b = b, a
		}
		sa, sb := h.SelectivityLT(a), h.SelectivityLT(b)
		return sa >= 0 && sb <= 1 && sa <= sb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: range selectivity over [lo,hi] equals LT(hi+1)-LT(lo) and empty
// ranges select nothing.
func TestRangeSelectivityConsistency(t *testing.T) {
	h := Uniform(1, 100000, 1_000_000, 100000, 32)
	f := func(lo, hi int64) bool {
		lo, hi = lo%120000, hi%120000
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if hi < lo {
			return h.SelectivityRange(lo, hi) == 0
		}
		want := h.SelectivityLT(hi+1) - h.SelectivityLT(lo)
		got := h.SelectivityRange(lo, hi)
		d := got - want
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestColumnStatsFallbacks(t *testing.T) {
	var nilStats *ColumnStats
	if nilStats.EqSelectivity(5) != DefaultEqSel {
		t.Error("nil stats eq fallback wrong")
	}
	if nilStats.RangeSelectivity(1, 2) != DefaultRangeSel {
		t.Error("nil stats range fallback wrong")
	}
	s := &ColumnStats{Rows: 1000, Distinct: 100, Min: 1, Max: 100}
	if got := s.EqSelectivity(50); got != 0.01 {
		t.Errorf("eq = %g, want 0.01", got)
	}
	if got := s.EqSelectivity(500); got != 0 {
		t.Errorf("out-of-range eq = %g", got)
	}
	if got := s.RangeSelectivity(1, 100); got != 1 {
		t.Errorf("full range = %g", got)
	}
	if got := s.LTSelectivity(1); got != 0 {
		t.Errorf("LT(min) = %g", got)
	}
	if got := s.LTSelectivity(101); got != 1 {
		t.Errorf("LT(>max) = %g", got)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st := NewStore()
	if st.Get("t", "a") != nil {
		t.Error("empty store returned stats")
	}
	s := &ColumnStats{Rows: 10}
	st.Set("t", "a", s)
	if st.Get("t", "a") != s {
		t.Error("store lookup failed")
	}
	if st.Get("t", "b") != nil {
		t.Error("wrong column matched")
	}
}
