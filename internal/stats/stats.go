// Package stats provides the column statistics and selectivity estimation
// the optimizer's cost model consumes: number-of-distinct-values, min/max
// domains, and equi-depth histograms.
//
// The paper's what-if indexes reuse the *table's* histograms (§V-A: "Since
// the histogram information is associated with the table, we do not
// replicate or modify them"), so statistics live here, keyed by
// table.column, independent of which indexes exist.
package stats

import "math"

// Default selectivities used when no statistics are available, mirroring
// PostgreSQL's hard-wired defaults.
const (
	DefaultEqSel    = 0.005
	DefaultRangeSel = 1.0 / 3.0
)

// Histogram is an equi-depth (equal-frequency) histogram over an integer
// domain. Bounds has len(buckets)+1 entries; bucket i covers
// [Bounds[i], Bounds[i+1]) except the last, which is inclusive on the right.
type Histogram struct {
	Bounds []int64
	// Rows is the total number of rows the histogram summarises.
	Rows int64
	// Distinct is the number of distinct values observed.
	Distinct int64
}

// Uniform builds a histogram describing a perfectly uniform distribution on
// [min, max] with the given row and distinct counts. The paper's synthetic
// star schema uses columns "uniformly distributed across all positive
// integers"; Uniform models them without materialising data.
func Uniform(min, max, rows, distinct int64, buckets int) *Histogram {
	if max < min {
		min, max = max, min
	}
	if buckets < 1 {
		buckets = 1
	}
	span := max - min
	bounds := make([]int64, buckets+1)
	for i := 0; i <= buckets; i++ {
		bounds[i] = min + int64(math.Round(float64(span)*float64(i)/float64(buckets)))
	}
	// Ensure strictly increasing bounds on tiny domains.
	for i := 1; i <= buckets; i++ {
		if bounds[i] <= bounds[i-1] {
			bounds[i] = bounds[i-1] + 1
		}
	}
	if distinct <= 0 {
		distinct = span + 1
	}
	if distinct > rows && rows > 0 {
		distinct = rows
	}
	return &Histogram{Bounds: bounds, Rows: rows, Distinct: distinct}
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.Bounds) - 1 }

// Min returns the histogram's lower domain bound.
func (h *Histogram) Min() int64 { return h.Bounds[0] }

// Max returns the histogram's upper domain bound.
func (h *Histogram) Max() int64 { return h.Bounds[len(h.Bounds)-1] }

// SelectivityEq estimates the fraction of rows equal to v.
func (h *Histogram) SelectivityEq(v int64) float64 {
	if v < h.Min() || v > h.Max() {
		return 0
	}
	if h.Distinct <= 0 {
		return DefaultEqSel
	}
	return 1.0 / float64(h.Distinct)
}

// SelectivityLT estimates the fraction of rows strictly less than v, by
// linear interpolation within the containing bucket (each bucket holds an
// equal share of the rows).
func (h *Histogram) SelectivityLT(v int64) float64 {
	if v <= h.Min() {
		return 0
	}
	if v > h.Max() {
		return 1
	}
	n := h.Buckets()
	perBucket := 1.0 / float64(n)
	var sel float64
	for i := 0; i < n; i++ {
		lo, hi := h.Bounds[i], h.Bounds[i+1]
		switch {
		case v >= hi:
			sel += perBucket
		case v > lo:
			frac := float64(v-lo) / float64(hi-lo)
			sel += perBucket * frac
			return clamp01(sel)
		default:
			return clamp01(sel)
		}
	}
	return clamp01(sel)
}

// SelectivityRange estimates the fraction of rows in [lo, hi].
func (h *Histogram) SelectivityRange(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	// P(lo <= x <= hi) = P(x < hi+1) - P(x < lo) for integer domains.
	s := h.SelectivityLT(hi+1) - h.SelectivityLT(lo)
	return clamp01(s)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ColumnStats bundles everything the planner knows about one column.
type ColumnStats struct {
	Rows     int64
	Distinct int64
	Min, Max int64
	Hist     *Histogram
}

// EqSelectivity estimates selectivity of col = v.
func (s *ColumnStats) EqSelectivity(v int64) float64 {
	if s == nil {
		return DefaultEqSel
	}
	if s.Hist != nil {
		return s.Hist.SelectivityEq(v)
	}
	if v < s.Min || v > s.Max {
		return 0
	}
	if s.Distinct > 0 {
		return 1.0 / float64(s.Distinct)
	}
	return DefaultEqSel
}

// RangeSelectivity estimates selectivity of lo <= col <= hi.
func (s *ColumnStats) RangeSelectivity(lo, hi int64) float64 {
	if s == nil {
		return DefaultRangeSel
	}
	if hi < lo {
		return 0
	}
	if s.Hist != nil {
		return s.Hist.SelectivityRange(lo, hi)
	}
	if s.Max <= s.Min {
		return 1
	}
	clo, chi := lo, hi
	if clo < s.Min {
		clo = s.Min
	}
	if chi > s.Max {
		chi = s.Max
	}
	if chi < clo {
		return 0
	}
	return clamp01(float64(chi-clo+1) / float64(s.Max-s.Min+1))
}

// LTSelectivity estimates selectivity of col < v.
func (s *ColumnStats) LTSelectivity(v int64) float64 {
	if s == nil {
		return DefaultRangeSel
	}
	if s.Hist != nil {
		return s.Hist.SelectivityLT(v)
	}
	if s.Max <= s.Min {
		if v > s.Min {
			return 1
		}
		return 0
	}
	if v <= s.Min {
		return 0
	}
	if v > s.Max {
		return 1
	}
	return clamp01(float64(v-s.Min) / float64(s.Max-s.Min+1))
}

// Store holds statistics for every table.column. It is immutable after
// loading, hence safe for concurrent readers; what-if sessions share it.
type Store struct {
	cols map[string]*ColumnStats
}

// NewStore returns an empty statistics store.
func NewStore() *Store { return &Store{cols: make(map[string]*ColumnStats)} }

// Set installs the statistics for table.column.
func (st *Store) Set(table, column string, s *ColumnStats) {
	st.cols[table+"."+column] = s
}

// Get returns the statistics for table.column, or nil when unknown.
func (st *Store) Get(table, column string) *ColumnStats {
	return st.cols[table+"."+column]
}
