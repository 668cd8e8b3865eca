// Package storage implements the physical size model: how many pages a heap
// table occupies and how large a B-tree index is, real or hypothetical.
//
// The what-if index sizing follows the paper (§V-A) exactly: "To compute
// size, we use the average attribute size, the total number of rows, and the
// attribute alignments to find the number of leaf pages required to store
// the index. We ignore the internal pages of the B-Tree index." The
// deliberate omission of internal pages is what produces the small (~0.3 %)
// costing error measured in experiment E1.
package storage

import (
	"fmt"
	"math"

	"github.com/pinumdb/pinum/internal/catalog"
)

// Layout constants, modelled on PostgreSQL 8.3's on-disk format.
const (
	// PageSize is the size of a heap or index page in bytes.
	PageSize = 8192
	// PageHeader is the per-page bookkeeping overhead.
	PageHeader = 24
	// ItemIDSize is the per-tuple line-pointer in the page slot array.
	ItemIDSize = 4
	// HeapTupleHeader is the fixed per-row header on heap pages.
	HeapTupleHeader = 23
	// IndexTupleHeader is the fixed per-entry header on index pages
	// (8-byte TID + flags).
	IndexTupleHeader = 8
	// MaxAlign is the platform alignment quantum.
	MaxAlign = 8
	// BTreeFillFactor is the default leaf fill factor.
	BTreeFillFactor = 0.90
)

// Align rounds w up to the next MaxAlign boundary.
func Align(w int) int {
	if w <= 0 {
		return 0
	}
	return (w + MaxAlign - 1) / MaxAlign * MaxAlign
}

// HeapTupleWidth returns the aligned on-page width of one heap tuple of the
// given table, header included.
func HeapTupleWidth(t *catalog.Table) int {
	return Align(HeapTupleHeader) + Align(t.RowWidth())
}

// TablePages estimates the heap size of a table in pages.
func TablePages(t *catalog.Table) int64 {
	if t.Pages > 0 {
		return t.Pages
	}
	perPage := (PageSize - PageHeader) / (HeapTupleWidth(t) + ItemIDSize)
	if perPage < 1 {
		perPage = 1
	}
	return ceilDiv(t.RowCount, int64(perPage))
}

// IndexTupleWidth returns the aligned width of one index entry whose key is
// the given columns of table t.
func IndexTupleWidth(t *catalog.Table, columns []string) int {
	w := 0
	for _, name := range columns {
		col := t.Column(name)
		if col == nil {
			continue
		}
		w += col.EffectiveWidth()
	}
	return Align(IndexTupleHeader) + Align(w)
}

// LeafEntriesPerPage returns how many index entries fit a leaf page at the
// default fill factor.
func LeafEntriesPerPage(t *catalog.Table, columns []string) int64 {
	usable := float64(PageSize-PageHeader) * BTreeFillFactor
	per := int64(usable / float64(IndexTupleWidth(t, columns)+ItemIDSize))
	if per < 2 {
		per = 2
	}
	return per
}

// LeafPages is the paper's what-if size estimate: the number of leaf pages
// needed to store one entry per row. Internal pages are intentionally
// ignored.
func LeafPages(t *catalog.Table, columns []string) int64 {
	return ceilDiv(t.RowCount, LeafEntriesPerPage(t, columns))
}

// InternalPages estimates the non-leaf pages of a fully built B-tree with
// the given leaf page count and fanout. This is what the what-if estimate
// leaves out and the "actual" built index includes.
func InternalPages(leafPages, fanout int64) int64 {
	if fanout < 2 {
		fanout = 2
	}
	var total int64
	level := leafPages
	for level > 1 {
		level = ceilDiv(level, fanout)
		total += level
	}
	return total
}

// BTreeFanout estimates the branching factor of internal pages for an index
// on the given columns: internal entries store the key plus a child pointer.
func BTreeFanout(t *catalog.Table, columns []string) int64 {
	per := int64((PageSize - PageHeader) / (IndexTupleWidth(t, columns) + ItemIDSize))
	if per < 2 {
		per = 2
	}
	return per
}

// BTreeHeight returns the number of edges from root to leaf for a tree with
// the given leaf page count and fanout.
func BTreeHeight(leafPages, fanout int64) int {
	if leafPages <= 1 {
		return 0
	}
	if fanout < 2 {
		fanout = 2
	}
	h := 0
	level := leafPages
	for level > 1 {
		level = ceilDiv(level, fanout)
		h++
	}
	return h
}

// HypotheticalIndex builds a what-if index descriptor for the given key,
// sized with the paper's leaf-only estimate. Like BuiltIndex it returns the
// descriptor bound to t (catalog.Index.Bind), which is where an index's
// names are resolved for pricing — once, before anything shares it.
func HypotheticalIndex(name string, t *catalog.Table, columns []string) *catalog.Index {
	leaf := LeafPages(t, columns)
	fan := BTreeFanout(t, columns)
	ix := &catalog.Index{
		Name:         name,
		Table:        t.Name,
		Columns:      append([]string(nil), columns...),
		Hypothetical: true,
		LeafPages:    leaf,
		Height:       BTreeHeight(leaf, fan),
	}
	ix.Bind(t)
	return ix
}

// BuiltIndex builds a descriptor for a *materialised* index: the same leaf
// estimate plus the internal pages a real B-tree build produces. Experiment
// E1 compares costing with BuiltIndex against HypotheticalIndex.
func BuiltIndex(name string, t *catalog.Table, columns []string) *catalog.Index {
	leaf := LeafPages(t, columns)
	fan := BTreeFanout(t, columns)
	ix := &catalog.Index{
		Name:          name,
		Table:         t.Name,
		Columns:       append([]string(nil), columns...),
		LeafPages:     leaf,
		InternalPages: InternalPages(leaf, fan),
		Height:        BTreeHeight(leaf, fan),
	}
	ix.Bind(t)
	return ix
}

// IndexBytes returns the total footprint of an index in bytes (leaf plus
// any recorded internal pages), the quantity charged against the advisor's
// space budget.
func IndexBytes(ix *catalog.Index) int64 { return ix.TotalPages() * PageSize }

// GigaBytes converts a byte count to GB (base-10, as the paper's "10GB
// database" and "5GBs of space" figures are).
func GigaBytes(b int64) float64 { return float64(b) / 1e9 }

// BytesForGB converts gigabytes to bytes. Past about 9.22e9 GB the byte
// count does not fit an int64 and the conversion wraps; BudgetBytes
// refuses such a budget instead.
func BytesForGB(gb float64) int64 { return int64(math.Round(gb * 1e9)) }

// BudgetBytes converts a space budget in GB to bytes, refusing one that is
// not positive or whose byte count does not fit an int64.
func BudgetBytes(gb float64) (int64, error) {
	if !(gb > 0) {
		return 0, fmt.Errorf("must be positive, got %g", gb)
	}
	if b := math.Round(gb * 1e9); b < math.MaxInt64 {
		return int64(b), nil
	}
	return 0, fmt.Errorf("must be below %g GB (the int64 byte limit), got %g", math.MaxInt64/1e9, gb)
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
