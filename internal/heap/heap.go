// Package heap implements slotted-page heap files for materialised tables:
// fixed-size pages, a slot directory, and binary-encoded integer tuples.
// The scaled-down physical database the execution experiments run on is
// stored here; page counts from these files feed the executor's I/O
// accounting so that measured work tracks the optimizer's cost model.
package heap

import (
	"encoding/binary"
	"fmt"
)

// PageSize matches the storage package's size model.
const PageSize = 8192

const pageHeaderSize = 8 // slot count (4) + free-space offset (4)

// TID identifies a tuple: page number and slot within the page.
type TID struct {
	Page int32
	Slot int32
}

// Less orders TIDs in heap order.
func (t TID) Less(o TID) bool {
	if t.Page != o.Page {
		return t.Page < o.Page
	}
	return t.Slot < o.Slot
}

// File is a heap file of fixed-width integer tuples.
type File struct {
	Name  string
	Width int // columns per tuple
	pages [][]byte
	count int
}

// NewFile creates an empty heap file for tuples of width columns.
func NewFile(name string, width int) *File {
	if width < 1 {
		width = 1
	}
	return &File{Name: name, Width: width}
}

// tupleBytes is the encoded size of one tuple.
func (f *File) tupleBytes() int { return f.Width * 8 }

// slotBytes is the per-tuple slot directory entry size.
const slotBytes = 4

// capacityPerPage returns how many tuples fit one page.
func (f *File) capacityPerPage() int {
	return (PageSize - pageHeaderSize) / (f.tupleBytes() + slotBytes)
}

// Insert appends a tuple and returns its TID. The tuple length must equal
// the file's width.
func (f *File) Insert(tuple []int64) (TID, error) {
	if len(tuple) != f.Width {
		return TID{}, fmt.Errorf("heap: %s: tuple width %d, want %d", f.Name, len(tuple), f.Width)
	}
	cap := f.capacityPerPage()
	if cap < 1 {
		return TID{}, fmt.Errorf("heap: %s: tuple too wide for a page", f.Name)
	}
	var page []byte
	pageNo := len(f.pages) - 1
	if pageNo >= 0 {
		page = f.pages[pageNo]
		if int(binary.LittleEndian.Uint32(page[0:4])) >= cap {
			page = nil
		}
	}
	if page == nil {
		page = make([]byte, PageSize)
		f.pages = append(f.pages, page)
		pageNo = len(f.pages) - 1
		binary.LittleEndian.PutUint32(page[4:8], PageSize) // free-space end
	}
	nSlots := int(binary.LittleEndian.Uint32(page[0:4]))
	freeEnd := int(binary.LittleEndian.Uint32(page[4:8]))

	// Tuples grow downward from the page end; slots upward from the header.
	tupleOff := freeEnd - f.tupleBytes()
	for i, v := range tuple {
		binary.LittleEndian.PutUint64(page[tupleOff+i*8:], uint64(v))
	}
	slotOff := pageHeaderSize + nSlots*slotBytes
	binary.LittleEndian.PutUint32(page[slotOff:], uint32(tupleOff))
	binary.LittleEndian.PutUint32(page[0:4], uint32(nSlots+1))
	binary.LittleEndian.PutUint32(page[4:8], uint32(tupleOff))
	f.count++
	return TID{Page: int32(pageNo), Slot: int32(nSlots)}, nil
}

// Get reads the tuple at tid into out (which must have the file's width)
// and returns out.
func (f *File) Get(tid TID, out []int64) ([]int64, error) {
	if int(tid.Page) < 0 || int(tid.Page) >= len(f.pages) {
		return nil, fmt.Errorf("heap: %s: page %d out of range", f.Name, tid.Page)
	}
	page := f.pages[tid.Page]
	nSlots := int(binary.LittleEndian.Uint32(page[0:4]))
	if int(tid.Slot) < 0 || int(tid.Slot) >= nSlots {
		return nil, fmt.Errorf("heap: %s: slot %d out of range on page %d", f.Name, tid.Slot, tid.Page)
	}
	slotOff := pageHeaderSize + int(tid.Slot)*slotBytes
	tupleOff := int(binary.LittleEndian.Uint32(page[slotOff:]))
	if cap(out) < f.Width {
		out = make([]int64, f.Width)
	}
	out = out[:f.Width]
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(page[tupleOff+i*8:]))
	}
	return out, nil
}

// Count returns the number of stored tuples.
func (f *File) Count() int { return f.count }

// Bytes returns the file's total size in bytes.
func (f *File) Bytes() int64 { return int64(len(f.pages)) * PageSize }

// Scan iterates all tuples in heap order, calling fn with the TID and the
// decoded tuple. The tuple slice is reused between calls; fn must copy it
// to retain it. Iteration stops early if fn returns false.
func (f *File) Scan(fn func(TID, []int64) bool) {
	buf := make([]int64, f.Width)
	for pn, page := range f.pages {
		nSlots := int(binary.LittleEndian.Uint32(page[0:4]))
		for s := 0; s < nSlots; s++ {
			slotOff := pageHeaderSize + s*slotBytes
			tupleOff := int(binary.LittleEndian.Uint32(page[slotOff:]))
			for i := 0; i < f.Width; i++ {
				buf[i] = int64(binary.LittleEndian.Uint64(page[tupleOff+i*8:]))
			}
			if !fn(TID{Page: int32(pn), Slot: int32(s)}, buf) {
				return
			}
		}
	}
}
