package eio

// Array is a blocked, immutable-length array of records stored in
// contiguous blocks on a Device. Element i lives in block base + i/B, so a
// sequential scan of K records costs ceil(K/B) I/Os (plus alignment), the
// unit the paper's reporting bounds are stated in.
type Array[T any] struct {
	dev  *Device
	base BlockID
	data []T
}

// NewArray copies data onto freshly allocated contiguous blocks of dev,
// charging the write I/Os for materializing it.
func NewArray[T any](dev *Device, data []T) *Array[T] {
	nb := dev.Blocks(len(data))
	a := &Array[T]{dev: dev, base: dev.Alloc(nb), data: append([]T(nil), data...)}
	for i := 0; i < nb; i++ {
		dev.Write(a.base + BlockID(i))
	}
	return a
}

// Len returns the number of records.
func (a *Array[T]) Len() int { return len(a.data) }

// Blocks returns the number of blocks the array occupies.
func (a *Array[T]) Blocks() int { return a.dev.Blocks(len(a.data)) }

// Get reads record i, charging the I/O for its block.
func (a *Array[T]) Get(i int) T {
	a.dev.Read(a.base + BlockID(i/a.dev.b))
	return a.data[i]
}

// Block reads block k of the array (one I/O) and returns its records,
// a zero-copy read-only view: records [k·B, min((k+1)·B, Len)). Report
// loops iterate k over [0, Blocks()) and range over each view, which
// charges exactly the reads of a full Scan without a call per record.
func (a *Array[T]) Block(k int) []T {
	a.dev.Read(a.base + BlockID(k))
	lo := k * a.dev.b
	hi := min(lo+a.dev.b, len(a.data))
	return a.data[lo:hi:hi]
}

// Scan calls fn on records [from, to), charging one read per block
// touched. It stops early if fn returns false.
func (a *Array[T]) Scan(from, to int, fn func(i int, v T) bool) {
	from, to = max(from, 0), min(to, len(a.data))
	for from < to {
		k := from / a.dev.b
		a.dev.Read(a.base + BlockID(k))
		end := min((k+1)*a.dev.b, to)
		for i := from; i < end; i++ {
			if !fn(i, a.data[i]) {
				return
			}
		}
		from = end
	}
}

// All scans every record.
func (a *Array[T]) All(fn func(i int, v T) bool) { a.Scan(0, len(a.data), fn) }

// Reader is a sequential cursor over an Array that charges one read per
// block rather than per record, modelling a process that keeps the
// current block buffered in memory (as the merge phases of external
// sorting do).
type Reader[T any] struct {
	arr  *Array[T]
	next int
	end  int // one past the last record of the buffered block
}

// NewReader returns a cursor at the start of the array.
func NewReader[T any](arr *Array[T]) *Reader[T] {
	return &Reader[T]{arr: arr}
}

// Next returns the next record, charging an I/O only on block
// boundaries. Each boundary crossing also prefetches the following
// block of the array (Device.Prefetch): under a nonzero miss latency
// the scan then pays the stall only for its first block — subsequent
// blocks arrive while the caller consumes the current one, the overlap
// a real sequential reader gets from read-ahead. I/O counts are
// unchanged in every configuration (the hinted block is charged when
// read, or never); on the default zero-latency device the prefetch is
// a no-op.
func (r *Reader[T]) Next() (T, bool) {
	var zero T
	if r.next >= len(r.arr.data) {
		return zero, false
	}
	if r.next == r.end { // block boundary: one division per block, not per record
		k := r.next / r.arr.dev.b
		r.arr.dev.Read(r.arr.base + BlockID(k))
		r.end = min((k+1)*r.arr.dev.b, len(r.arr.data))
		if r.end < len(r.arr.data) {
			r.arr.dev.Prefetch(r.arr.base + BlockID(k+1))
		}
	}
	v := r.arr.data[r.next]
	r.next++
	return v, true
}
