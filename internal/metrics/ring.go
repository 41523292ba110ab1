package metrics

import "sync"

// Ring is a fixed-capacity overwrite ring of records — the storage
// behind the engine watchdog's health events and the flight recorder's
// slow-run captures. Put fills the next slot in place (overwriting the
// oldest once full) and Snapshot copies the live records out
// oldest-first; neither allocates once the slots and the destination
// are sized. A short critical section around a struct copy is the whole
// synchronization story: captures are rare, so the lock is uncontended
// in practice, and a mutex (unlike a clever lock-free scheme) keeps the
// records tear-free.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next uint64 // total Puts; buf[next%len] is the next slot
}

// NewRing returns a ring over buf's slots; len(buf) (at least 1) is the
// capacity. Slots may come pre-sized — e.g. holding slice capacity that
// Put's fill reuses — so that a capture never allocates.
func NewRing[T any](buf []T) *Ring[T] { return &Ring[T]{buf: buf} }

// Put overwrites the next slot, the oldest record once the ring is
// full, by calling fill on it under the ring's lock.
func (r *Ring[T]) Put(fill func(slot *T)) {
	r.mu.Lock()
	fill(&r.buf[r.next%uint64(len(r.buf))])
	r.next++
	r.mu.Unlock()
}

// Snapshot appends the live records to dst oldest-first and returns it.
// Each record is copied by cp(dst slot, ring slot), or by assignment
// when cp is nil; a deep cp reuses the spare capacity of a recycled
// dst[:0] slot by slot, so polling into reused storage allocates
// nothing at steady state.
func (r *Ring[T]) Snapshot(dst []T, cp func(dst, src *T)) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	if r.next > n {
		start = r.next - n
	}
	for i := start; i < r.next; i++ {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			var zero T
			dst = append(dst, zero)
		}
		if src := &r.buf[i%n]; cp != nil {
			cp(&dst[len(dst)-1], src)
		} else {
			dst[len(dst)-1] = *src
		}
	}
	return dst
}
