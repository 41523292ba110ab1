package metrics

import "sync"

// Ring is a fixed-capacity overwrite ring of value records — the
// storage behind the engine watchdog's health events. Put copies the
// record into the next slot (overwriting the oldest once full) and
// never allocates after construction; Snapshot copies the live records
// out oldest-first. A short critical section around a struct copy is
// the whole synchronization story: events are rare, so the lock is
// uncontended in practice, and a mutex (unlike a clever lock-free
// scheme) keeps the records tear-free.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next uint64 // total Puts; buf[next%len] is the next slot
}

// NewRing returns a ring holding the last n records (n < 1 is clamped
// to 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{buf: make([]T, n)}
}

// Put records v, overwriting the oldest record once the ring is full.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = v
	r.next++
	r.mu.Unlock()
}

// Len returns the number of live records (at most the capacity).
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Snapshot appends the live records to dst oldest-first and returns
// it. Pass a reused dst[:0] to keep the copy allocation-free at
// steady state.
func (r *Ring[T]) Snapshot(dst []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.next
	if r.next > n {
		start = r.next - n
		count = n
	}
	for i := uint64(0); i < count; i++ {
		dst = append(dst, r.buf[(start+i)%n])
	}
	return dst
}
