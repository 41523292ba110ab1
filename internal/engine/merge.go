package engine

import (
	"math"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/index"
)

// This file is the engine's merge kernel: a k-way loser-tree merge over
// the per-shard sorted runs of one query. The previous implementation
// re-scanned all S heads per output element (S comparisons each); the
// loser tree plays a tournament once and then replays only the winner's
// root-to-leaf path, ceil(log2 S) play-offs per element, with zero
// allocations — the tree and head cursors live in the caller's arena.
//
// A play-off compares keys, not elements: each run's head carries a
// cached uint64 key whose strict order implies the element order (the
// id itself for ids, the first coordinate for records, the distance for
// neighbors). Only two equal keys — ±0, NaNs, a shared first coordinate
// or distance — fall back to the element's full order, less. So the
// common play-off is one integer comparison, and a record's coordinates
// are read once, when it becomes its run's head.
//
// Output order is byte-identical to the old linear-scan merge: the
// strictly smallest head wins, and ties break toward the lower run
// index (for the engine, the lower plan position — ascending shard
// order). The property and fuzz tests in merge_test.go and fuzz_test.go
// pin this equivalence against the reference implementation.

// merger is the loser-tree state over k sorted runs. Internal nodes
// 1..k-1 of a heap-shaped tree hold the loser of their subtree's
// play-off; leaves k..2k-1 are the runs. Exhausted runs hold the
// largest key and lose to everything.
//
// merger is a value type used on the caller's stack; its slices come
// from the caller's arena (keys from the stack) so a steady-state merge
// allocates nothing.
type merger[T any] struct {
	runs  [][]T
	heads []int32  // heads[i]: next unconsumed element of runs[i]
	keys  []uint64 // keys[i]: key(runs[i][heads[i]]), or exhausted
	loser []int32  // loser[p] for internal nodes p in [1, k)
	key   func(*T) uint64
	less  func(a, b T) bool
}

// exhausted is an exhausted run's key. A live head may share it, so an
// equal pair still goes through tie.
const exhausted = ^uint64(0)

// maxStackRuns is how many runs' keys a merge keeps on its stack; a
// merge of more runs (an engine of more shards) allocates its keys.
const maxStackRuns = 64

// tie decides a play-off between two equal keys by the full order: a
// strictly smaller head, or an equal head with the lower run index, or
// the other run exhausted. Because ties go to the lower index, one less
// call decides: the lower run wins unless the other head is strictly
// smaller.
func (m *merger[T]) tie(i, j int32) bool {
	ei := m.heads[i] >= int32(len(m.runs[i]))
	ej := m.heads[j] >= int32(len(m.runs[j]))
	if ei || ej {
		if ei && ej {
			return i < j // both exhausted: deterministic, value unused
		}
		return ej
	}
	vi, vj := m.runs[i][m.heads[i]], m.runs[j][m.heads[j]]
	if i < j {
		return !m.less(vj, vi)
	}
	return m.less(vi, vj)
}

// load caches run i's head key.
func (m *merger[T]) load(i int32) {
	if h := m.heads[i]; h < int32(len(m.runs[i])) {
		m.keys[i] = m.key(&m.runs[i][h])
	} else {
		m.keys[i] = exhausted
	}
}

// build plays the initial tournament below internal node p, storing
// losers on the way up, and returns the subtree's winner. A strictly
// smaller key wins a play-off outright; equal keys go to tie.
func (m *merger[T]) build(p int32) int32 {
	if p >= int32(len(m.runs)) {
		return p - int32(len(m.runs)) // leaf: the run itself
	}
	a, b := m.build(2*p), m.build(2*p+1)
	if ka, kb := m.keys[a], m.keys[b]; ka < kb || ka == kb && m.tie(a, b) {
		m.loser[p] = b
		return a
	}
	m.loser[p] = a
	return b
}

// replay re-runs the play-offs on winner w's leaf-to-root path after
// its head advanced, returning the new overall winner.
func (m *merger[T]) replay(w int32) int32 {
	k, kw := int32(len(m.runs)), m.keys[w]
	for p := (w + k) / 2; p >= 1; p /= 2 {
		l := m.loser[p]
		kl := m.keys[l]
		if kl == kw { // rare: only the full order can tell
			if m.tie(l, w) {
				m.loser[p], w = w, l
			}
			continue
		}
		// Written as selects so the unpredictable outcome compiles to
		// conditional moves, not a branch.
		win, lose := w, l
		if kl < kw {
			win, lose, kw = l, w, kl
		}
		m.loser[p], w = lose, win
	}
	return w
}

// loserMerge appends the merge of the sorted runs to dst and returns
// the extended slice, stopping after limit elements (limit < 0: merge
// everything). less is T's full order, consulted only between equal
// head keys; T must be one of the element types mergeKey knows. heads
// and loser are caller-owned scratch, grown in place and reused across
// calls.
func loserMerge[T any](dst []T, runs [][]T, heads, loser *[]int32, less func(a, b T) bool, limit int) []T {
	if limit == 0 || len(runs) == 0 {
		return dst
	}
	if len(runs) == 1 {
		r := runs[0]
		if limit >= 0 && limit < len(r) {
			r = r[:limit]
		}
		return append(dst, r...)
	}
	k := len(runs)
	*heads = resetInt32(*heads, k)
	*loser = resetInt32(*loser, k)
	var stack [maxStackRuns]uint64
	keys := stack[:]
	if k > len(keys) {
		keys = make([]uint64, k)
	}
	m := merger[T]{runs: runs, heads: *heads, keys: keys[:k], loser: *loser, key: mergeKey[T](), less: less}
	for i := range runs {
		m.load(int32(i))
	}
	w := m.build(1)
	n := 0
	for m.heads[w] < int32(len(m.runs[w])) {
		dst = append(dst, m.runs[w][m.heads[w]])
		m.heads[w]++
		n++
		if limit >= 0 && n >= limit {
			break
		}
		m.load(w)
		w = m.replay(w)
	}
	return dst
}

// resetInt32 returns buf resized to n zeroed entries, reusing capacity.
func resetInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	return buf
}

// The three element orders the engine merges under, each a full order
// (less) and a head key. A key maps an element to a uint64 so that a
// strictly smaller key means a strictly smaller element; equal keys say
// nothing. Plain functions, not closures, so passing them allocates
// nothing.

func intLess(a, b int) bool { return a < b }

func recLess(a, b index.Record) bool { return a.Less(b) }

func neighborLess(a, b chan3d.Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.ID < b.ID
}

// mergeKey returns T's head key function.
func mergeKey[T any]() func(*T) uint64 {
	var key any
	switch any((*T)(nil)).(type) {
	case *int:
		key = idKey
	case *index.Record:
		key = recKey
	case *chan3d.Neighbor:
		key = neighborKey
	}
	return key.(func(*T) uint64) // panics for any other T: a programming error
}

// idKey is the id itself, offset so int order is uint64 order.
func idKey(id *int) uint64 { return uint64(*id) ^ 1<<63 }

// neighborKey is the distance.
func neighborKey(n *chan3d.Neighbor) uint64 { return floatKey(n.Dist2) }

// recKey is the first coordinate, below a shape bit: planar records
// (nil PD) sort before d-dimensional ones in Record.Compare, and an
// empty PD before any longer one.
func recKey(r *index.Record) uint64 {
	switch {
	case r.PD == nil:
		return floatKey(r.P2.X) >> 1
	case len(r.PD) == 0:
		return 1 << 63
	}
	return 1<<63 | floatKey(r.PD[0])>>1
}

// floatKey maps x to a uint64 in cmp.Compare's order: every NaN to 0,
// below −Inf; −0 and +0 to one key; otherwise the IEEE bits, flipped so
// that unsigned order is numeric order.
func floatKey(x float64) uint64 {
	switch {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// The answer fields the orders above merge, as plain functions too.

func answerIDs(x *index.Answer) []int { return x.IDs }

func answerRecs(x *index.Answer) []index.Record { return x.Recs }

func answerNeighbors(x *index.Answer) []chan3d.Neighbor { return x.Neighbors }
