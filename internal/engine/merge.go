package engine

import (
	"linconstraint/internal/index"

	"linconstraint/internal/chan3d"
)

// This file is the engine's merge kernel: a k-way loser-tree merge over
// the per-shard sorted runs of one query. The previous implementation
// re-scanned all S heads per output element (S comparisons each); the
// loser tree plays a tournament once and then replays only the winner's
// root-to-leaf path, ceil(log2 S) comparisons per element, with zero
// allocations — the tree and head cursors live in the caller's arena.
//
// Output order is byte-identical to the old linear-scan merge: the
// strictly smallest head wins, and ties break toward the lower run
// index (for the engine, the lower plan position — ascending shard
// order). The property and fuzz tests in merge_test.go and fuzz_test.go
// pin this equivalence against the reference implementation.

// merger is the loser-tree state over k sorted runs. Internal nodes
// 1..k-1 of a heap-shaped tree hold the loser of their subtree's
// play-off; leaves k..2k-1 are the runs. The comparisons happen
// through less, one per play-off; exhausted runs lose to everything.
//
// merger is a value type used on the caller's stack; its slices come
// from the caller's arena so a steady-state merge allocates nothing.
type merger[T any] struct {
	runs  [][]T
	heads []int32 // heads[i]: next unconsumed element of runs[i]
	loser []int32 // loser[p] for internal nodes p in [1, k)
	less  func(a, b T) bool
}

// beats reports whether run i's head wins the play-off against run j's:
// strictly smaller head, or an equal head with the lower run index, or
// the other run exhausted. Because ties go to the lower index, one less
// call decides: the lower run wins unless the other head is strictly
// smaller.
func (m *merger[T]) beats(i, j int32) bool {
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

// build plays the initial tournament below internal node p, storing
// losers on the way up, and returns the subtree's winner.
func (m *merger[T]) build(p int32) int32 {
	if p >= int32(len(m.runs)) {
		return p - int32(len(m.runs)) // leaf: the run itself
	}
	a, b := m.build(2*p), m.build(2*p+1)
	if m.beats(a, b) {
		m.loser[p] = b
		return a
	}
	m.loser[p] = a
	return b
}

// replay re-runs the play-offs on winner w's leaf-to-root path after
// its head advanced, returning the new overall winner.
func (m *merger[T]) replay(w int32) int32 {
	k := int32(len(m.runs))
	for p := (w + k) / 2; p >= 1; p /= 2 {
		if m.beats(m.loser[p], w) {
			m.loser[p], w = w, m.loser[p]
		}
	}
	return w
}

// loserMerge appends the merge of the sorted runs to dst and returns
// the extended slice, stopping after limit elements (limit < 0: merge
// everything). heads and loser are caller-owned scratch, grown in place
// and reused across calls.
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
	m := merger[T]{runs: runs, heads: *heads, loser: *loser, less: less}
	w := m.build(1)
	n := 0
	for m.heads[w] < int32(len(m.runs[w])) {
		dst = append(dst, m.runs[w][m.heads[w]])
		m.heads[w]++
		n++
		if limit >= 0 && n >= limit {
			break
		}
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

// The three element orders the engine merges under. Plain functions,
// not closures, so passing them allocates nothing.

func intLess(a, b int) bool { return a < b }

func recLess(a, b index.Record) bool { return a.Less(b) }

func neighborLess(a, b chan3d.Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.ID < b.ID
}

// The answer fields the orders above merge, as plain functions too.

func answerIDs(x *index.Answer) []int { return x.IDs }

func answerRecs(x *index.Answer) []index.Record { return x.Recs }

func answerNeighbors(x *index.Answer) []chan3d.Neighbor { return x.Neighbors }
