package engine

// Per-shard traffic counting (DESIGN.md §10). The keys are the shard
// ids 0…S−1, so the counts are exact: one atomic counter per shard,
// plus the aging rule that makes them track recent traffic rather than
// all-time totals — every 2048·S touches, every count halves.

import "sync/atomic"

// HotShard is one entry of the engine's traffic ranking: a shard id and
// its recent (aged) visit count.
type HotShard struct{ Key, Count uint64 }

// shardTraffic counts planned visits per shard. Touch, Estimate and
// TopInto are plain atomics and allocation-free, so the counter sits on
// the dispatch hot path.
type shardTraffic struct {
	visits []atomic.Uint64
	adds   atomic.Uint64 // touches since construction or Reset
	period uint64        // touches between halvings: 2048·S
}

func newShardTraffic(shards int) *shardTraffic {
	return &shardTraffic{
		visits: make([]atomic.Uint64, shards),
		period: 2048 * uint64(shards),
	}
}

// Touch counts one visit to shard si. The touch that completes each
// period halves every count: the atomic add elects exactly one
// goroutine per period, and each halving is a CAS, so a touch racing
// it is never lost.
func (t *shardTraffic) Touch(si uint64) {
	t.visits[si].Add(1)
	if t.adds.Add(1)%t.period != 0 {
		return
	}
	for i := range t.visits {
		for {
			v := t.visits[i].Load()
			if v == 0 || t.visits[i].CompareAndSwap(v, v/2) {
				break
			}
		}
	}
}

// Estimate returns shard si's recent visit count, or 0 for a shard out
// of range.
func (t *shardTraffic) Estimate(si int) uint64 {
	if si < 0 || si >= len(t.visits) {
		return 0
	}
	return t.visits[si].Load()
}

// TopInto appends every shard with a non-zero count to dst, hottest
// first with ties to the lower shard id, and returns it. With a
// pre-grown dst the call is allocation-free.
func (t *shardTraffic) TopInto(dst []HotShard) []HotShard {
	n0 := len(dst)
	for si := range t.visits {
		if c := t.visits[si].Load(); c > 0 {
			dst = append(dst, HotShard{Key: uint64(si), Count: c})
		}
	}
	// Insertion sort over the appended region: it is stable and the
	// shards were appended in id order, so ties keep the lower id first.
	s := dst[n0:]
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Count > s[j-1].Count; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return dst
}

// Reset zeroes every count and restarts the aging period. Not safe
// against a concurrent Touch. ResetStats leaves the counts alone —
// replication decisions should survive a stats reset.
func (t *shardTraffic) Reset() {
	for i := range t.visits {
		t.visits[i].Store(0)
	}
	t.adds.Store(0)
}
