package engine

import (
	"math/rand"
	"sync"
	"testing"

	"linconstraint/internal/workload"
)

// trafficEngine builds a small static planar engine over s shards whose
// traffic counts the tests drive directly (white box — in production
// they are fed by planned visits).
func trafficEngine(t *testing.T, s int) *Engine {
	t.Helper()
	pts := workload.Uniform2(rand.New(rand.NewSource(45)), 400)
	e := NewPlanar(pts, Options{Shards: s, BlockSize: 64, Seed: 1})
	t.Cleanup(e.Close)
	return e
}

func TestShardTrafficCountsExactly(t *testing.T) {
	e := trafficEngine(t, 8)
	want := []uint64{0, 500, 120, 30, 0, 0, 0, 5}
	for si, n := range want {
		for i := uint64(0); i < n; i++ {
			e.traffic.Touch(uint64(si))
		}
	}
	for si, n := range want {
		if got := e.ShardTraffic(si); got != n {
			t.Fatalf("ShardTraffic(%d) = %d, want exactly %d", si, got, n)
		}
	}
}

// TestShardTrafficAgingHalves: the 2048·S-th touch halves every count,
// rounding down, and the next period starts from there.
func TestShardTrafficAgingHalves(t *testing.T) {
	e := trafficEngine(t, 2)
	const period = 2048 * 2
	for i := 0; i < 2999; i++ {
		e.traffic.Touch(0)
	}
	for i := 0; i < period-2999-1; i++ {
		e.traffic.Touch(1)
	}
	if a, b := e.ShardTraffic(0), e.ShardTraffic(1); a != 2999 || b != 1096 {
		t.Fatalf("before the period ends: counts %d, %d, want 2999, 1096", a, b)
	}
	e.traffic.Touch(1) // the period's last touch: 1097 before halving
	if a, b := e.ShardTraffic(0), e.ShardTraffic(1); a != 1499 || b != 548 {
		t.Fatalf("after aging: counts %d, %d, want 1499, 548", a, b)
	}
	for i := 0; i < period-1; i++ {
		e.traffic.Touch(0)
	}
	if a := e.ShardTraffic(0); a != 1499+period-1 {
		t.Fatalf("mid second period: count %d, want %d", a, 1499+period-1)
	}
	e.traffic.Touch(0)
	if a, b := e.ShardTraffic(0), e.ShardTraffic(1); a != (1499+period)/2 || b != 274 {
		t.Fatalf("after second aging: counts %d, %d, want %d, 274", a, b, (1499+period)/2)
	}
}

// TestHotShardsOrderAndTies: every shard with a non-zero count, hottest
// first, ties to the lower shard id; untouched shards are left out.
func TestHotShardsOrderAndTies(t *testing.T) {
	e := trafficEngine(t, 8)
	for si, n := range []int{3, 0, 7, 3, 0, 7, 1, 0} {
		for i := 0; i < n; i++ {
			e.traffic.Touch(uint64(si))
		}
	}
	want := []HotShard{{2, 7}, {5, 7}, {0, 3}, {3, 3}, {6, 1}}
	got := e.HotShards([]HotShard{{Key: 99, Count: 99}})
	if len(got) != 1+len(want) || got[0] != (HotShard{99, 99}) {
		t.Fatalf("HotShards did not append after dst's entries: %+v", got)
	}
	for i, h := range want {
		if got[1+i] != h {
			t.Fatalf("HotShards = %+v, want %+v after the prefix", got[1:], want)
		}
	}
}

func TestShardTrafficOutOfRange(t *testing.T) {
	e := trafficEngine(t, 4)
	for si := 0; si < 4; si++ {
		e.traffic.Touch(uint64(si))
	}
	for _, si := range []int{-1, 4, 1 << 40} {
		if got := e.ShardTraffic(si); got != 0 {
			t.Fatalf("ShardTraffic(%d) = %d, want 0", si, got)
		}
	}
}

func TestShardTrafficReset(t *testing.T) {
	e := trafficEngine(t, 4)
	for i := 0; i < 2048*4-1; i++ {
		e.traffic.Touch(uint64(i % 4))
	}
	e.traffic.Reset()
	for si := 0; si < 4; si++ {
		if got := e.ShardTraffic(si); got != 0 {
			t.Fatalf("ShardTraffic(%d) = %d after Reset, want 0", si, got)
		}
	}
	if top := e.HotShards(nil); len(top) != 0 {
		t.Fatalf("HotShards after Reset = %+v, want none", top)
	}
	// Reset also restarts the aging period: one more touch does not halve.
	e.traffic.Touch(0)
	e.traffic.Touch(0)
	if got := e.ShardTraffic(0); got != 2 {
		t.Fatalf("ShardTraffic(0) = %d after Reset and 2 touches, want 2", got)
	}
}

// TestShardTrafficConcurrentTouchExact: concurrent touches below the
// aging threshold (2048·8) are never lost. Run under -race.
func TestShardTrafficConcurrentTouchExact(t *testing.T) {
	e := trafficEngine(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.traffic.Touch(uint64((g + i) % 8))
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for si := 0; si < 8; si++ {
		if got := e.ShardTraffic(si); got != 1000 {
			t.Errorf("ShardTraffic(%d) = %d, want 1000", si, got)
		}
		sum += e.ShardTraffic(si)
	}
	if sum != 8000 {
		t.Fatalf("counts sum to %d, want exactly 8000", sum)
	}
}

// TestShardTrafficConcurrentAging: touches racing several aging passes
// stay safe under -race, lose nothing to a halving (the sum never
// exceeds the touches) and keep the hot shard ahead.
func TestShardTrafficConcurrentAging(t *testing.T) {
	e := trafficEngine(t, 2)
	const G, perG = 8, 4000 // 32 000 touches: 7 aging passes at S = 2
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e.traffic.Touch(uint64(min(i%4, 1))) // shard 0 draws 1 in 4
			}
		}()
	}
	wg.Wait()
	cold, hot := e.ShardTraffic(0), e.ShardTraffic(1)
	if sum := cold + hot; sum == 0 || sum > G*perG {
		t.Fatalf("counts %d + %d after %d touches with aging", cold, hot, G*perG)
	}
	if hot <= cold {
		t.Fatalf("hot shard %d not ahead of cold shard %d", hot, cold)
	}
}

// TestShardTrafficZeroAllocs: Touch sits on the dispatch hot path and
// HotShards is a polling API; neither may allocate (HotShards into a
// pre-grown dst).
func TestShardTrafficZeroAllocs(t *testing.T) {
	e := trafficEngine(t, 8)
	i := uint64(0)
	assertZeroAllocs(t, "Touch", func() {
		e.traffic.Touch(i % 8)
		i++
	})
	dst := make([]HotShard, 0, 8)
	assertZeroAllocs(t, "HotShards into a pre-grown dst", func() {
		dst = e.HotShards(dst[:0])
	})
	if len(dst) != 8 {
		t.Fatalf("HotShards returned %d shards, want 8", len(dst))
	}
}
