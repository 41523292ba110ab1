package eio

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBlocks(t *testing.T) {
	d := NewDevice(4, 0)
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {-3, 0}}
	for _, c := range cases {
		if got := d.Blocks(c.n); got != c.want {
			t.Errorf("Blocks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAllocContiguous(t *testing.T) {
	d := NewDevice(8, 0)
	a := d.Alloc(3)
	b := d.Alloc(2)
	if b != a+3 {
		t.Fatalf("allocations not contiguous: %d then %d", a, b)
	}
	if d.SpaceBlocks() != 5 {
		t.Fatalf("SpaceBlocks = %d, want 5", d.SpaceBlocks())
	}
}

func TestNoCacheEveryTouchCosts(t *testing.T) {
	d := NewDevice(8, 0)
	id := d.Alloc(1)
	for i := 0; i < 10; i++ {
		d.Read(id)
	}
	if got := d.Stats().Reads; got != 10 {
		t.Fatalf("uncached reads = %d, want 10", got)
	}
}

func TestLRUExact(t *testing.T) {
	d := NewDevice(8, 2)
	a, b, c := d.Alloc(1), d.Alloc(1), d.Alloc(1)
	d.Read(a) // miss
	d.Read(b) // miss
	d.Read(a) // hit
	d.Read(c) // miss, evicts b (LRU)
	d.Read(b) // miss
	d.Read(c) // hit (c still resident)
	s := d.Stats()
	if s.Reads != 4 || s.Hits != 2 {
		t.Fatalf("got reads=%d hits=%d, want 4/2", s.Reads, s.Hits)
	}
}

func TestResetCounters(t *testing.T) {
	d := NewDevice(8, 4)
	id := d.Alloc(1)
	d.Read(id)
	d.ResetCounters()
	if d.Stats() != (Stats{}) {
		t.Fatal("counters not zeroed")
	}
	d.Read(id)
	if d.Stats().Reads != 1 {
		t.Fatal("cache not dropped by ResetCounters")
	}
	if d.SpaceBlocks() != 1 {
		t.Fatal("ResetCounters must keep allocations")
	}
}

func TestArrayScanCost(t *testing.T) {
	// Scanning K contiguous records costs exactly ceil(K/B) reads from cold.
	check := func(k uint8, b8 uint8) bool {
		b := int(b8%16) + 1
		kk := int(k)
		d := NewDevice(b, 0)
		data := make([]int, kk)
		a := NewArray(d, data)
		d.ResetCounters()
		cnt := 0
		a.All(func(i int, v int) bool { cnt++; return true })
		return cnt == kk && int(d.Stats().Reads) == d.Blocks(kk)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayGetValues(t *testing.T) {
	d := NewDevice(3, 0)
	a := NewArray(d, []string{"p", "q", "r", "s"})
	if a.Len() != 4 || a.Blocks() != 2 {
		t.Fatalf("len/blocks = %d/%d", a.Len(), a.Blocks())
	}
	for i, want := range []string{"p", "q", "r", "s"} {
		if got := a.Get(i); got != want {
			t.Errorf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestArrayScanEarlyStop(t *testing.T) {
	d := NewDevice(2, 0)
	a := NewArray(d, []int{0, 1, 2, 3, 4, 5})
	d.ResetCounters()
	seen := 0
	a.Scan(0, 6, func(i, v int) bool { seen++; return i < 1 })
	if seen != 2 {
		t.Fatalf("early stop scanned %d records, want 2", seen)
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("early stop cost %d reads, want 1", d.Stats().Reads)
	}
}

func TestArrayScanClamps(t *testing.T) {
	d := NewDevice(2, 0)
	a := NewArray(d, []int{1, 2, 3})
	got := 0
	a.Scan(-5, 99, func(i, v int) bool { got += v; return true })
	if got != 6 {
		t.Fatalf("clamped scan sum = %d, want 6", got)
	}
}

// TestArrayBlockViews checks the block view against the record-at-a-time
// scan it stands in for: iterating Block(k) for k < Blocks() yields the
// same records in the same order for the same reads, every view is at
// most B records, and appending to a view cannot reach the next block.
func TestArrayBlockViews(t *testing.T) {
	check := func(k uint8, b8 uint8) bool {
		b := int(b8%16) + 1
		data := make([]int, int(k))
		for i := range data {
			data[i] = i * 7
		}
		d := NewDevice(b, 0)
		a := NewArray(d, data)
		d.ResetCounters()
		var viaScan []int
		a.All(func(_ int, v int) bool { viaScan = append(viaScan, v); return true })
		scanReads := d.Stats().Reads
		d.ResetCounters()
		var viaBlocks []int
		for kk := 0; kk < a.Blocks(); kk++ {
			blk := a.Block(kk)
			if len(blk) == 0 || len(blk) > b || cap(blk) != len(blk) {
				return false
			}
			viaBlocks = append(viaBlocks, blk...)
		}
		return slices.Equal(viaBlocks, viaScan) && slices.Equal(viaBlocks, data) && d.Stats().Reads == scanReads
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArrayScanMidRange pins the block-by-block walk on a range that
// starts and ends inside blocks: records [3, 8) of a B = 2 array touch
// blocks 1, 2 and 3.
func TestArrayScanMidRange(t *testing.T) {
	d := NewDevice(2, 0)
	a := NewArray(d, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	d.ResetCounters()
	var got []int
	a.Scan(3, 8, func(i, v int) bool { got = append(got, i*10+v); return true })
	if want := []int{33, 44, 55, 66, 77}; !slices.Equal(got, want) {
		t.Fatalf("Scan(3, 8) visited %v, want %v", got, want)
	}
	if d.Stats().Reads != 3 {
		t.Fatalf("Scan(3, 8) cost %d reads, want 3", d.Stats().Reads)
	}
}

func TestWriteCounts(t *testing.T) {
	d := NewDevice(4, 0)
	id := d.Alloc(2)
	d.Write(id)
	d.Write(id + 1)
	if d.Stats().Writes != 2 {
		t.Fatalf("writes = %d, want 2", d.Stats().Writes)
	}
}

func TestMissLatencySleeps(t *testing.T) {
	d := NewDevice(4, 0)
	id := d.Alloc(3)
	d.SetMissLatency(3 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 3; i++ {
		d.Read(id + BlockID(i))
	}
	if el := time.Since(start); el < 9*time.Millisecond {
		t.Fatalf("3 misses at 3ms latency took %v, want >= 9ms", el)
	}
	if d.Stats().Reads != 3 {
		t.Fatalf("reads = %d, want 3", d.Stats().Reads)
	}
}

func TestMissLatencySkipsCacheHits(t *testing.T) {
	d := NewDevice(4, 8)
	id := d.Alloc(1)
	d.SetMissLatency(20 * time.Millisecond)
	d.Read(id) // miss: pays latency, now cached
	start := time.Now()
	for i := 0; i < 100; i++ {
		d.Read(id) // hits: no latency
	}
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("100 cache hits took %v, want well under one miss latency", el)
	}
}

func TestConcurrentUsePanics(t *testing.T) {
	// Two goroutines overlap inside touch via the miss latency:
	// whichever enters second must panic. Both recover (scheduling
	// decides the roles), and in the pathological schedule where the
	// accesses never overlap at all, retry.
	for attempt := 0; attempt < 5; attempt++ {
		d := NewDevice(4, 0)
		id := d.Alloc(1)
		d.SetMissLatency(100 * time.Millisecond)
		panicked := make(chan bool, 2)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { panicked <- recover() != nil }()
				if g == 1 {
					time.Sleep(20 * time.Millisecond)
				}
				d.Read(id)
			}()
		}
		wg.Wait()
		close(panicked)
		for p := range panicked {
			if p {
				return
			}
		}
	}
	t.Fatal("overlapping Device use did not panic")
}

func TestSerializedSharingAllowed(t *testing.T) {
	// Multiple goroutines may share a Device behind a mutex: the guard
	// must only reject overlapping use, not cross-goroutine handoff.
	d := NewDevice(4, 0)
	id := d.Alloc(4)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.Lock()
				d.Read(id + BlockID(i%4))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := d.Stats().Reads; got != 800 {
		t.Fatalf("reads = %d, want 800", got)
	}
}

func TestStatsSubAddHitRate(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, Hits: 6, StallNs: 900}
	b := Stats{Reads: 3, Writes: 1, Hits: 2, StallNs: 300}
	d := a.Sub(b)
	if d != (Stats{Reads: 7, Writes: 3, Hits: 4, StallNs: 600}) {
		t.Fatalf("Sub = %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Fatalf("Add(Sub) = %+v, want %+v", got, a)
	}
	if r := a.HitRate(); r != 6.0/20.0 {
		t.Fatalf("HitRate = %v", r)
	}
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("zero HitRate = %v", r)
	}
}

func TestStallNsRollup(t *testing.T) {
	d := NewDevice(4, 1)
	d.SetMissLatency(time.Microsecond)
	id := d.Alloc(2)
	d.Read(id)     // miss: one stall
	d.Read(id)     // hit: no stall
	d.Read(id + 1) // miss: second stall
	st := d.Stats()
	if st.StallNs != 2*int64(time.Microsecond) {
		t.Fatalf("StallNs = %d, want %d", st.StallNs, 2*int64(time.Microsecond))
	}
}
