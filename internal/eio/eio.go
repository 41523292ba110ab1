// Package eio simulates the standard external-memory (I/O) model of
// Aggarwal and Vitter, which the paper uses for all of its bounds: data is
// transferred between a disk and a bounded internal memory in blocks of B
// records, and the cost of an algorithm is the number of block transfers
// (I/Os) it performs. A Device tracks every block touch through an exact
// LRU cache of M/B blocks, so I/O counts are deterministic and
// machine-independent.
//
// Data structures in this repository keep their payloads in ordinary Go
// memory but route every logical block access through a Device, which is
// what the paper's model measures. Space is measured in blocks via the
// allocation counter.
package eio

import (
	"container/list"
	"sync/atomic"
	"time"
)

// BlockID identifies one disk block. Contiguous allocations receive
// consecutive IDs, so scanning a blocked array touches consecutive blocks.
type BlockID int64

// Stats holds cumulative I/O counters for a Device.
type Stats struct {
	Reads   int64 // block reads that missed the cache
	Writes  int64 // block writes that missed the cache
	Hits    int64 // block touches served by the cache
	StallNs int64 // simulated miss-latency time charged (SetMissLatency)

	// Fault attribution (SetFaultPlan, Fail): injected events and their
	// simulated stall time, kept out of StallNs so a scrape can tell an
	// injected brownout from an honestly slow medium.
	Faults       int64 // injected fault events (brownouts, stuck stalls, failed touches)
	FaultStallNs int64 // simulated stall charged to injected faults
}

// IOs returns the total number of block transfers (reads plus writes).
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Touches returns the total number of block accesses (transfers plus
// cache hits).
func (s Stats) Touches() int64 { return s.Reads + s.Writes + s.Hits }

// HitRate returns the fraction of block touches served by the cache
// (0 when nothing was touched).
func (s Stats) HitRate() float64 {
	t := s.Touches()
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Sub returns the counter deltas s minus t — the per-window I/O of an
// interval bounded by two snapshots, so progress reporting and
// tracing never do field-by-field arithmetic by hand.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:        s.Reads - t.Reads,
		Writes:       s.Writes - t.Writes,
		Hits:         s.Hits - t.Hits,
		StallNs:      s.StallNs - t.StallNs,
		Faults:       s.Faults - t.Faults,
		FaultStallNs: s.FaultStallNs - t.FaultStallNs,
	}
}

// Add returns the counter sums s plus t, the aggregation dual of Sub.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:        s.Reads + t.Reads,
		Writes:       s.Writes + t.Writes,
		Hits:         s.Hits + t.Hits,
		StallNs:      s.StallNs + t.StallNs,
		Faults:       s.Faults + t.Faults,
		FaultStallNs: s.FaultStallNs + t.FaultStallNs,
	}
}

// Device is a simulated disk with block size B (in records) and an LRU
// cache of CacheBlocks blocks. The zero value is not usable; construct
// with NewDevice.
//
// Ownership invariant: a Device is not safe for concurrent use. The
// static structures in this repository serialize their device accesses,
// and internal/engine gives every shard its own Device so shards never
// share one. Because a data race here would not crash but silently
// corrupt the LRU and the I/O counters — invalidating every reported
// bound — Device carries a cheap always-on guard: Read, Write and Alloc
// take an atomic busy flag for the duration of the call and panic if
// they observe another goroutine inside the Device. Serialized sharing
// (e.g. behind a mutex, as the engine's worker pool does per shard) is
// fine; overlapping use fails loudly.
type Device struct {
	b           int
	cacheBlocks int
	next        BlockID
	stats       Stats
	missLatency time.Duration
	busy        atomic.Int32

	// Fault injection (fault.go). fault is owned like the LRU (nil when
	// healthy — the common case pays one nil check); failed is the
	// hard-fail latch, atomic so Fail/Heal may race the owner's touches.
	fault     *faultState
	failed    atomic.Bool
	failStall time.Duration

	lru     *list.List // of BlockID, front = most recent
	present map[BlockID]*list.Element
}

// NewDevice returns a Device with block size b records and an LRU cache
// holding cacheBlocks blocks. b must be positive; cacheBlocks may be zero,
// in which case every block touch costs one I/O.
func NewDevice(b, cacheBlocks int) *Device {
	if b <= 0 {
		panic("eio: block size must be positive")
	}
	if cacheBlocks < 0 {
		panic("eio: cache size must be non-negative")
	}
	return &Device{
		b:           b,
		cacheBlocks: cacheBlocks,
		lru:         list.New(),
		present:     make(map[BlockID]*list.Element),
	}
}

// NewDeviceLike returns a fresh, empty Device with the same geometry
// as d: block size, cache capacity and simulated miss latency. The new
// Device shares no state with d — it has its own cache, counters and
// ownership guard. This is how the engine mints per-replica devices:
// every clone of a shard gets a "disk" identical to the primary's, so
// replicated reads pay the same per-copy I/O model (single-owner
// invariant intact) and merely overlap their stalls. Fault state is
// deliberately NOT copied: a fresh device is a fresh, healthy disk,
// which is what makes Engine.Repair a repair.
func NewDeviceLike(d *Device) *Device {
	nd := NewDevice(d.b, d.cacheBlocks)
	nd.missLatency = d.missLatency
	return nd
}

// B returns the block size in records.
func (d *Device) B() int { return d.b }

// SetMissLatency makes every cache miss additionally sleep for lat,
// simulating the access time of the underlying disk. The default is
// zero (counting only). A positive latency lets concurrency experiments
// measure latency hiding: goroutines blocked on one shard's misses
// yield the processor, so an engine with S shards overlaps up to S
// outstanding accesses even on a single CPU — the external-memory
// analog of issuing parallel disk requests.
func (d *Device) SetMissLatency(lat time.Duration) {
	if lat < 0 {
		panic("eio: negative latency")
	}
	d.missLatency = lat
}

// enter acquires the busy flag, enforcing the ownership invariant.
func (d *Device) enter() {
	if !d.busy.CompareAndSwap(0, 1) {
		panic("eio: concurrent Device use (see the Device ownership invariant)")
	}
}

// exit releases the busy flag.
func (d *Device) exit() { d.busy.Store(0) }

// Alloc reserves n contiguous blocks and returns the first BlockID.
func (d *Device) Alloc(n int) BlockID {
	if n < 0 {
		panic("eio: negative allocation")
	}
	d.enter()
	id := d.next
	d.next += BlockID(n)
	d.exit()
	return id
}

// SpaceBlocks returns the total number of blocks allocated so far.
func (d *Device) SpaceBlocks() int64 { return int64(d.next) }

// Stats returns the cumulative I/O counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetCounters zeroes the I/O counters (allocations are kept) and empties
// the cache, so the next measurement starts cold.
func (d *Device) ResetCounters() {
	d.stats = Stats{}
	d.DropCache()
}

// DropCache empties the cache without touching the counters.
func (d *Device) DropCache() {
	d.lru.Init()
	d.present = make(map[BlockID]*list.Element)
}

// touch records an access to block id, charging an I/O on a cache miss.
// The no-cache, no-latency configuration — the default, and what every
// pure-CPU benchmark runs — is kept on a counter-only fast path: no LRU
// lookup (the map is always empty) and no clock call of any kind (the
// stall is behind a separate function so even its code stays off this
// path).
func (d *Device) touch(id BlockID, write bool) {
	d.enter()
	defer d.exit()
	if d.failed.Load() {
		d.failTouch()
	}
	if d.cacheBlocks == 0 && d.missLatency == 0 {
		if write {
			d.stats.Writes++
		} else {
			d.stats.Reads++
		}
		// Without a cache every touch is a miss, so the fault plan
		// (if any) sees the full access stream.
		if d.fault != nil {
			d.fault.onMiss(d)
		}
		return
	}
	if e, ok := d.present[id]; ok {
		// Hits never fault: the sick medium sits behind the cache.
		d.lru.MoveToFront(e)
		d.stats.Hits++
		return
	}
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	if d.missLatency > 0 {
		d.stall()
	}
	if d.fault != nil {
		d.fault.onMiss(d)
	}
	d.insert(id)
}

// stall sleeps for the simulated miss latency and charges it to the
// StallNs rollup (the simulated value, not the measured sleep, so the
// counter stays deterministic). Kept out of touch so the zero-latency
// path carries no time-package code.
//
//go:noinline
func (d *Device) stall() {
	d.stats.StallNs += int64(d.missLatency)
	time.Sleep(d.missLatency)
}

// insert adds id to the LRU cache (a no-op without a cache).
func (d *Device) insert(id BlockID) {
	if d.cacheBlocks == 0 {
		return
	}
	if d.lru.Len() >= d.cacheBlocks {
		back := d.lru.Back()
		d.lru.Remove(back)
		delete(d.present, back.Value.(BlockID))
	}
	d.present[id] = d.lru.PushFront(id)
}

// Read records a read access to block id.
func (d *Device) Read(id BlockID) { d.touch(id, false) }

// Write records a write access to block id.
func (d *Device) Write(id BlockID) { d.touch(id, true) }

// Blocks returns the number of blocks needed to hold n records: ceil(n/B).
func (d *Device) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + d.b - 1) / d.b
}
