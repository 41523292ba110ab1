package index

import (
	"fmt"
	"slices"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/partition"
)

// The dynamic adapters add insertions and deletions to the static
// adapters with the logarithmic method, the technique the paper points
// to for the partition tree (§5 Remark iii) and poses as an open
// problem for the planar structure (§7, problem 1). Because the method
// moves items between buckets on every carry and compaction, positional
// ids are unstable; answers are therefore the records themselves,
// reported in canonical Record order so that any sharding of the same
// multiset of records yields byte-identical answers. Every bucket keeps
// its items in that order, so a query merges the buckets' sorted runs
// of hits, a carry merges the carried buckets, and a delete
// binary-searches each bucket. A carry gives a bucket the items it
// would hold unsorted, so the order does not change the blocks a query
// reads; a compaction cuts the sorted live items into buckets.

// logSet is the logarithmic method over one static adapter. Bucket i,
// when full, holds 2^i items, sorted by cmp, in one static Index built
// over them. An insertion merges the new item with all full buckets
// below the first empty one and builds a single static index there, so
// each item is rebuilt O(log N) times. A deletion marks a tombstone;
// when half the stored items are dead the whole set is rebuilt. A query
// runs on every bucket, maps the reported positions back to the
// bucket's items and skips tombstones, multiplying the static query
// bound by O(log N).
type logSet[T any] struct {
	dev     *eio.Device
	build   func(dev *eio.Device, items []T) Index
	cmp     func(a, b T) int // Record.Compare on items
	buckets []*bucket[T]
	live    int
	dead    int
	// ans and run are the reused per-bucket answer and hit scratch.
	// Safe as plain fields: a logSet is single-owner, callers serialize
	// all access.
	ans Answer
	run []Record
}

type bucket[T any] struct {
	items []T
	dead  []bool
	live  int
	idx   Index
}

// insert adds an item, merging carry-style into the first empty bucket.
func (s *logSet[T]) insert(item T) {
	i := 0
	for i < len(s.buckets) && s.buckets[i] != nil {
		i++
	}
	if i == len(s.buckets) {
		s.buckets = append(s.buckets, nil)
	}
	s.buckets[i] = s.newBucket(s.takeLive(i, item))
	s.live++
}

// takeLive empties buckets [0, n) and returns their live items and
// extra, sorted, in one slice of exactly their length. Each bucket is
// merged in from the back, smallest first.
func (s *logSet[T]) takeLive(n int, extra ...T) []T {
	clear(s.run[:cap(s.run)]) // the hit scratch must not pin retired buckets' items
	size := len(extra)
	for _, b := range s.buckets[:n] {
		if b != nil {
			size += b.live
		}
	}
	out := append(make([]T, 0, size), extra...)
	for i, b := range s.buckets[:n] {
		if b == nil {
			continue
		}
		k, w := len(out)-1, len(out)+b.live-1
		out = out[:w+1]
		for j := len(b.items) - 1; j >= 0; j-- {
			if b.dead[j] {
				continue
			}
			for ; k >= 0 && s.cmp(out[k], b.items[j]) > 0; k-- {
				out[w] = out[k]
				w--
			}
			out[w] = b.items[j]
			w--
		}
		s.dead -= len(b.items) - b.live
		s.buckets[i] = nil
	}
	return out
}

// newBucket builds a bucket over items, which it keeps.
func (s *logSet[T]) newBucket(items []T) *bucket[T] {
	return &bucket[T]{items: items, dead: make([]bool, len(items)), live: len(items), idx: s.build(s.dev, items)}
}

// delete tombstones the first live item equal to item, found by binary
// search in each bucket, reporting whether there was one. When half the
// stored items are dead the whole set is rebuilt.
func (s *logSet[T]) delete(item T) bool {
	for _, b := range s.buckets {
		if b == nil {
			continue
		}
		j, _ := slices.BinarySearchFunc(b.items, item, s.cmp)
		for ; j < len(b.items) && s.cmp(b.items[j], item) == 0; j++ {
			if !b.dead[j] {
				b.dead[j] = true
				b.live--
				s.dead++
				s.live--
				if s.dead*2 >= s.live+s.dead {
					s.compact()
				}
				return true
			}
		}
	}
	return false
}

// compact rebuilds the set from its live items, cut in sorted order
// into power-of-two chunks placed directly in their buckets.
func (s *logSet[T]) compact() {
	all := s.takeLive(len(s.buckets))
	s.buckets = s.buckets[:0]
	for len(all) > 0 {
		i := 0
		for (1 << (i + 1)) <= len(all) {
			i++
		}
		size := 1 << i
		for i >= len(s.buckets) {
			s.buckets = append(s.buckets, nil)
		}
		s.buckets[i] = s.newBucket(slices.Clone(all[:size]))
		all = all[size:]
	}
}

// appendLive appends every live item to dst and returns it, bucket by
// bucket (smallest first): an arbitrary but deterministic order. The
// engine's rebalancer snapshots shard contents through this.
func (s *logSet[T]) appendLive(dst []T) []T {
	for _, b := range s.buckets {
		for j := 0; b != nil && j < len(b.items); j++ {
			if !b.dead[j] {
				dst = append(dst, b.items[j])
			}
		}
	}
	return dst
}

// appendMatches runs q on every bucket's static index and appends the
// live items at the reported positions to dst as records, in canonical
// order. Positions come ascending, so each bucket's hits are a sorted
// run. The run is gathered first, a loop of independent loads that
// overlap where the bucket's items are scattered, and then merged from
// the back into the records before it, smallest bucket first: the
// largest bucket's run, most of the answer, costs one comparison per
// record and moves nothing. With a pre-grown dst the path is
// allocation-free. All buckets share one family and dimension, so an
// operand one rejects fails on the first bucket, before any record is
// appended.
func (s *logSet[T]) appendMatches(q Query, dst []Record) ([]Record, error) {
	base := len(dst)
	for _, b := range s.buckets {
		if b == nil {
			continue
		}
		s.ans.IDs = s.ans.IDs[:0]
		if err := b.idx.QueryInto(q, &s.ans); err != nil {
			return dst, err
		}
		run := s.run[:0]
		switch items := any(&b.items).(type) { // the two item types; a tight loop each keeps many loads in flight
		case *[]geom.PointD:
			for _, pos := range s.ans.IDs {
				if !b.dead[pos] {
					run = append(run, Record{PD: (*items)[pos]})
				}
			}
		case *[]geom.Point2:
			for _, pos := range s.ans.IDs {
				if !b.dead[pos] {
					run = append(run, Record{P2: (*items)[pos]})
				}
			}
		}
		s.run = run
		k, w := len(dst)-1, len(dst)+len(run)-1
		dst = slices.Grow(dst, len(run))[:len(dst)+len(run)] // every new slot is written below
		for j := len(run) - 1; j >= 0; j-- {
			r := run[j]
			for ; k >= base && dst[k].Compare(r) > 0; k-- {
				dst[w] = dst[k]
				w--
			}
			dst[w] = r
			w--
		}
	}
	return dst, nil
}

// DynamicPlanar is the logarithmic method over the §3 planar adapter
// (the engineering answer to §7 open problem 1: queries in
// O(log N · (log_B n + t)) I/Os, not the O(log_B n + t) the problem
// asks for).
type DynamicPlanar struct {
	set *logSet[geom.Point2]
	// enumBuf is AppendRecords' reused point scratch. Safe as a plain
	// field: indexes are single-owner, callers serialize all access.
	enumBuf []geom.Point2
}

// NewDynamicPlanar returns an empty mutable planar index on dev. Every
// bucket is a Planar built with seed.
func NewDynamicPlanar(dev *eio.Device, seed int64) *DynamicPlanar {
	build := func(d *eio.Device, pts []geom.Point2) Index { return NewPlanar(d, pts, seed) }
	return &DynamicPlanar{set: &logSet[geom.Point2]{dev: dev, build: build, cmp: compareP2}}
}

func (d *DynamicPlanar) check(r Record) error {
	if r.PD != nil {
		return fmt.Errorf("index: dynamic planar index takes P2 records, got a %d-dimensional PD", len(r.PD))
	}
	return checkFinite("dynamic planar", r.P2.X, r.P2.Y)
}

// Insert adds r.P2.
func (d *DynamicPlanar) Insert(r Record) error {
	if err := d.check(r); err != nil {
		return err
	}
	d.set.insert(r.P2)
	return nil
}

// Delete removes one copy of r.P2, reporting whether one was present.
func (d *DynamicPlanar) Delete(r Record) (bool, error) {
	if err := d.check(r); err != nil {
		return false, err
	}
	return d.set.delete(r.P2), nil
}

// Halfplane returns the live points with y <= a·x + b in canonical
// (X, Y) order; an operand QueryInto rejects reports nothing.
func (d *DynamicPlanar) Halfplane(a, b float64) []geom.Point2 {
	ans, _ := d.Query(Query{Op: OpHalfplane, A: a, B: b})
	pts := make([]geom.Point2, len(ans.Recs))
	for i, r := range ans.Recs {
		pts[i] = r.P2
	}
	return pts
}

// AppendRecords appends every live record to dst (the Enumerable
// capability the engine's rebalancer migrates through), reusing the
// adapter's point scratch so repeated enumerations of a warm shard
// allocate only for dst's own growth.
func (d *DynamicPlanar) AppendRecords(dst []Record) []Record {
	d.enumBuf = d.set.appendLive(d.enumBuf[:0])
	for _, p := range d.enumBuf {
		dst = append(dst, Record{P2: p})
	}
	return dst
}

// Len returns the number of live points.
func (d *DynamicPlanar) Len() int { return d.set.live }

// Stats snapshots the device counters, including rebuild work.
func (d *DynamicPlanar) Stats() Stats { return devStats(d.set.dev) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPlanar) ResetStats() { d.set.dev.ResetCounters() }

// Supports reports the ops the dynamic planar family serves.
func (d *DynamicPlanar) Supports(op Op) bool { return op == OpHalfplane }

// Query dispatches the ops the dynamic planar family serves.
func (d *DynamicPlanar) Query(q Query) (Answer, error) { return intoAnswer(d, q) }

// QueryInto dispatches q appending into ans. The whole path — the
// per-bucket reports and the merge of their sorted runs — reuses
// adapter scratch and ans's capacity, so a warm index answers with zero
// heap allocations.
func (d *DynamicPlanar) QueryInto(q Query, ans *Answer) error {
	if !d.Supports(q.Op) {
		return unsupported("dynamic planar", q.Op)
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	var err error
	ans.Recs, err = d.set.appendMatches(q, ans.Recs)
	return err
}

// DynamicPartition is the logarithmic method over the §5 partition
// tree adapter (§5 Remark iii).
type DynamicPartition struct {
	set *logSet[geom.PointD]
	dim int // dimension pinned by the first insert (0 = none yet)
	// enumBuf is AppendRecords' reused point scratch (single-owner,
	// like the index itself).
	enumBuf []geom.PointD
}

// NewDynamicPartition returns an empty mutable d-dimensional index on
// dev. Every bucket is a Partition.
func NewDynamicPartition(dev *eio.Device) *DynamicPartition {
	// A bucket's items share its tree's leaf coordinates (SharePoints),
	// so the merge of a query's hits reads what the leaf scan just read.
	build := func(d *eio.Device, pts []geom.PointD) Index {
		return &Partition{dev: d, tr: partition.New(d, pts, partition.Options{SharePoints: true})}
	}
	return &DynamicPartition{set: &logSet[geom.PointD]{dev: dev, build: build, cmp: comparePD}}
}

func (d *DynamicPartition) check(r Record) error {
	if len(r.PD) == 0 {
		return fmt.Errorf("index: dynamic partition index takes non-empty PD records")
	}
	return checkFinite("dynamic partition", r.PD...)
}

// Insert adds r.PD. The first insert pins the dimension; later records
// must match it (the underlying tree cannot mix dimensions).
func (d *DynamicPartition) Insert(r Record) error {
	if err := d.check(r); err != nil {
		return err
	}
	if d.dim == 0 {
		d.dim = len(r.PD)
	} else if len(r.PD) != d.dim {
		return fmt.Errorf("index: dynamic partition index is %d-dimensional, got a %d-dimensional record", d.dim, len(r.PD))
	}
	d.set.insert(r.PD)
	return nil
}

// Delete removes one point equal to r.PD, reporting whether one was
// present. A record of another dimension cannot be present and misses.
func (d *DynamicPartition) Delete(r Record) (bool, error) {
	if err := d.check(r); err != nil {
		return false, err
	}
	if d.dim != 0 && len(r.PD) != d.dim {
		return false, nil
	}
	return d.set.delete(r.PD), nil
}

// Halfspace returns the live points with x_d <= coef·(x,1) in
// lexicographic order; an operand QueryInto rejects (another dimension,
// a NaN or infinite coefficient) reports nothing.
func (d *DynamicPartition) Halfspace(coef []float64) []geom.PointD {
	return d.points(Query{Op: OpHalfspaceD, Coef: coef})
}

// Conjunction returns the live points satisfying every constraint (a
// simplex or general convex-polytope query) in lexicographic order,
// matching the static adapter's op coverage; an operand QueryInto
// rejects reports nothing.
func (d *DynamicPartition) Conjunction(cs []Constraint) []geom.PointD {
	return d.points(Query{Op: OpConjunction, Constraints: cs})
}

// points answers q as a fresh slice of points in canonical order.
func (d *DynamicPartition) points(q Query) []geom.PointD {
	ans, _ := d.Query(q)
	pts := make([]geom.PointD, len(ans.Recs))
	for i, r := range ans.Recs {
		pts[i] = r.PD
	}
	return pts
}

// AppendRecords appends every live record to dst (the Enumerable
// capability the engine's rebalancer migrates through), reusing the
// adapter's point scratch so repeated enumerations of a warm shard
// allocate only for dst's own growth.
func (d *DynamicPartition) AppendRecords(dst []Record) []Record {
	d.enumBuf = d.set.appendLive(d.enumBuf[:0])
	for _, p := range d.enumBuf {
		dst = append(dst, Record{PD: p})
	}
	return dst
}

// Len returns the number of live points.
func (d *DynamicPartition) Len() int { return d.set.live }

// Stats snapshots the device counters, including rebuild work.
func (d *DynamicPartition) Stats() Stats { return devStats(d.set.dev) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPartition) ResetStats() { d.set.dev.ResetCounters() }

// Supports reports the ops the dynamic partition family serves.
func (d *DynamicPartition) Supports(op Op) bool {
	return op == OpHalfspaceD || op == OpConjunction
}

// Query dispatches the ops the dynamic partition family serves.
func (d *DynamicPartition) Query(q Query) (Answer, error) { return intoAnswer(d, q) }

// QueryInto dispatches q appending into ans. The whole path — the
// per-bucket reports and the merge of their sorted runs — reuses
// adapter scratch and ans's capacity, so a warm index answers with zero
// heap allocations. Once the first insert has pinned the
// dimension, an operand of another dimension is rejected; before that
// the index is empty and answers so.
func (d *DynamicPartition) QueryInto(q Query, ans *Answer) error {
	if err := checkDim("dynamic partition", d.dim, q); err != nil {
		return err
	}
	if !d.Supports(q.Op) {
		return unsupported("dynamic partition", q.Op)
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	var err error
	ans.Recs, err = d.set.appendMatches(q, ans.Recs)
	return err
}

var (
	_ Mutable    = (*DynamicPlanar)(nil)
	_ Mutable    = (*DynamicPartition)(nil)
	_ Enumerable = (*DynamicPlanar)(nil)
	_ Enumerable = (*DynamicPartition)(nil)
)
