package index

import (
	"cmp"
	"fmt"
	"slices"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
)

// The dynamic adapters add insertions and deletions to the static
// adapters with the logarithmic method, the technique the paper points
// to for the partition tree (§5 Remark iii) and poses as an open
// problem for the planar structure (§7, problem 1). Because the method
// moves items between buckets on every carry and compaction, positional
// ids are unstable; answers are therefore the records themselves,
// reported in canonical Record order so that any sharding of the same
// multiset of records yields byte-identical answers.

// logSet is the logarithmic method over one static adapter. Bucket i,
// when full, holds 2^i items in one static Index built over them. An
// insertion merges the new item with all full buckets below the first
// empty one and builds a single static index there, so each item is
// rebuilt O(log N) times. A deletion marks a tombstone; when half the
// stored items are dead the whole set is rebuilt. A query runs on every
// bucket, maps the reported positions back to the bucket's items and
// skips tombstones, multiplying the static query bound by O(log N).
type logSet[T any] struct {
	dev     *eio.Device
	build   func(dev *eio.Device, items []T) Index
	eq      func(a, b T) bool
	buckets []*bucket[T]
	live    int
	dead    int
	// ans is the reused per-bucket answer scratch. Safe as a plain
	// field: a logSet is single-owner, callers serialize all access.
	ans Answer
}

type bucket[T any] struct {
	items []T
	dead  []bool
	idx   Index
}

// insert adds an item, merging carry-style into the first empty bucket.
func (s *logSet[T]) insert(item T) {
	carry := []T{item}
	for i := 0; ; i++ {
		if i == len(s.buckets) {
			s.buckets = append(s.buckets, nil)
		}
		b := s.buckets[i]
		if b == nil {
			s.buckets[i] = s.newBucket(carry)
			break
		}
		n := len(carry)
		carry = b.appendLive(carry)
		s.dead -= len(b.items) - (len(carry) - n)
		s.buckets[i] = nil
	}
	s.live++
}

func (s *logSet[T]) newBucket(items []T) *bucket[T] {
	cp := slices.Clone(items)
	return &bucket[T]{items: cp, dead: make([]bool, len(cp)), idx: s.build(s.dev, cp)}
}

// appendLive appends the bucket's live items to dst.
func (b *bucket[T]) appendLive(dst []T) []T {
	for j, it := range b.items {
		if !b.dead[j] {
			dst = append(dst, it)
		}
	}
	return dst
}

// delete removes the first live item equal to item, reporting whether
// one was found. When half the stored items are dead the whole set is
// rebuilt.
func (s *logSet[T]) delete(item T) bool {
	for _, b := range s.buckets {
		if b == nil {
			continue
		}
		for j, it := range b.items {
			if !b.dead[j] && s.eq(it, item) {
				b.dead[j] = true
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

// compact rebuilds the set from its live items, placing each
// power-of-two chunk directly in its bucket.
func (s *logSet[T]) compact() {
	all := s.appendLive(nil)
	s.buckets = nil
	s.dead = 0
	s.live = 0
	for len(all) > 0 {
		i := 0
		for (1 << (i + 1)) <= len(all) {
			i++
		}
		size := 1 << i
		for i >= len(s.buckets) {
			s.buckets = append(s.buckets, nil)
		}
		s.buckets[i] = s.newBucket(all[:size])
		s.live += size
		all = all[size:]
	}
}

// appendLive appends every live item to dst and returns it, in bucket
// order (largest first): an arbitrary but deterministic order. The
// engine's rebalancer snapshots shard contents through this.
func (s *logSet[T]) appendLive(dst []T) []T {
	for _, b := range s.buckets {
		if b != nil {
			dst = b.appendLive(dst)
		}
	}
	return dst
}

// appendMatches runs q on every bucket's static index and appends the
// live items at the reported positions to dst. With a pre-grown dst the
// whole report path is allocation-free: the per-bucket answer scratch
// is reused across calls. All buckets share one family and dimension,
// so an operand one rejects fails on the first bucket, before any item
// is appended.
func (s *logSet[T]) appendMatches(q Query, dst []T) ([]T, error) {
	for _, b := range s.buckets {
		if b == nil {
			continue
		}
		s.ans.IDs = s.ans.IDs[:0]
		if err := b.idx.QueryInto(q, &s.ans); err != nil {
			return dst, err
		}
		for _, pos := range s.ans.IDs {
			if !b.dead[pos] {
				dst = append(dst, b.items[pos])
			}
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
	// enumBuf is AppendRecords' reused point scratch; ptsBuf is
	// QueryInto's. Safe as plain fields: indexes are single-owner,
	// callers serialize all access.
	enumBuf []geom.Point2
	ptsBuf  []geom.Point2
}

// NewDynamicPlanar returns an empty mutable planar index on dev. Every
// bucket is a Planar built with seed.
func NewDynamicPlanar(dev *eio.Device, seed int64) *DynamicPlanar {
	build := func(d *eio.Device, pts []geom.Point2) Index { return NewPlanar(d, pts, seed) }
	eq := func(p, q geom.Point2) bool { return p == q }
	return &DynamicPlanar{set: &logSet[geom.Point2]{dev: dev, build: build, eq: eq}}
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
// (X, Y) order.
func (d *DynamicPlanar) Halfplane(a, b float64) []geom.Point2 {
	pts, _ := d.set.appendMatches(Query{Op: OpHalfplane, A: a, B: b}, nil) // a Planar serves every halfplane
	return sortP2(pts)
}

// sortP2 orders points canonically ((X, Y), the Record order; the two
// agree on the finite coordinates Insert admits).
func sortP2(pts []geom.Point2) []geom.Point2 {
	slices.SortFunc(pts, func(p, q geom.Point2) int {
		return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y))
	})
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
// per-bucket reports, the canonical sort, and the record conversion —
// reuses adapter scratch and ans's capacity, so a warm index answers
// with zero heap allocations.
func (d *DynamicPlanar) QueryInto(q Query, ans *Answer) error {
	if !d.Supports(q.Op) {
		return unsupported("dynamic planar", q.Op)
	}
	var err error
	if d.ptsBuf, err = d.set.appendMatches(q, d.ptsBuf[:0]); err != nil {
		return err
	}
	for _, p := range sortP2(d.ptsBuf) {
		ans.Recs = append(ans.Recs, Record{P2: p})
	}
	return nil
}

// DynamicPartition is the logarithmic method over the §5 partition
// tree adapter (§5 Remark iii).
type DynamicPartition struct {
	set *logSet[geom.PointD]
	dim int // dimension pinned by the first insert (0 = none yet)
	// enumBuf is AppendRecords' reused point scratch and ptsBuf is
	// QueryInto's (single-owner, like the index itself).
	enumBuf []geom.PointD
	ptsBuf  []geom.PointD
}

// NewDynamicPartition returns an empty mutable d-dimensional index on
// dev. Every bucket is a Partition.
func NewDynamicPartition(dev *eio.Device) *DynamicPartition {
	build := func(d *eio.Device, pts []geom.PointD) Index { return NewPartition(d, pts) }
	return &DynamicPartition{set: &logSet[geom.PointD]{dev: dev, build: build, eq: slices.Equal[geom.PointD]}}
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
// lexicographic order; an operand of another dimension reports nothing.
func (d *DynamicPartition) Halfspace(coef []float64) []geom.PointD {
	pts, _ := d.set.appendMatches(Query{Op: OpHalfspaceD, Coef: coef}, nil)
	return sortPD(pts)
}

// Conjunction returns the live points satisfying every constraint (a
// simplex or general convex-polytope query) in lexicographic order,
// matching the static adapter's op coverage; an operand of another
// dimension reports nothing.
func (d *DynamicPartition) Conjunction(cs []Constraint) []geom.PointD {
	pts, _ := d.set.appendMatches(Query{Op: OpConjunction, Constraints: cs}, nil)
	return sortPD(pts)
}

// sortPD orders points canonically (lexicographic, the Record order).
func sortPD(pts []geom.PointD) []geom.PointD {
	slices.SortFunc(pts, comparePD)
	return pts
}

// comparePD is Record.Less as a three-way comparison in one pass: the
// first differing coordinate decides, and a shorter prefix sorts first.
// A NaN there is neither less nor greater, so it makes the points equal,
// as Less does.
func comparePD(p, q geom.PointD) int {
	for i := range min(len(p), len(q)) {
		if p[i] != q[i] {
			switch {
			case p[i] < q[i]:
				return -1
			case p[i] > q[i]:
				return 1
			}
			return 0
		}
	}
	return cmp.Compare(len(p), len(q))
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
// per-bucket reports, the canonical sort, and the record conversion —
// reuses adapter scratch and ans's capacity, so a warm index answers
// with zero heap allocations. Once the first insert has pinned the
// dimension, an operand of another dimension is rejected; before that
// the index is empty and answers so.
func (d *DynamicPartition) QueryInto(q Query, ans *Answer) error {
	if err := checkDim("dynamic partition", d.dim, q); err != nil {
		return err
	}
	if !d.Supports(q.Op) {
		return unsupported("dynamic partition", q.Op)
	}
	var err error
	if d.ptsBuf, err = d.set.appendMatches(q, d.ptsBuf[:0]); err != nil {
		return err
	}
	for _, p := range sortPD(d.ptsBuf) {
		ans.Recs = append(ans.Recs, Record{PD: p})
	}
	return nil
}

var (
	_ Mutable    = (*DynamicPlanar)(nil)
	_ Mutable    = (*DynamicPartition)(nil)
	_ Enumerable = (*DynamicPlanar)(nil)
	_ Enumerable = (*DynamicPartition)(nil)
)
