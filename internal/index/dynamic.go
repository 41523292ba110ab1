package index

import (
	"cmp"
	"fmt"
	"slices"

	"linconstraint/internal/dynamic"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
)

// The dynamic adapters wrap the logarithmic-method structures
// (internal/dynamic) and implement Mutable. Because the logarithmic
// method moves items between buckets on every carry and compaction,
// positional ids are unstable; answers are therefore the records
// themselves, reported in canonical Record order so that any sharding
// of the same multiset of records yields byte-identical answers.

// DynamicPlanar adapts the dynamized §3 planar structure (the
// engineering answer to §7 open problem 1).
type DynamicPlanar struct {
	dev *eio.Device
	idx *dynamic.Halfplane2D
	// enumBuf is AppendRecords' reused point scratch; ptsBuf is
	// QueryInto's. Safe as plain fields: indexes are single-owner,
	// callers serialize all access.
	enumBuf []geom.Point2
	ptsBuf  []geom.Point2
}

// NewDynamicPlanar returns an empty mutable planar index on dev.
func NewDynamicPlanar(dev *eio.Device, seed int64) *DynamicPlanar {
	return &DynamicPlanar{dev: dev, idx: dynamic.NewHalfplane2D(dev, seed)}
}

func (d *DynamicPlanar) check(r Record) error {
	if r.PD != nil {
		return fmt.Errorf("index: dynamic planar index takes P2 records, got a %d-dimensional PD", len(r.PD))
	}
	return nil
}

// Insert adds r.P2.
func (d *DynamicPlanar) Insert(r Record) error {
	if err := d.check(r); err != nil {
		return err
	}
	d.idx.Insert(r.P2)
	return nil
}

// Delete removes one copy of r.P2, reporting whether one was present.
func (d *DynamicPlanar) Delete(r Record) (bool, error) {
	if err := d.check(r); err != nil {
		return false, err
	}
	return d.idx.Delete(r.P2), nil
}

// Halfplane returns the live points with y <= a·x + b in canonical
// (X, Y) order.
func (d *DynamicPlanar) Halfplane(a, b float64) []geom.Point2 {
	return sortP2(d.idx.Report(a, b))
}

// sortP2 orders points canonically ((X, Y), the Record order).
func sortP2(pts []geom.Point2) []geom.Point2 {
	slices.SortFunc(pts, func(p, q geom.Point2) int {
		switch {
		case Record{P2: p}.Less(Record{P2: q}):
			return -1
		case Record{P2: q}.Less(Record{P2: p}):
			return 1
		}
		return 0
	})
	return pts
}

// AppendRecords appends every live record to dst (the Enumerable
// capability the engine's rebalancer migrates through), reusing the
// adapter's point scratch so repeated enumerations of a warm shard
// allocate only for dst's own growth.
func (d *DynamicPlanar) AppendRecords(dst []Record) []Record {
	d.enumBuf = d.idx.AppendLive(d.enumBuf[:0])
	for _, p := range d.enumBuf {
		dst = append(dst, Record{P2: p})
	}
	return dst
}

// Len returns the number of live points.
func (d *DynamicPlanar) Len() int { return d.idx.Len() }

// Stats snapshots the device counters, including rebuild work.
func (d *DynamicPlanar) Stats() Stats { return devStats(d.dev) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPlanar) ResetStats() { d.dev.ResetCounters() }

// Supports reports the ops the dynamic planar family serves.
func (d *DynamicPlanar) Supports(op Op) bool { return op == OpHalfplane }

// Query dispatches the ops the dynamic planar family serves.
func (d *DynamicPlanar) Query(q Query) (Answer, error) { return intoAnswer(d, q) }

// QueryInto dispatches q appending into ans. The whole path — the
// logarithmic-method report, the canonical sort, and the record
// conversion — reuses adapter scratch and ans's capacity, so a warm
// index answers with zero heap allocations.
func (d *DynamicPlanar) QueryInto(q Query, ans *Answer) error {
	if !d.Supports(q.Op) {
		return unsupported("dynamic planar", q.Op)
	}
	d.ptsBuf = sortP2(d.idx.ReportAppend(q.A, q.B, d.ptsBuf[:0]))
	for _, p := range d.ptsBuf {
		ans.Recs = append(ans.Recs, Record{P2: p})
	}
	return nil
}

// DynamicPartition adapts the dynamized §5 partition tree (§5 Remark
// iii).
type DynamicPartition struct {
	dev *eio.Device
	idx *dynamic.PartitionD
	dim int // dimension pinned by the first insert (0 = none yet)
	// enumBuf is AppendRecords' reused point scratch, ptsBuf is
	// QueryInto's, and sq is QueryInto's reused simplex holder for
	// conjunction queries (single-owner, like the index itself).
	enumBuf []geom.PointD
	ptsBuf  []geom.PointD
	sq      geom.Simplex
}

// NewDynamicPartition returns an empty mutable d-dimensional index on
// dev.
func NewDynamicPartition(dev *eio.Device) *DynamicPartition {
	return &DynamicPartition{dev: dev, idx: dynamic.NewPartitionD(dev)}
}

func (d *DynamicPartition) check(r Record) error {
	if len(r.PD) == 0 {
		return fmt.Errorf("index: dynamic partition index takes non-empty PD records")
	}
	return nil
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
	d.idx.Insert(r.PD)
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
	return d.idx.Delete(r.PD), nil
}

// Halfspace returns the live points with x_d <= coef·(x,1) in
// lexicographic order.
func (d *DynamicPartition) Halfspace(coef []float64) []geom.PointD {
	return sortPD(d.idx.Report(geom.HyperplaneD{Coef: coef}))
}

// Conjunction returns the live points satisfying every constraint (a
// simplex or general convex-polytope query) in lexicographic order,
// matching the static adapter's op coverage.
func (d *DynamicPartition) Conjunction(cs []Constraint) []geom.PointD {
	return sortPD(d.idx.ReportSimplex(simplex(cs)))
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
	d.enumBuf = d.idx.AppendLive(d.enumBuf[:0])
	for _, p := range d.enumBuf {
		dst = append(dst, Record{PD: p})
	}
	return dst
}

// Len returns the number of live points.
func (d *DynamicPartition) Len() int { return d.idx.Len() }

// Stats snapshots the device counters, including rebuild work.
func (d *DynamicPartition) Stats() Stats { return devStats(d.dev) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPartition) ResetStats() { d.dev.ResetCounters() }

// Supports reports the ops the dynamic partition family serves.
func (d *DynamicPartition) Supports(op Op) bool {
	return op == OpHalfspaceD || op == OpConjunction
}

// Query dispatches the ops the dynamic partition family serves.
func (d *DynamicPartition) Query(q Query) (Answer, error) { return intoAnswer(d, q) }

// QueryInto dispatches q appending into ans. The whole path — the
// logarithmic-method report, the canonical sort, and the record
// conversion — reuses adapter scratch and ans's capacity, so a warm
// index answers with zero heap allocations. Once the first insert has
// pinned the dimension, an operand of another dimension is rejected;
// before that the index is empty and answers so.
func (d *DynamicPartition) QueryInto(q Query, ans *Answer) error {
	if err := checkDim("dynamic partition", d.dim, q); err != nil {
		return err
	}
	switch q.Op {
	case OpHalfspaceD:
		d.ptsBuf = d.idx.ReportAppend(geom.HyperplaneD{Coef: q.Coef}, d.ptsBuf[:0])
	case OpConjunction:
		d.sq.Planes = d.sq.Planes[:0]
		d.sq.Below = d.sq.Below[:0]
		for _, c := range q.Constraints {
			d.sq.Planes = append(d.sq.Planes, geom.HyperplaneD{Coef: c.Coef})
			d.sq.Below = append(d.sq.Below, c.Below)
		}
		d.ptsBuf = d.idx.ReportSimplexAppend(d.sq, d.ptsBuf[:0])
	default:
		return unsupported("dynamic partition", q.Op)
	}
	sortPD(d.ptsBuf)
	for _, p := range d.ptsBuf {
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
