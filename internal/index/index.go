// Package index is the uniform interface layer between the paper's
// index families and everything above them (the sharded engine, the
// public facade). Each family — planar §3, 3D §4, k-NN Theorem 4.3,
// partition tree §5/§6, and the logarithmic method over §3 and §5 —
// is wrapped by a thin adapter that owns its eio.Device and implements
// Index: a single Query dispatch entry point plus Stats/Len. Mutable
// extends Index with Insert/Delete for the dynamized families.
//
// The layer exists so that capability is discovered by probing (does
// this index answer this Op? does it implement Mutable?) instead of by
// a central enum: adding a family means adding one adapter here, not
// editing a switch in every caller. Unsupported ops surface as errors
// wrapping ErrUnsupported.
package index

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
)

// Op identifies one operation of the unified query/update surface.
type Op int

const (
	// OpHalfplane reports points with y <= A·x + B (planar families).
	OpHalfplane Op = iota
	// OpHalfspace3 reports points with z <= A·x + B·y + C (3D family).
	OpHalfspace3
	// OpHalfspaceD reports points with x_d <= Coef·(x,1) (partition families).
	OpHalfspaceD
	// OpConjunction reports points satisfying every Constraint
	// (partition family; simplex / convex-polytope queries).
	OpConjunction
	// OpKNN reports the K nearest neighbors of Pt (k-NN family).
	OpKNN
	// OpInsert adds Rec (mutable families; routed by the engine).
	OpInsert
	// OpDelete removes one record equal to Rec (mutable families).
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpHalfplane:
		return "halfplane"
	case OpHalfspace3:
		return "halfspace3"
	case OpHalfspaceD:
		return "halfspaceD"
	case OpConjunction:
		return "conjunction"
	case OpKNN:
		return "knn"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Constraint is one linear constraint of a conjunction query:
// x_d <= (or >=, when Below is false) Coef[0]·x_1 + … + Coef[d-1].
type Constraint struct {
	Coef  []float64
	Below bool
}

// Record is one record of a mutable family: a planar point (P2) for
// the dynamic §3 structure, a d-dimensional point (PD, non-nil) for
// the dynamic partition tree. Which field is meaningful is fixed by
// the family; callers above treat Records opaquely. A reported PD
// shares memory with the index, so callers must not modify it.
type Record struct {
	P2 geom.Point2
	PD geom.PointD
}

// Compare orders records canonically as a three-way comparison:
// d-dimensional points lexicographically (a shorter prefix first),
// planar points by (X, Y), coordinates as cmp.Compare orders them. The
// mutable families keep their buckets and report answers in this order,
// so any sharding of the same multiset of records yields byte-identical
// answers.
func (r Record) Compare(s Record) int {
	if r.PD == nil && s.PD == nil {
		if c := compareCoord(r.P2.X, s.P2.X); c != 0 {
			return c
		}
		return compareCoord(r.P2.Y, s.P2.Y)
	}
	for i := range min(len(r.PD), len(s.PD)) {
		if c := compareCoord(r.PD[i], s.PD[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(r.PD), len(s.PD))
}

// compareCoord is cmp.Compare on two coordinates, with the ordered and
// equal cases decided before the NaN ones: a NaN sorts before every
// number and equals another NaN, and −0 equals +0.
func compareCoord(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y || x != x && y != y:
		return 0
	case x != x:
		return -1
	}
	return 1
}

// Less reports whether r sorts before s in the order of Compare.
func (r Record) Less(s Record) bool { return r.Compare(s) < 0 }

// comparePD and compareP2 are Compare on each family's points.
func comparePD(p, q geom.PointD) int { return Record{PD: p}.Compare(Record{PD: q}) }

func compareP2(p, q geom.Point2) int { return Record{P2: p}.Compare(Record{P2: q}) }

// Query is one operation: an Op plus the parameter fields that Op
// reads (the rest are ignored).
type Query struct {
	Op          Op
	A, B, C     float64      // OpHalfplane (A, B); OpHalfspace3 (A, B, C)
	Coef        []float64    // OpHalfspaceD
	Constraints []Constraint // OpConjunction
	K           int          // OpKNN
	Pt          geom.Point2  // OpKNN
	Rec         Record       // OpInsert / OpDelete
}

// Answer is one index's reply to a Query. Static reporting families
// fill IDs with sorted positions into the build slice; mutable
// families fill Recs with the matching records in canonical Record
// order; the k-NN family fills Neighbors, closest first.
type Answer struct {
	IDs       []int
	Recs      []Record
	Neighbors []chan3d.Neighbor
}

// Stats is an I/O snapshot of the device an index runs against.
type Stats struct {
	IO          eio.Stats
	SpaceBlocks int64
}

// ErrUnsupported is wrapped by Query errors for ops outside an index
// family's capability; probe with errors.Is.
var ErrUnsupported = errors.New("unsupported op")

func unsupported(family string, op Op) error {
	return fmt.Errorf("index: %s index: %w %v", family, ErrUnsupported, op)
}

// ErrNonFinite is wrapped by the error of a query operand (CheckOperands)
// or a mutable family's Insert/Delete record with an infinite or NaN
// coordinate: the exact predicates every family decides with are
// defined on finite values only.
var ErrNonFinite = errors.New("non-finite coordinate")

// CheckOperands returns an error wrapping ErrNonFinite when a
// coordinate q's op reads is infinite or NaN. It is the one operand
// check: every adapter's QueryInto, the engine's plan phase and its
// explain call it.
func CheckOperands(q *Query) error {
	finite := true
	switch q.Op {
	case OpHalfplane:
		finite = allFinite(q.A, q.B)
	case OpHalfspace3:
		finite = allFinite(q.A, q.B, q.C)
	case OpHalfspaceD:
		finite = allFinite(q.Coef...)
	case OpConjunction:
		for _, c := range q.Constraints {
			finite = finite && allFinite(c.Coef...)
		}
	case OpKNN:
		finite = allFinite(q.Pt.X, q.Pt.Y)
	}
	if finite {
		return nil
	}
	return fmt.Errorf("index: %v operand: %w", q.Op, ErrNonFinite)
}

func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

func checkFinite(family string, xs ...float64) error {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return fmt.Errorf("index: %s index: coordinate %v: %w", family, x, ErrNonFinite)
		}
	}
	return nil
}

// checkDim rejects a HalfspaceD or Conjunction operand whose coefficient
// count is not the dimension d of a partition family's points (d = 0: no
// dimension yet, nothing to check). The error wraps ErrUnsupported: the
// index cannot answer an operand of another dimension, and the geometry
// below it would index past the shorter of the two.
func checkDim(family string, d int, q Query) error {
	bad := -1
	switch q.Op {
	case OpHalfspaceD:
		if len(q.Coef) != d {
			bad = len(q.Coef)
		}
	case OpConjunction:
		for _, c := range q.Constraints {
			if len(c.Coef) != d {
				bad = len(c.Coef)
			}
		}
	}
	if d == 0 || bad < 0 {
		return nil
	}
	return fmt.Errorf("index: %s index is %d-dimensional, got %d coefficients: %w %v", family, d, bad, ErrUnsupported, q.Op)
}

// Index is the capability every family provides: answer the ops it
// serves through one dispatch point, and report its size and the I/O
// counters of the device it owns. Implementations are single-owner,
// like their devices: callers serialize access (the engine locks a
// shard before touching its index).
type Index interface {
	// Query answers q, or returns an error wrapping ErrUnsupported
	// when the family does not serve q.Op. The returned Answer owns
	// freshly allocated slices.
	Query(q Query) (Answer, error)
	// QueryInto answers q by appending into ans's slices, reusing their
	// capacity — the allocation-free variant the engine's arenas are
	// built on. The appended data is owned by the caller; the index
	// retains no reference to ans after returning. ans's existing
	// contents are preserved (the engine hands in length-0 slices).
	QueryInto(q Query, ans *Answer) error
	// Supports reports whether Query serves op. It is a pure
	// capability probe — constant per family, callable without
	// serialization.
	Supports(op Op) bool
	// Len is the number of live records.
	Len() int
	// Stats snapshots the underlying device's counters, including all
	// construction and rebuild (compaction) work charged so far.
	Stats() Stats
	// ResetStats zeroes the device counters and drops its cache.
	ResetStats()
}

// Mutable is the extra capability of the dynamized families: live
// inserts and deletes. Rebuild work triggered by either is charged to
// the same device Stats reports. Both methods validate that the
// record's populated variant (P2 vs PD, and the PD dimension) matches
// the family, so a wrong-family record fails loudly at the call site
// instead of corrupting the index or panicking in a later rebuild.
type Mutable interface {
	Index
	// Insert adds r, or rejects a record of the wrong shape.
	Insert(r Record) error
	// Delete removes one record equal to r, reporting whether one was
	// present, or rejects a record of the wrong shape.
	Delete(r Record) (bool, error)
}

// Enumerable is the optional capability the engine's rebalancer
// probes for: append every live record to dst and return it, in an
// arbitrary but deterministic order. Both mutable families implement
// it; callers serialize access as for every other Index method.
type Enumerable interface {
	AppendRecords(dst []Record) []Record
}

// Ordered is the optional capability of a family whose queries with
// close Locality keys read mostly the same blocks. The engine answers
// each sub-batch in ascending key (ties in arrival order) and never
// interprets the key, which must be a pure function of q.
type Ordered interface {
	Locality(q Query) float64
}

func devStats(dev *eio.Device) Stats {
	return Stats{IO: dev.Stats(), SpaceBlocks: dev.SpaceBlocks()}
}

// simplex returns s refilled with the constraints cs, reusing s's
// slices.
func simplex(s geom.Simplex, cs []Constraint) geom.Simplex {
	s.Planes, s.Below = s.Planes[:0], s.Below[:0]
	for _, c := range cs {
		s.Planes = append(s.Planes, geom.HyperplaneD{Coef: c.Coef})
		s.Below = append(s.Below, c.Below)
	}
	return s
}
