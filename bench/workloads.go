package main

// The four workloads: what each generates from the seed, what it builds
// during set-up, and the ops its callers issue. bench/README.md says why
// each exists and which layer it loads.

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"linconstraint/internal/engine"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
)

// scale sizes a run. fullScale is what BENCHMARK.json measures; the
// smoke test shrinks every field.
type scale struct {
	planarN, batchIoN, dynN    int // records built or preloaded
	pool, batchIoPool, dynPool int // distinct read operands
	insertPool                 int // pregenerated records for dyn_mixed inserts
	recheckEvery               int // dyn_mixed reads between shadow-set checks
	probeN, probeQ             int // layer probes: records per index, queries per probe
	setups                     int // consecutive set-ups timed by an untraced run
	sampleCap, spanCap         int
}

var fullScale = scale{
	planarN: 100_000, batchIoN: 50_000, dynN: 200_000,
	pool: 2048, batchIoPool: 512, dynPool: 256,
	insertPool: 1 << 17, recheckEvery: 1000,
	probeN: 8000, probeQ: 1000,
	setups:    3,
	sampleCap: 1 << 21, spanCap: 1 << 18,
}

const (
	shards    = 8
	blockSize = 128
	// ioLatency is planar_batch_io's simulated miss latency. Any shorter
	// sleep costs about as much on a Linux runner (eio.sleep_actual_us
	// reports what this one charges), so shorter settings measure nothing
	// different.
	ioLatency = time.Millisecond
	// engineSeed is Options.Seed, the indexes' own sampling seed, and
	// dataSeed generates the records a workload builds or preloads. Both are
	// the workload's definition, like n and the layout; -seed draws what is
	// asked of it — operands, op stream, inserted records. Across ten
	// values of -seed planar_direct read 54 to 63 I/Os per query when all
	// three varied (the luck of the §3 structure's random levels), 59 to 62
	// with engineSeed fixed, and within 1% with the records fixed too.
	engineSeed = 1
	dataSeed   = 20260928
)

type spec struct {
	name, why string
	batch     int  // queries per BatchInto run
	serve     bool // callers reach the engine through server + loopback HTTP
	gen       func(rng *rand.Rand, sc scale) *inputs
	build     func(in *inputs, reg *metrics.Registry) (*engine.Engine, error)
}

// inputs is the workload's records and everything drawn from -seed.
type inputs struct {
	points pointSet      // static build set, or the mutable preload
	pool   []index.Query // distinct read operands
	counts []int         // oracle answer sizes per operand, filled by verification

	inserts pointSet // dyn_mixed: records its inserts add, in order
}

var specs = []spec{
	{
		name:  "planar_direct",
		why:   "static planar engine, KD tiles, no cache or latency, one caller of single-query runs: index+merge CPU only, server idle",
		batch: 1,
		gen:   func(rng *rand.Rand, sc scale) *inputs { return planarInputs(rng, sc.planarN, sc.pool) },
		build: buildPlanarKD,
	},
	{
		name:  "planar_serve",
		why:   "the same engine and operands behind server defaults on loopback HTTP, 2 closed-loop clients: the difference is the server layer",
		batch: 1,
		serve: true,
		gen:   func(rng *rand.Rand, sc scale) *inputs { return planarInputs(rng, sc.planarN, sc.pool) },
		build: buildPlanarKD,
	},
	{
		name:  "planar_batch_io",
		why:   "round-robin shards, 8-block caches, 1ms misses, 16-query runs: wall time is device stall overlapped across shard workers",
		batch: 16,
		gen:   func(rng *rand.Rand, sc scale) *inputs { return planarInputs(rng, sc.batchIoN, sc.batchIoPool) },
		build: func(in *inputs, reg *metrics.Registry) (*engine.Engine, error) {
			return engine.NewPlanar(in.points.point2s(), engine.Options{
				Shards: shards, Workers: shards, BlockSize: blockSize, CacheBlocks: 8,
				Seed: engineSeed, IOLatency: ioLatency, Metrics: reg,
			}), nil
		},
	},
	{
		name:  "dyn_mixed",
		why:   "mutable 3-d partition engine, 40% halfspace 40% conjunction 10% insert 10% delete: writes beside reads on the same layers",
		batch: 1,
		gen: func(rng *rand.Rand, sc scale) *inputs {
			in := &inputs{points: dataset(sc.dynN, 3), inserts: uniform(rng, sc.insertPool, 3)}
			in.pool = append(halfspacePool(rng, in.points, sc.dynPool, 0.005, false),
				slabPool(rng, in.points, sc.dynPool, 0.005)...)
			return in
		},
		build: func(in *inputs, reg *metrics.Registry) (*engine.Engine, error) {
			pts := in.points.pointDs()
			e := engine.NewDynamicPartition(engine.Options{
				Shards: shards, BlockSize: blockSize, Seed: engineSeed, Metrics: reg,
				Partitioner: partition.NewKDCut(), PretrainSample: pts[:min(2000, len(pts))],
			})
			for _, p := range pts {
				if err := e.Insert(index.Record{PD: p}); err != nil {
					e.Close()
					return nil, fmt.Errorf("preload: %w", err)
				}
			}
			return e, nil
		},
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func dataset(n, d int) pointSet { return uniform(rand.New(rand.NewSource(dataSeed)), n, d) }

func planarInputs(rng *rand.Rand, n, pool int) *inputs {
	in := &inputs{points: dataset(n, 2)}
	in.pool = halfplanePool(rng, in.points, pool, 0.01)
	return in
}

func buildPlanarKD(in *inputs, reg *metrics.Registry) (*engine.Engine, error) {
	return engine.NewPlanar(in.points.point2s(), engine.Options{
		Shards: shards, BlockSize: blockSize, Seed: engineSeed, Metrics: reg,
		Partitioner: partition.NewKDCut(),
	}), nil
}

type opKind int

const (
	opRead opKind = iota
	opInsert
	opDelete
	nKinds
)

// source hands a direct caller its ops. next fills qs with the next run;
// check judges the answers to it and returns how many were wrong.
type source interface {
	passLen() int
	next(qs []index.Query) opKind
	check(res []engine.Result) int
	// verify answers every distinct operand through run and compares it
	// with the oracle, returning (attempted, failed).
	verify(qs []index.Query, run func() []engine.Result) (int, int)
}

// poolSource cycles a static operand pool in order.
type poolSource struct {
	in    *inputs
	batch int
	at    int
}

func (s *poolSource) passLen() int { return len(s.in.pool) / s.batch }

func (s *poolSource) next(qs []index.Query) opKind {
	if s.at+len(qs) > len(s.in.pool) {
		s.at = 0
	}
	copy(qs, s.in.pool[s.at:])
	s.at += len(qs)
	return opRead
}

func (s *poolSource) check(res []engine.Result) int {
	failed := 0
	for i := range res {
		if res[i].Err != nil || res[i].Degraded || len(res[i].IDs) != s.in.counts[s.at-len(res)+i] {
			failed++
		}
	}
	return failed
}

func (s *poolSource) verify(qs []index.Query, run func() []engine.Result) (int, int) {
	in := s.in
	in.counts = make([]int, len(in.pool))
	failed := 0
	for s.at = 0; s.at+len(qs) <= len(in.pool); {
		s.next(qs)
		res := run()
		for i := range res {
			want := in.points.scanIDs(constraintsOf(qs[i]))
			in.counts[s.at-len(qs)+i] = len(want)
			if res[i].Err != nil || res[i].Degraded || !slices.Equal(res[i].IDs, want) {
				failed++
			}
		}
	}
	return s.at, failed
}

// mixSource draws dyn_mixed's op stream from its own seeded generator
// and keeps the shadow live set the oracle scans. The stream depends on
// the op index only, so it is the same at any speed.
type mixSource struct {
	in      *inputs
	every   int // reads between shadow-set checks
	rng     *rand.Rand
	live    []geom.PointD
	nextIns int
	reads   int
	kind    opKind
	cur     index.Query
	victim  int
}

// mixPass is how many ops dyn_mixed issues between looks at the deadline.
const mixPass = 500

func newMixSource(in *inputs, seed int64, every int) *mixSource {
	// Room for every pregenerated insert, so the timed phase never grows it.
	live := append(make([]geom.PointD, 0, in.points.n()+in.inserts.n()), in.points.pointDs()...)
	return &mixSource{in: in, every: every, rng: rand.New(rand.NewSource(seed ^ 0x6d6978)), live: live}
}

func (s *mixSource) passLen() int { return mixPass }

func (s *mixSource) next(qs []index.Query) opKind {
	half := len(s.in.pool) / 2
	switch r := s.rng.Intn(10); {
	case r < 4:
		s.kind, s.cur = opRead, s.in.pool[s.rng.Intn(half)]
	case r < 8:
		s.kind, s.cur = opRead, s.in.pool[half+s.rng.Intn(half)]
	case r == 8:
		// Wrapping would re-insert a record that may still be live; the
		// shadow is a multiset, so answers stay checkable. It takes over
		// a million ops in one run to get there.
		p := s.in.inserts.row(s.nextIns % s.in.inserts.n())
		s.nextIns++
		s.kind, s.cur = opInsert, index.Query{Op: index.OpInsert, Rec: index.Record{PD: p}}
	default:
		s.victim = s.rng.Intn(len(s.live))
		s.kind, s.cur = opDelete, index.Query{Op: index.OpDelete, Rec: index.Record{PD: s.live[s.victim]}}
	}
	qs[0] = s.cur
	return s.kind
}

func (s *mixSource) check(res []engine.Result) int {
	r := &res[0]
	if r.Err != nil || r.Degraded {
		return 1
	}
	switch s.kind {
	case opInsert:
		s.live = append(s.live, s.cur.Rec.PD)
	case opDelete:
		if !r.Deleted {
			return 1
		}
		last := len(s.live) - 1
		s.live[s.victim] = s.live[last]
		s.live = s.live[:last]
	default:
		s.reads++
		if s.reads%s.every == 0 && !sameRecs(r.Recs, scanRecs(s.live, constraintsOf(s.cur))) {
			return 1
		}
	}
	return 0
}

func (s *mixSource) verify(qs []index.Query, run func() []engine.Result) (int, int) {
	failed := 0
	for _, q := range s.in.pool {
		qs[0] = q
		res := run()
		if res[0].Err != nil || !sameRecs(res[0].Recs, scanRecs(s.live, constraintsOf(q))) {
			failed++
		}
	}
	return len(s.in.pool), failed
}
