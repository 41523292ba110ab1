// Package linconstraint is a Go implementation of the external-memory
// halfspace range reporting data structures of Agarwal, Arge, Erickson,
// Franciosa and Vitter, "Efficient Searching with Linear Constraints"
// (PODS 1998; JCSS 61, 194–216, 2000).
//
// Given a set of records interpreted as points in R^d, the indexes
// report every point satisfying a linear constraint
// x_d <= a_0 + a_1·x_1 + … + a_{d-1}·x_{d-1} — the "PricePerShare <
// 10 × EarningsPerShare" style of query from the paper's introduction —
// while provably bounding the number of disk-block transfers:
//
//   - PlanarIndex (d = 2): O(log_B n + t) I/Os worst case, O(n) blocks
//     (§3, Theorem 3.5 — the paper's headline result).
//   - Index3D (d = 3): O(log_B n + t) expected I/Os, O(n log n) blocks
//     (§4, Theorem 4.4), plus k-lowest-plane and k-nearest-neighbor
//     queries (Theorems 4.2 and 4.3).
//   - PartitionTree (any d): O(n^(1-1/d)+ε + t) I/Os with linear space,
//     also answering simplex and convex-polytope queries (§5, Theorem
//     5.2), with shallow and hybrid variants from §6.
//   - DynamicPlanarIndex / DynamicPartitionTree: the logarithmic-method
//     dynamizations (§5 Remark iii; the engineering answer to §7 open
//     problem 1) with live Insert/Delete.
//
// All six families implement the uniform internal/index interface
// (query dispatch + Stats/Len, plus Insert/Delete for the mutable
// ones); every structure runs against a simulated external-memory
// device (internal/eio) with exact I/O accounting, and Stats exposes
// the counters so applications and benchmarks can observe the paper's
// bounds directly. See DESIGN.md for the system inventory and its §4
// experiment index for the reproduction of every table row and figure.
//
// For serving concurrent traffic, Engine (internal/engine, DESIGN.md
// §5) shards records across many single-owner devices, builds the
// per-shard indexes in parallel, and answers batched queries through a
// worker pool while preserving exact result sets and aggregate I/O
// accounting. Engines over the dynamic families additionally accept
// live Insert/Delete (scalar or as OpInsert/OpDelete batch ops),
// routed through the shards under the same invariant: answers stay
// byte-identical to one unsharded dynamic index fed the same updates.
package linconstraint

import (
	"net/http"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/engine"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
	"linconstraint/internal/server"
)

// Point2 is a point in the plane.
type Point2 = geom.Point2

// Point3 is a point in space.
type Point3 = geom.Point3

// PointD is a point in R^d.
type PointD = geom.PointD

// Record is one record of a mutable index or engine: P2 for the
// planar family, PD for the partition family. Build one with Rec2 or
// RecD.
type Record = index.Record

// Rec2 wraps a planar point as a Record.
func Rec2(p Point2) Record { return Record{P2: p} }

// RecD wraps a d-dimensional point as a Record.
func RecD(p PointD) Record { return Record{PD: p} }

// Stats reports I/O counters of an index's simulated device.
type Stats struct {
	Reads, Writes, CacheHits int64
	SpaceBlocks              int64
}

// IOs returns total block transfers.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Config tunes the simulated external-memory device.
type Config struct {
	// BlockSize B is the number of records per disk block (default 128).
	BlockSize int
	// CacheBlocks is the LRU cache capacity M/B in blocks (default 0:
	// every touch is an I/O, making counts deterministic).
	CacheBlocks int
	// Seed drives the structures' randomization.
	Seed int64
}

func (c Config) device() *eio.Device {
	b := c.BlockSize
	if b <= 0 {
		b = 128
	}
	return eio.NewDevice(b, c.CacheBlocks)
}

func fromIndexStats(s index.Stats) Stats {
	return Stats{Reads: s.IO.Reads, Writes: s.IO.Writes, CacheHits: s.IO.Hits, SpaceBlocks: s.SpaceBlocks}
}

// --- 2D: the §3 optimal structure ---------------------------------------

// PlanarIndex answers halfplane reporting queries over planar points with
// O(log_B n + t) worst-case I/Os and linear space (Theorem 3.5).
type PlanarIndex struct {
	idx *index.Planar
}

// NewPlanarIndex builds the §3 structure over points.
func NewPlanarIndex(points []Point2, cfg Config) *PlanarIndex {
	return &PlanarIndex{idx: index.NewPlanar(cfg.device(), points, cfg.Seed)}
}

// Halfplane reports the indices of all points with y <= a·x + b, sorted.
func (p *PlanarIndex) Halfplane(a, b float64) []int { return p.idx.Halfplane(a, b) }

// Stats returns the device's I/O counters.
func (p *PlanarIndex) Stats() Stats { return fromIndexStats(p.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (p *PlanarIndex) ResetStats() { p.idx.ResetStats() }

// Len returns the number of indexed points.
func (p *PlanarIndex) Len() int { return p.idx.Len() }

// --- 3D: the §4 structure ------------------------------------------------

// Window bounds the (x, y) range of 3D and k-NN queries; indexes
// materialize sample envelopes over it.
type Window struct {
	XMin, XMax, YMin, YMax float64
}

func (w Window) toHull() hull3d.Window {
	return hull3d.Window{XMin: w.XMin, XMax: w.XMax, YMin: w.YMin, YMax: w.YMax}
}

// Index3D answers 3D halfspace reporting queries over points with
// O(log_B n + t) expected I/Os (Theorem 4.4).
type Index3D struct {
	idx *index.Spatial3
}

// NewIndex3D builds the §4 structure over points. The window must cover
// the (a, b) coefficient range of future queries; a zero Window selects
// [-16, 16]².
func NewIndex3D(points []Point3, win Window, cfg Config) *Index3D {
	return &Index3D{idx: index.NewSpatial3(cfg.device(), points, win.toHull(), cfg.Seed)}
}

// Halfspace reports the indices of all points with z <= a·x + b·y + c.
func (x *Index3D) Halfspace(a, b, c float64) []int { return x.idx.Halfspace(a, b, c) }

// Stats returns the device's I/O counters.
func (x *Index3D) Stats() Stats { return fromIndexStats(x.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (x *Index3D) ResetStats() { x.idx.ResetStats() }

// Len returns the number of indexed points.
func (x *Index3D) Len() int { return x.idx.Len() }

// --- k-nearest neighbors (Theorem 4.3) ------------------------------------

// KNNIndex answers planar k-nearest-neighbor queries in O(log_B n + k/B)
// expected I/Os via the lifting map.
type KNNIndex struct {
	idx *index.KNN
}

// Neighbor is one k-NN result: the point's index and its squared
// distance to the query.
type Neighbor = chan3d.Neighbor

// NewKNNIndex builds the k-NN structure; queries must fall inside the
// points' padded bounding box.
func NewKNNIndex(points []Point2, cfg Config) *KNNIndex {
	return &KNNIndex{idx: index.NewKNN(cfg.device(), points, cfg.Seed)}
}

// Query returns the k nearest indexed points to q, closest first.
func (s *KNNIndex) Query(k int, q Point2) []Neighbor { return s.idx.Nearest(k, q) }

// Stats returns the device's I/O counters.
func (s *KNNIndex) Stats() Stats { return fromIndexStats(s.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (s *KNNIndex) ResetStats() { s.idx.ResetStats() }

// Len returns the number of indexed points.
func (s *KNNIndex) Len() int { return s.idx.Len() }

// --- d-dimensional partition trees (§5, §6) --------------------------------

// Constraint is one linear constraint: x_d <= (or >=, when Below is
// false) Coef[0]·x_1 + … + Coef[d-2]·x_{d-1} + Coef[d-1]. It is shared
// with the engine's conjunction queries.
type Constraint = index.Constraint

// PartitionTree answers halfspace and convex-polytope (conjunction of
// constraints) reporting queries in any fixed dimension with linear
// space (Theorem 5.2 and §5 Remark i).
type PartitionTree struct {
	idx *index.Partition
}

// NewPartitionTree builds the §5 structure over d-dimensional points.
func NewPartitionTree(points []PointD, cfg Config) *PartitionTree {
	return &PartitionTree{idx: index.NewPartition(cfg.device(), points)}
}

// Halfspace reports the indices of points with x_d <= coef·(x,1), sorted.
func (t *PartitionTree) Halfspace(coef []float64) []int { return t.idx.Halfspace(coef) }

// Conjunction reports the points satisfying every constraint (a simplex
// or general convex polytope query).
func (t *PartitionTree) Conjunction(cs []Constraint) []int { return t.idx.Conjunction(cs) }

// Stats returns the device's I/O counters.
func (t *PartitionTree) Stats() Stats { return fromIndexStats(t.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (t *PartitionTree) ResetStats() { t.idx.ResetStats() }

// Len returns the number of indexed points.
func (t *PartitionTree) Len() int { return t.idx.Len() }

// --- Dynamic indexes (§5 Remark iii; §7 open problem 1) --------------------

// DynamicPlanarIndex supports insertions and deletions of planar points
// alongside halfplane reporting, via the logarithmic method over the §3
// structure: queries cost an O(log N) multiple of the static bound,
// updates amortized polylogarithmic rebuild work.
type DynamicPlanarIndex struct {
	idx *index.DynamicPlanar
}

// NewDynamicPlanarIndex returns an empty dynamic planar index.
func NewDynamicPlanarIndex(cfg Config) *DynamicPlanarIndex {
	return &DynamicPlanarIndex{idx: index.NewDynamicPlanar(cfg.device(), cfg.Seed)}
}

// Insert adds a point.
func (d *DynamicPlanarIndex) Insert(p Point2) {
	if err := d.idx.Insert(Rec2(p)); err != nil {
		panic(err) // unreachable: Rec2 records always fit the planar family
	}
}

// Delete removes one copy of p, reporting whether it was present.
func (d *DynamicPlanarIndex) Delete(p Point2) bool {
	ok, err := d.idx.Delete(Rec2(p))
	if err != nil {
		panic(err) // unreachable: Rec2 records always fit the planar family
	}
	return ok
}

// Halfplane returns the live points with y <= a·x + b, in canonical
// (X, Y) order.
func (d *DynamicPlanarIndex) Halfplane(a, b float64) []Point2 { return d.idx.Halfplane(a, b) }

// Len returns the number of live points.
func (d *DynamicPlanarIndex) Len() int { return d.idx.Len() }

// Stats returns the device's I/O counters, including rebuild work.
func (d *DynamicPlanarIndex) Stats() Stats { return fromIndexStats(d.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPlanarIndex) ResetStats() { d.idx.ResetStats() }

// DynamicPartitionTree is the dynamized d-dimensional partition tree.
type DynamicPartitionTree struct {
	idx *index.DynamicPartition
}

// NewDynamicPartitionTree returns an empty dynamic d-dimensional index.
func NewDynamicPartitionTree(cfg Config) *DynamicPartitionTree {
	return &DynamicPartitionTree{idx: index.NewDynamicPartition(cfg.device())}
}

// Insert adds a point. It panics on an empty point or a dimension
// mismatch with earlier inserts (the tree cannot mix dimensions).
func (d *DynamicPartitionTree) Insert(p PointD) {
	if err := d.idx.Insert(RecD(p)); err != nil {
		panic(err)
	}
}

// Delete removes one point equal to p, reporting whether it was present.
func (d *DynamicPartitionTree) Delete(p PointD) bool {
	ok, err := d.idx.Delete(RecD(p))
	if err != nil {
		panic(err)
	}
	return ok
}

// Halfspace returns the live points with x_d <= coef·(x,1), in
// lexicographic order.
func (d *DynamicPartitionTree) Halfspace(coef []float64) []PointD {
	return d.idx.Halfspace(coef)
}

// Conjunction returns the live points satisfying every constraint (a
// simplex or general convex-polytope query), in lexicographic order.
func (d *DynamicPartitionTree) Conjunction(cs []Constraint) []PointD {
	return d.idx.Conjunction(cs)
}

// Len returns the number of live points.
func (d *DynamicPartitionTree) Len() int { return d.idx.Len() }

// Stats returns the device's I/O counters, including rebuild work.
func (d *DynamicPartitionTree) Stats() Stats { return fromIndexStats(d.idx.Stats()) }

// ResetStats zeroes the counters and drops the cache.
func (d *DynamicPartitionTree) ResetStats() { d.idx.ResetStats() }

// --- Sharded concurrent engine (DESIGN.md §5, §6) ---------------------------

// Partitioner is a record-to-shard layout for the engine: it decides
// which records share a shard and exports the per-shard geometry the
// query planner prunes against. Build one with RoundRobinLayout,
// SFCLayout or KDCutLayout; a Partitioner instance belongs to one
// engine (the locality-aware layouts learn the build set's geometry),
// so construct a fresh one per engine.
//
// The static engine constructors train the layout on the build set
// automatically. The mutable engines build empty, so an untrained
// locality-aware layout delegates insert placement to load balancing
// (answers stay exact; pruning just stays off until the summaries
// separate). To give a mutable engine spatial routing from the start,
// set EngineConfig.PretrainSample (or call Engine.Retrain later):
//
//	eng := linconstraint.NewDynamicPlanarEngine(linconstraint.EngineConfig{
//		Shards: shards, Partitioner: linconstraint.KDCutLayout(),
//		PretrainSample: samplePoints, // []PointD
//	})
type Partitioner = partition.Partitioner

// RoundRobinLayout deals records to shards in input order — perfectly
// balanced on any input, but every shard spans the whole data set, so
// the planner can never prune a shard. This is the default layout and
// the pruning baseline.
func RoundRobinLayout() Partitioner { return partition.RoundRobin{} }

// SFCLayout sorts records along a Z-order space-filling curve and cuts
// the curve into equal-size contiguous shard runs: compact per-shard
// regions at exact balance, so selective queries visit few shards.
func SFCLayout() Partitioner { return partition.NewSFC() }

// KDCutLayout recursively halves the record set by coordinate medians
// into one axis-aligned tile per shard: the tightest per-shard regions
// of the built-in layouts, at near-exact balance.
func KDCutLayout() Partitioner { return partition.NewKDCut() }

// EngineConfig tunes a sharded engine. The zero value means one shard,
// one worker, the default block size, no cache, no simulated disk
// latency, and round-robin sharding.
type EngineConfig struct {
	// Shards is the number of independent shards, each with its own
	// simulated device, index and persistent worker goroutine (default 1).
	Shards int
	// Workers caps how many shard workers may execute simultaneously
	// (default Shards — no cap).
	Workers int
	// BlockSize and CacheBlocks configure every shard's device, as in
	// Config.
	BlockSize   int
	CacheBlocks int
	// Seed drives per-shard randomization (shard s uses Seed+s).
	Seed int64
	// IOLatency, when positive, is slept by a shard's device on every
	// cache miss, modeling disk access time; the worker pool then
	// overlaps misses across shards (latency hiding).
	IOLatency time.Duration
	// Partitioner is the record-to-shard layout (default round-robin).
	// With a locality-aware layout (SFCLayout, KDCutLayout) the engine
	// plans every query against per-shard bounding regions and skips
	// shards that cannot contribute; answers are byte-identical under
	// every layout.
	Partitioner Partitioner
	// DisablePlanner forces full fan-out (every query visits every
	// shard), the pre-planner behavior; useful as a pruning baseline.
	DisablePlanner bool
	// PretrainSample, when non-empty, trains the Partitioner on the
	// sample before the engine is built, so an engine that builds
	// empty (the dynamic constructors) routes its very first inserts
	// spatially and gets planner pruning from the start. Static
	// engines ignore it — their build set trains the layout anyway.
	PretrainSample []PointD
	// Metrics, when non-nil, receives the engine's instruments: run
	// latency histograms, op/plan-verdict/per-shard counters, rebalance
	// phase events, and a scrape-time collector exporting every shard's
	// device rollups. Instruments are pre-registered and observed with
	// single atomic operations, so enabling metrics keeps the
	// steady-state query path allocation-free. Build one with
	// NewMetrics; serve it with MetricsHandler. Give each engine its
	// own registry (the per-shard series are sized to the shard count).
	Metrics *Metrics
	// TraceEvery, when positive, samples one query run in every
	// TraceEvery into a fixed ring of Trace records, read with
	// Engine.Traces. Zero disables tracing.
	TraceEvery int
	// TraceBuf is the trace ring capacity (default 256).
	TraceBuf int
	// FlightRecorder enables threshold-triggered capture of anomalous
	// runs: any run whose end-to-end latency, worst single-shard I/O,
	// or total shard visits exceeds a configured bound is recorded —
	// with per-shard plan verdicts, replica routing and I/O deltas —
	// into a dedicated ring read with Engine.SlowQueries, independent
	// of the TraceEvery sampler. The zero value disables it; enabling
	// it keeps the steady-state query path allocation-free.
	FlightRecorder FlightRecorderConfig
	// Watchdog, when non-nil, runs a background health sampler that
	// watches runtime pressure (GC pause, heap, goroutines), layout
	// skew, traffic concentration, replica balance and the SLO burn
	// rates, emitting typed events read with Engine.Health. Stopped by
	// Engine.Close.
	Watchdog *WatchdogConfig
	// WindowSlots and WindowInterval shape the instrumented engine's
	// rotating histogram windows — the time-resolved latency/fan-out
	// views behind the *_win series and the watchdog's SLO checks
	// (defaults 6 slots of 10s).
	WindowSlots    int
	WindowInterval time.Duration
	// Deadline, when positive, bounds every query run end to end. A
	// strict engine (Strict=true) lets a late run finish anyway and
	// just counts the miss; a lenient one returns what the shards that
	// beat the deadline answered, marks each QueryResult Degraded and
	// lists the abandoned shards in Missing (DESIGN.md §12).
	Deadline time.Duration
	// Strict makes a past-deadline run complete instead of degrade.
	Strict bool
	// HedgeAfter arms hedged reads on replicated shards: a shard
	// dispatch unanswered past the delay is re-issued to another
	// replica and the first answer wins (answers stay byte-identical).
	// Pass HedgeAuto to track the engine's windowed p99 latency, a
	// fixed positive duration to pin the delay, zero to disable.
	HedgeAfter time.Duration
	// Breaker, when non-nil, arms a per-replica circuit breaker:
	// replicas whose device keeps faulting trip open, the read path
	// routes around them, and after Cooldown a half-open probe decides
	// whether they re-close. Repair rebuilds a sick replica on demand.
	Breaker *BreakerConfig
}

func (c EngineConfig) options() engine.Options {
	return engine.Options{
		Shards: c.Shards, Workers: c.Workers,
		BlockSize: c.BlockSize, CacheBlocks: c.CacheBlocks,
		Seed: c.Seed, IOLatency: c.IOLatency,
		Partitioner: c.Partitioner, NoPlanner: c.DisablePlanner,
		PretrainSample: c.PretrainSample,
		Metrics:        c.Metrics, TraceEvery: c.TraceEvery, TraceBuf: c.TraceBuf,
		FlightRecorder: c.FlightRecorder, Watchdog: c.Watchdog,
		WindowSlots: c.WindowSlots, WindowInterval: c.WindowInterval,
		Deadline: c.Deadline, Strict: c.Strict,
		HedgeAfter: c.HedgeAfter, Breaker: c.Breaker,
	}
}

// Query is one element of an Engine batch; see the Op* constants.
type Query = engine.Query

// QueryResult is the answer to one batched op, including the query's
// plan stats (ShardsVisited / ShardsPruned).
type QueryResult = engine.Result

// Op selects the query or update family of a batched Query.
type Op = engine.Op

// Batched ops. An Engine answers the ops of the index family it was
// built over; mismatches surface as QueryResult.Err. OpInsert and
// OpDelete (mutable engines only) take the record in Query.Rec and
// apply at their position in the batch.
const (
	OpHalfplane   = engine.OpHalfplane
	OpHalfspace3  = engine.OpHalfspace3
	OpHalfspaceD  = engine.OpHalfspaceD
	OpConjunction = engine.OpConjunction
	OpKNN         = engine.OpKNN
	OpInsert      = engine.OpInsert
	OpDelete      = engine.OpDelete
)

// ErrImmutable is returned by Insert/Delete on an engine built over a
// static index family.
var ErrImmutable = engine.ErrImmutable

// RebalanceOptions tune one Engine.Rebalance call: the per-call move
// budget (MaxMoves), how many moves apply per exclusive lock
// acquisition (BatchSize), and an optional replacement layout
// (Partitioner) the records migrate onto.
type RebalanceOptions = engine.RebalanceOptions

// RebalanceStats reports what one Engine.Rebalance call did: moves
// planned / applied / deferred beyond the budget, and the skew
// measurements before and after.
type RebalanceStats = engine.RebalanceStats

// SkewStats are the rebalance trigger signals measured from the shard
// summaries: live-count skew (max/mean; 1 = perfectly balanced) and
// region spread (sum of shard box volumes over their union's; ~1 =
// disjoint tiles, ~shards = everything overlaps).
type SkewStats = partition.SkewStats

// EngineStats is an aggregated I/O snapshot across an engine's shards:
// summed counters and space, the worst single shard (the critical-path
// I/O a parallel disk farm would wait for), and the planner's
// cumulative ShardsVisited / ShardsPruned counts.
type EngineStats = engine.Stats

// --- Observability (DESIGN.md §9) -------------------------------------------

// Metrics is an allocation-free instrument registry: counters, gauges
// and fixed-bucket latency histograms observed with single atomic
// operations. Pass one to EngineConfig.Metrics to instrument an
// engine, then export it via MetricsHandler (Prometheus text + JSON +
// pprof), Snapshot (programmatic, what the bench ledger reads), or
// WriteProm.
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// MetricsSnapshot is a point-in-time view of a Metrics registry, safe
// to serialize (it is what /metrics.json emits).
type MetricsSnapshot = metrics.Snapshot

// MetricsHandler returns an http.Handler serving reg:
//
//	/metrics        Prometheus text exposition (?format=json for JSON)
//	/metrics.json   JSON snapshot
//	/debug/pprof/   net/http/pprof profiles
//
// Mount it on a side port (lcserve -metrics-addr does) so telemetry
// never contends with serving.
func MetricsHandler(reg *Metrics) http.Handler { return metrics.Mux(reg) }

// Trace is one sampled query-run record (EngineConfig.TraceEvery):
// phase timings, plan verdicts and the run's block-I/O delta. Read
// them with Engine.Traces.
type Trace = engine.Trace

// RebalanceEvent is one recorded phase of a Rebalance/Retrain call on
// an instrumented engine; read them with Engine.RebalanceEvents.
type RebalanceEvent = engine.RebalanceEvent

// FlightRecorderConfig bounds what the flight recorder considers an
// anomalous run (EngineConfig.FlightRecorder): end-to-end latency,
// worst single-shard block transfers, or total shard visits. A zero
// bound disables that trigger; the recorder is off when every trigger
// is disabled.
type FlightRecorderConfig = engine.FlightRecorderConfig

// SlowReason is the bitmask of flight-recorder bounds a captured run
// tripped; String renders the fixed vocabulary ("total_ns|shard_io").
type SlowReason = engine.SlowReason

// Flight-recorder trigger bits.
const (
	SlowTotalNs  = engine.SlowTotalNs
	SlowShardIO  = engine.SlowShardIO
	SlowFanout   = engine.SlowFanout
	SlowHedged   = engine.SlowHedged
	SlowDegraded = engine.SlowDegraded
)

// SlowTrace is one run the flight recorder captured: the same
// phase/plan breakdown a sampled Trace carries, plus the run's
// wall-clock start, which bounds it tripped, and per-shard evidence
// (plan verdicts, replica routing, block-I/O deltas) for every shard.
// Read them with Engine.SlowQueries or the /debug/slow endpoint.
type SlowTrace = engine.SlowTrace

// ShardTrace is one shard's share of a captured SlowTrace.
type ShardTrace = engine.ShardTrace

// WatchdogConfig configures the background health sampler
// (EngineConfig.Watchdog): the tick interval, the event ring size, and
// the bounds — layout skew, hot-shard traffic share, GC pause budget,
// replica imbalance — plus the SLO objectives (windowed p99 latency,
// windowed mean shards visited). A zero bound disables that check.
type WatchdogConfig = engine.WatchdogConfig

// HealthEvent is one watchdog observation that crossed its configured
// bound; read them with Engine.Health or the /debug/health endpoint.
type HealthEvent = engine.HealthEvent

// HealthKind identifies what a HealthEvent observed; String is the
// engine_health_events_total label ("skew", "p99_burn", ...).
type HealthKind = engine.HealthKind

// Watchdog event kinds.
const (
	HealthSkew             = engine.HealthSkew
	HealthHotShard         = engine.HealthHotShard
	HealthLatencyBurn      = engine.HealthLatencyBurn
	HealthVisitedBurn      = engine.HealthVisitedBurn
	HealthGCStall          = engine.HealthGCStall
	HealthReplicaImbalance = engine.HealthReplicaImbalance
	HealthBreakerTrip      = engine.HealthBreakerTrip
	HealthRepair           = engine.HealthRepair
)

// --- Robustness (DESIGN.md §12) ---------------------------------------------

// FaultPlan is a deterministic, seeded fault-injection schedule for one
// replica's device (Engine.InjectFaults): probabilistic brownout stalls,
// periodic stuck reads, and the stall charged per touch while the
// replica is hard-failed. The zero value injects nothing.
type FaultPlan = eio.FaultPlan

// BreakerConfig tunes the per-replica circuit breaker
// (EngineConfig.Breaker): how many consecutive faulted visits trip a
// replica open (default 3) and how long it stays open before a
// half-open probe (default 100ms). The zero value takes both defaults.
type BreakerConfig = engine.BreakerConfig

// BreakerState is one replica's circuit-breaker state, read with
// Engine.BreakerStates.
type BreakerState = engine.BreakerState

// Breaker states: Closed serves normally, Open is routed around until
// its cooldown expires, HalfOpen admits a single probe visit whose
// outcome re-closes or re-opens the breaker.
const (
	BreakerClosed   = engine.BreakerClosed
	BreakerOpen     = engine.BreakerOpen
	BreakerHalfOpen = engine.BreakerHalfOpen
)

// HedgeAuto, passed as EngineConfig.HedgeAfter, derives the hedge delay
// from the engine's windowed p99 run latency instead of a fixed value.
const HedgeAuto = engine.HedgeAuto

// PlanVerdict is the planner's per-shard decision for one query:
// visited, or which bound pruned the shard. String is the metric label
// ("visited", "empty", "box", "support", "constraint", "knn_cutoff") —
// the vocabulary of engine_plan_verdicts_total and of Explain.
type PlanVerdict = planner.Verdict

// Explain is Engine.ExplainInto's reusable answer: the planner's
// per-shard verdict for one query, computed without running it. A
// reused Explain keeps its buffers, so polling stays allocation-free.
type Explain = engine.Explain

// Engine is a sharded concurrent front-end over one of the paper's
// index families. It returns exactly the same result sets as the
// corresponding unsharded index — global record indices for the static
// families, canonically ordered records for the dynamic ones — while
// building shards in parallel and serving queries from a fixed worker
// pool. Engines are safe for concurrent use; call Close when done.
//
// Engines over the dynamic families (NewDynamicPlanarEngine,
// NewDynamicPartitionEngine) also accept live updates: Insert routes
// the record to the currently-smallest shard, Delete scatter-gathers
// by value across the shards, and both are also available as OpInsert/
// OpDelete batch ops. Static engines return ErrImmutable.
//
// Hot shards can be replicated onto extra private devices (Replicate,
// Drop, AutoReplicate): reads spread across the copies, updates fan
// out to all of them, and an always-on traffic sketch (ShardTraffic,
// HotShards) measures which shards deserve the copies — answers are
// byte-identical under any replica layout.
//
// The scalar query methods (Halfplane, Halfspace3, Halfspace,
// Conjunction, KNN, LiveHalfplane, LiveHalfspace, LiveConjunction)
// panic when called on an engine built over a family that does not
// serve them; Batch reports the mismatch as QueryResult.Err instead.
type Engine struct {
	eng *engine.Engine
}

// NewPlanarEngine shards the §3 planar structure.
func NewPlanarEngine(points []Point2, cfg EngineConfig) *Engine {
	return &Engine{eng: engine.NewPlanar(points, cfg.options())}
}

// NewEngine3D shards the §4 3D structure. The window must cover the
// (a, b) coefficient range of future queries, as in NewIndex3D.
func NewEngine3D(points []Point3, win Window, cfg EngineConfig) *Engine {
	opt := cfg.options()
	opt.Window = win.toHull()
	return &Engine{eng: engine.New3D(points, opt)}
}

// NewKNNEngine shards the Theorem 4.3 k-nearest-neighbor structure.
func NewKNNEngine(points []Point2, cfg EngineConfig) *Engine {
	return &Engine{eng: engine.NewKNN(points, cfg.options())}
}

// NewPartitionEngine shards the §5 d-dimensional partition tree.
func NewPartitionEngine(points []PointD, cfg EngineConfig) *Engine {
	return &Engine{eng: engine.NewPartition(points, cfg.options())}
}

// NewDynamicPlanarEngine returns an empty mutable engine over the
// dynamized §3 planar structure: live inserts and deletes of Point2
// records alongside halfplane reporting.
func NewDynamicPlanarEngine(cfg EngineConfig) *Engine {
	return &Engine{eng: engine.NewDynamicPlanar(cfg.options())}
}

// NewDynamicPartitionEngine returns an empty mutable engine over the
// dynamized §5 partition tree: live inserts and deletes of PointD
// records alongside halfspace reporting.
func NewDynamicPartitionEngine(cfg EngineConfig) *Engine {
	return &Engine{eng: engine.NewDynamicPartition(cfg.options())}
}

// Mutable reports whether the engine accepts Insert/Delete.
func (e *Engine) Mutable() bool { return e.eng.Mutable() }

// Insert adds a record to the currently-smallest shard. It returns
// ErrImmutable on a static engine.
func (e *Engine) Insert(r Record) error { return e.eng.Insert(r) }

// Delete removes one record equal to r (scatter-gather by value across
// the shards), reporting whether one was present. It returns
// ErrImmutable on a static engine.
func (e *Engine) Delete(r Record) (bool, error) { return e.eng.Delete(r) }

// Halfplane reports the indices of all points with y <= a·x + b, sorted.
func (e *Engine) Halfplane(a, b float64) []int { return e.eng.Halfplane(a, b) }

// LiveHalfplane reports the live points of a dynamic planar engine
// with y <= a·x + b, in canonical (X, Y) order.
func (e *Engine) LiveHalfplane(a, b float64) []Point2 {
	recs := e.eng.HalfplaneRecs(a, b)
	out := make([]Point2, len(recs))
	for i, r := range recs {
		out[i] = r.P2
	}
	return out
}

// Halfspace3 reports the indices of all points with z <= a·x + b·y + c.
func (e *Engine) Halfspace3(a, b, c float64) []int { return e.eng.Halfspace3(a, b, c) }

// Halfspace reports the indices of points with x_d <= coef·(x,1), sorted.
func (e *Engine) Halfspace(coef []float64) []int { return e.eng.HalfspaceD(coef) }

// LiveHalfspace reports the live points of a dynamic partition engine
// with x_d <= coef·(x,1), in lexicographic order.
func (e *Engine) LiveHalfspace(coef []float64) []PointD {
	recs := e.eng.HalfspaceDRecs(coef)
	out := make([]PointD, len(recs))
	for i, r := range recs {
		out[i] = r.PD
	}
	return out
}

// Conjunction reports the points satisfying every constraint.
func (e *Engine) Conjunction(cs []Constraint) []int { return e.eng.Conjunction(cs) }

// LiveConjunction reports the live points of a dynamic partition
// engine satisfying every constraint, in lexicographic order.
func (e *Engine) LiveConjunction(cs []Constraint) []PointD {
	recs := e.eng.ConjunctionRecs(cs)
	out := make([]PointD, len(recs))
	for i, r := range recs {
		out[i] = r.PD
	}
	return out
}

// KNN returns the k nearest indexed points to q, closest first.
func (e *Engine) KNN(k int, q Point2) []Neighbor { return e.eng.KNN(k, q) }

// Batch executes a batch of ops: update ops apply at their position in
// the batch, runs of consecutive queries are answered concurrently
// (scatter-gather through the persistent shard workers), and the
// answers return in order, in freshly allocated result slices the
// caller owns outright.
func (e *Engine) Batch(qs []Query) []QueryResult { return e.eng.Batch(qs) }

// BatchInto is Batch with caller-owned result storage: results is
// resized to len(qs), each QueryResult's slices are refilled in place
// (capacity reused), and the slice is returned. A caller that reuses
// the same query and result slices across calls runs the engine's
// allocation-free hot path — on a static engine a steady-state query
// batch performs zero heap allocations end to end.
//
// The refilled slices remain owned by the caller but are overwritten by
// the caller's next BatchInto with the same storage; copy out anything
// that must outlive it. See DESIGN.md §7 for the arena ownership rules.
func (e *Engine) BatchInto(qs []Query, results []QueryResult) []QueryResult {
	return e.eng.BatchInto(qs, results)
}

// Rebalance migrates records onto a layout retrained on the live data
// (DESIGN.md §8). On a dynamic engine it snapshots the live records,
// retrains the layout, moves at most MaxMoves records between shards
// in small batches interleaved with serving — answers remain
// byte-identical to an unsharded index throughout — and shrinks every
// shard summary to its live set, so regions cleared by deletes prune
// again. On a static engine it re-splits the build set and rebuilds
// the shards in parallel (one brief exclusive swap; per-shard I/O
// counters restart). Concurrent Rebalance calls serialize; queries
// and updates keep flowing between move batches.
func (e *Engine) Rebalance(opt RebalanceOptions) (RebalanceStats, error) {
	return e.eng.Rebalance(opt)
}

// AutoReplicateOptions tune one Engine.AutoReplicate call: the total
// physical-copy budget, the per-shard degree cap, and the minimum
// traffic share a shard must hold to deserve a second copy.
type AutoReplicateOptions = engine.AutoReplicateOptions

// AutoReplicateStats reports what one Engine.AutoReplicate call did:
// copies promoted and demoted, and the resulting per-shard degrees.
type AutoReplicateStats = engine.AutoReplicateStats

// HotShard is one heavy-hitter entry of the engine's traffic sketch: a
// shard id and its approximate (aged) recent visit count.
type HotShard = engine.HotShard

// Replicate sets shard si's replica degree to n (n >= 1): the shard's
// index is cloned onto n-1 fresh private devices (or excess copies are
// dropped), the read path spreads visits across the copies, and every
// update fans out to all of them — answers are byte-identical
// throughout (DESIGN.md §10).
func (e *Engine) Replicate(si, n int) error { return e.eng.Replicate(si, n) }

// Drop demotes shard si back to a single copy.
func (e *Engine) Drop(si int) error { return e.eng.Drop(si) }

// Replicas returns the per-shard replica degrees (1 = unreplicated).
func (e *Engine) Replicas() []int { return e.eng.Replicas() }

// ShardTraffic returns the traffic sketch's estimate of shard si's
// recent planned query visits.
func (e *Engine) ShardTraffic(si int) uint64 { return e.eng.ShardTraffic(si) }

// HotShards appends the sketch's current heavy-hitter shards to dst,
// hottest first, and returns it.
func (e *Engine) HotShards(dst []HotShard) []HotShard { return e.eng.HotShards(dst) }

// AutoReplicate reshapes the replica layout to the measured traffic:
// hot shards (by the engine's always-on frequency sketch) are promoted
// within the budget, cold replicated shards demote. Caller-triggered,
// like Rebalance — run it from a ticker or after a workload shift.
func (e *Engine) AutoReplicate(opt AutoReplicateOptions) (AutoReplicateStats, error) {
	return e.eng.AutoReplicate(opt)
}

// InjectFaults installs a deterministic fault-injection plan on shard
// si's replica ri device (the zero FaultPlan clears it). Faults charge
// only cache misses, so a warm replica browns out only when it touches
// the disk — exactly the failure mode the breaker and hedging exist to
// absorb.
func (e *Engine) InjectFaults(si, ri int, plan FaultPlan) error {
	return e.eng.InjectFaults(si, ri, plan)
}

// FailReplica hard-fails shard si's replica ri: every device touch
// faults (charging the plan's FailStall, default 1ms) until HealReplica
// or Repair. With a breaker armed the replica trips open and the read
// path routes around it.
func (e *Engine) FailReplica(si, ri int) error { return e.eng.FailReplica(si, ri) }

// HealReplica clears a hard fail installed by FailReplica. Any
// injected FaultPlan stays armed; the breaker re-closes on its next
// successful probe.
func (e *Engine) HealReplica(si, ri int) error { return e.eng.HealReplica(si, ri) }

// Repair rebuilds shard si's sick replicas — those whose breaker is
// not closed or whose device is hard-failed. A sick primary is healed
// in place (fault plan cleared); a sick secondary is rebuilt from the
// primary onto a fresh device. It returns how many replicas were
// repaired; answers stay byte-identical throughout.
func (e *Engine) Repair(si int) (int, error) { return e.eng.Repair(si) }

// BreakerStates returns shard si's per-replica circuit-breaker states
// (all BreakerClosed on an engine without EngineConfig.Breaker).
func (e *Engine) BreakerStates(si int) ([]BreakerState, error) {
	return e.eng.BreakerStates(si)
}

// Retrain (re)trains a dynamic engine's layout without moving
// records: on a non-empty sample directly, otherwise on a snapshot of
// the live records. It steers future insert placement and the target
// of a later Rebalance. Static engines return an error — their layout
// state is consumed only by Rebalance, which retrains as part of
// rebuilding.
func (e *Engine) Retrain(sample []PointD) error { return e.eng.Retrain(sample) }

// Stats aggregates I/O counters and space across shards, including all
// construction and rebuild (compaction) work.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// Metrics returns the registry holding the engine's instruments: the
// one from EngineConfig.Metrics, or a private registry when only
// tracing was enabled. Nil for an uninstrumented engine.
func (e *Engine) Metrics() *Metrics { return e.eng.Metrics() }

// Traces appends the engine's sampled query traces to dst, oldest
// first, and returns it. Empty unless EngineConfig.TraceEvery was
// positive. Pass a reused dst[:0] to keep polling allocation-free.
func (e *Engine) Traces(dst []Trace) []Trace { return e.eng.Traces(dst) }

// RebalanceEvents appends the recorded rebalance phase events to dst,
// oldest first, and returns it. Empty for an uninstrumented engine.
func (e *Engine) RebalanceEvents(dst []RebalanceEvent) []RebalanceEvent {
	return e.eng.RebalanceEvents(dst)
}

// SlowQueries appends the flight recorder's captured anomalous runs to
// dst, oldest first, and returns it. Empty unless
// EngineConfig.FlightRecorder set at least one bound. Pass a reused
// dst[:0] to poll without allocating (each entry's PerShard capacity
// is reused too).
func (e *Engine) SlowQueries(dst []SlowTrace) []SlowTrace { return e.eng.SlowQueries(dst) }

// Health appends the watchdog's recorded health events to dst, oldest
// first, and returns it. Empty unless EngineConfig.Watchdog was set.
// Pass a reused dst[:0] to poll without allocating.
func (e *Engine) Health(dst []HealthEvent) []HealthEvent { return e.eng.Health(dst) }

// ExplainInto plans q against the engine's current shard summaries —
// without visiting any shard — and fills ex with the planner's
// per-shard verdicts: which shards the query would visit, and which
// bound (empty, box, support function, constraint conjunction) prunes
// each of the rest. On a DisablePlanner engine it still reports what
// the planner would decide. Reuse ex across calls to keep polling
// allocation-free.
func (e *Engine) ExplainInto(q Query, ex *Explain) { e.eng.ExplainInto(q, ex) }

// ResetStats zeroes every shard's counters and drops their caches.
func (e *Engine) ResetStats() { e.eng.ResetStats() }

// Len returns the total number of live records.
func (e *Engine) Len() int { return e.eng.Len() }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return e.eng.NumShards() }

// NumWorkers returns the worker concurrency cap.
func (e *Engine) NumWorkers() int { return e.eng.NumWorkers() }

// Close stops the per-shard workers; queries after Close panic.
func (e *Engine) Close() { e.eng.Close() }

// --- Serving front-end (DESIGN.md §13) -------------------------------

// ServerConfig tunes the serving front-end's striped batcher: the
// coalescing cap (MaxBatch — a stripe flushes what its ring holds the
// moment it runs dry, never on a timer), per-stripe admission-ring capacity
// (QueueCap, full rings shed with HTTP 429), stripes per op family,
// and an optional metrics registry for the server_* series (share the
// engine's registry — the name sets are disjoint).
type ServerConfig = server.Config

// Server is the batching network front-end over an Engine: requests
// submitted via Do or HTTP coalesce in per-op stripes into single
// BatchInto runs. It implements http.Handler (POST/GET /query,
// /healthz). Stop with Close, then close the engine — in that order.
type Server = server.Server

// ServerResponse is one query's answer from the front-end, deep-copied
// out of the engine's arenas, with per-request latency attribution
// (queue wait / batch wait / run / total) attached.
type ServerResponse = server.Response

// ServerStatus classifies one served query's outcome.
type ServerStatus = server.Status

// Server statuses: ServeOK maps to HTTP 200, ServePartial (degraded
// run) to 206, ServeShed (admission queue full) to 429, ServeClosed to
// 503, ServeBadRequest to 400 and ServeError to 500.
const (
	ServeOK         = server.StatusOK
	ServePartial    = server.StatusPartial
	ServeShed       = server.StatusShed
	ServeClosed     = server.StatusClosed
	ServeBadRequest = server.StatusBadRequest
	ServeError      = server.StatusError
)

// Serve starts a batching front-end over eng. The server does not own
// the engine: call Server.Close first, Engine.Close after.
func Serve(eng *Engine, cfg ServerConfig) *Server {
	return server.New(eng.eng, cfg)
}
