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
//     5.2). On shallow d = 3 queries it keeps §6's O(n^ε + t) growth
//     (experiment E4); the Theorem 6.1 hybrid is the same tree with §4
//     leaves.
//   - DynamicPlanarIndex / DynamicPartitionTree: the logarithmic-method
//     dynamizations (§5 Remark iii; the engineering answer to §7 open
//     problem 1) with live Insert/Delete.
//
// Each of the six index types is the family's internal/index adapter
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

// Stats is an I/O snapshot of an index's simulated device: the
// counters IO.Reads, IO.Writes and IO.Hits (IO.IOs() is the block
// transfers) and the blocks the index occupies, SpaceBlocks.
// EngineStats.PerShard holds one per shard.
type Stats = index.Stats

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

// The six index types below share one method set besides their own
// query methods: Query and QueryInto answer one Query whose Op the
// family serves (Supports reports which), Len counts the indexed or
// live points, Stats snapshots the device's counters (construction and
// rebuild work included) and ResetStats zeroes them and drops the
// cache. Query and QueryInto return an error for an op the family does
// not serve and, wrapping ErrNonFinite, for a NaN or infinite operand;
// the query methods report nothing for such an operand. An index is
// single-owner: callers serialize access.

// --- 2D: the §3 optimal structure ---------------------------------------

// PlanarIndex answers halfplane reporting queries over planar points with
// O(log_B n + t) worst-case I/Os and linear space (Theorem 3.5):
// Halfplane(a, b) reports the indices of all points with y <= a·x + b,
// sorted.
type PlanarIndex = index.Planar

// NewPlanarIndex builds the §3 structure over points.
func NewPlanarIndex(points []Point2, cfg Config) *PlanarIndex {
	return index.NewPlanar(cfg.device(), points, cfg.Seed)
}

// --- 3D: the §4 structure ------------------------------------------------

// Window bounds the (x, y) range of 3D and k-NN queries; indexes
// materialize sample envelopes over it.
type Window = hull3d.Window

// Index3D answers 3D halfspace reporting queries over points with
// O(log_B n + t) expected I/Os (Theorem 4.4): Halfspace(a, b, c)
// reports the indices of all points with z <= a·x + b·y + c, sorted.
type Index3D = index.Spatial3

// NewIndex3D builds the §4 structure over points. The window must cover
// the (a, b) coefficient range of future queries; a zero Window selects
// [-16, 16]².
func NewIndex3D(points []Point3, win Window, cfg Config) *Index3D {
	return index.NewSpatial3(cfg.device(), points, win, cfg.Seed)
}

// --- k-nearest neighbors (Theorem 4.3) ------------------------------------

// KNNIndex answers planar k-nearest-neighbor queries in O(log_B n + k/B)
// expected I/Os via the lifting map: Nearest(k, q) returns the k nearest
// indexed points to q, closest first.
type KNNIndex = index.KNN

// Neighbor is one k-NN result: the point's index and its squared
// distance to the query.
type Neighbor = chan3d.Neighbor

// NewKNNIndex builds the k-NN structure; queries must fall inside the
// points' padded bounding box.
func NewKNNIndex(points []Point2, cfg Config) *KNNIndex {
	return index.NewKNN(cfg.device(), points, cfg.Seed)
}

// --- d-dimensional partition trees (§5, §6) --------------------------------

// Constraint is one linear constraint: x_d <= (or >=, when Below is
// false) Coef[0]·x_1 + … + Coef[d-2]·x_{d-1} + Coef[d-1]. It is shared
// with the engine's conjunction queries.
type Constraint = index.Constraint

// PartitionTree answers halfspace and convex-polytope (conjunction of
// constraints) reporting queries in any fixed dimension with linear
// space (Theorem 5.2 and §5 Remark i): Halfspace(coef) reports the
// indices of points with x_d <= coef·(x,1) and Conjunction(cs) those
// satisfying every constraint (a simplex or general convex polytope),
// both sorted.
type PartitionTree = index.Partition

// NewPartitionTree builds the §5 structure over d-dimensional points.
func NewPartitionTree(points []PointD, cfg Config) *PartitionTree {
	return index.NewPartition(cfg.device(), points)
}

// --- Dynamic indexes (§5 Remark iii; §7 open problem 1) --------------------

// DynamicPlanarIndex supports insertions and deletions of planar points
// alongside halfplane reporting, via the logarithmic method over the §3
// structure: queries cost an O(log N) multiple of the static bound,
// updates amortized polylogarithmic rebuild work. Insert(Rec2(p)) adds
// a point; Delete(Rec2(p)) removes one copy of it and reports whether
// one was present; both return an error for a NaN or infinite
// coordinate or a record that is not a Rec2. Halfplane(a, b) returns the
// live points with y <= a·x + b in canonical (X, Y) order.
type DynamicPlanarIndex = index.DynamicPlanar

// NewDynamicPlanarIndex returns an empty dynamic planar index.
func NewDynamicPlanarIndex(cfg Config) *DynamicPlanarIndex {
	return index.NewDynamicPlanar(cfg.device(), cfg.Seed)
}

// DynamicPartitionTree is the dynamized d-dimensional partition tree.
// Insert(RecD(p)) and Delete(RecD(p)) work as on DynamicPlanarIndex;
// the first insert fixes the dimension, and Insert returns an error for
// a point of another one (the tree cannot mix dimensions). Halfspace and
// Conjunction return the live points in lexicographic order.
type DynamicPartitionTree = index.DynamicPartition

// NewDynamicPartitionTree returns an empty dynamic d-dimensional index.
func NewDynamicPartitionTree(cfg Config) *DynamicPartitionTree {
	return index.NewDynamicPartition(cfg.device())
}

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

// EngineConfig tunes a sharded engine: shard and worker counts, every
// shard's device (BlockSize, CacheBlocks, IOLatency), the layout
// (Partitioner, NoPlanner, PretrainSample), telemetry (Metrics,
// FlightRecorder, Watchdog) and robustness (Deadline, Strict,
// HedgeAfter, Breaker); Window bounds NewEngine3D's queries. The zero value means one shard, one worker,
// the default block size, no cache, no simulated disk latency, and
// round-robin sharding.
type EngineConfig = engine.Options

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

// ErrClosed is returned by updates, Rebalance, Retrain and replica-set
// changes on a closed engine, and is the Err of every query Result it
// answers.
var ErrClosed = engine.ErrClosed

// ErrNonFinite is wrapped by the error of a query, explain or update
// with a NaN or infinite coordinate; probe with errors.Is.
var ErrNonFinite = index.ErrNonFinite

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
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot
//	/debug/pprof/   net/http/pprof profiles
//
// DebugHandler extends it with the engine's introspection endpoints;
// lcserve -listen serves both next to /query on one port.
func MetricsHandler(reg *Metrics) http.Handler { return metrics.Mux(reg) }

// Trace is one query-run record, the body of a flight-recorder
// SlowTrace: phase timings, plan verdicts and the run's block-I/O
// delta summed over its shards.
type Trace = engine.Trace

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

// SlowTrace is one run the flight recorder captured: its Trace (phase
// timings, plan verdicts, summed I/O), plus the run's
// wall-clock start, which bounds it tripped, and per-shard evidence
// (plan verdicts, replica routing, block-I/O deltas) for every shard.
// Read them with Engine.SlowQueries or the /debug/slow endpoint.
type SlowTrace = engine.SlowTrace

// ShardTrace is one shard's share of a captured SlowTrace.
type ShardTrace = engine.ShardTrace

// WatchdogConfig configures the background health sampler
// (EngineConfig.Watchdog): the tick interval and the bounds — layout skew, hot-shard traffic share, GC pause budget,
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
// A query with a NaN or infinite operand gets Explain.Err, wrapping
// ErrNonFinite, and no verdicts: Batch would not run it either.
type Explain = engine.Explain

// Engine is a sharded concurrent front-end over one of the paper's
// index families. It returns exactly the same result sets as the
// corresponding unsharded index — global record indices for the static
// families, canonically ordered records for the dynamic ones — while
// building shards in parallel and serving queries from a fixed worker
// pool. Engines are safe for concurrent use; call Close when done.
//
// Queries go through Batch or BatchInto, one QueryResult per Query: a
// one-query batch is the single-query call. An op the engine's family
// does not serve, an operand of another dimension or with a NaN or
// infinite coordinate, and any query after Close are answered with
// QueryResult.Err. The static reporting families answer with IDs
// (global record indices), the k-NN family with Neighbors.
//
// Engines over the dynamic families (NewDynamicPlanarEngine,
// NewDynamicPartitionEngine) also accept live updates: Insert routes
// the record to a shard, Delete scatter-gathers by value across the
// shards, and both are also available as OpInsert/OpDelete batch ops;
// their queries answer with live records in QueryResult.Recs (read .P2
// or .PD). Static engines return ErrImmutable.
//
// Hot shards can be replicated onto extra private devices (Replicate,
// Drop, AutoReplicate): reads spread across the copies, updates fan
// out to all of them, and always-on exact per-shard visit counts
// (ShardTraffic, HotShards) measure which shards deserve the copies —
// answers are byte-identical under any replica layout.
type Engine = engine.Engine

// NewPlanarEngine shards the §3 planar structure.
func NewPlanarEngine(points []Point2, cfg EngineConfig) *Engine { return engine.NewPlanar(points, cfg) }

// NewEngine3D shards the §4 3D structure. cfg.Window must cover the
// (a, b) coefficient range of future queries, as in NewIndex3D.
func NewEngine3D(points []Point3, cfg EngineConfig) *Engine { return engine.New3D(points, cfg) }

// NewKNNEngine shards the Theorem 4.3 k-nearest-neighbor structure.
func NewKNNEngine(points []Point2, cfg EngineConfig) *Engine { return engine.NewKNN(points, cfg) }

// NewPartitionEngine shards the §5 d-dimensional partition tree.
func NewPartitionEngine(points []PointD, cfg EngineConfig) *Engine {
	return engine.NewPartition(points, cfg)
}

// NewDynamicPlanarEngine returns an empty mutable engine over the
// dynamized §3 planar structure: live inserts and deletes of Point2
// records alongside halfplane reporting.
func NewDynamicPlanarEngine(cfg EngineConfig) *Engine { return engine.NewDynamicPlanar(cfg) }

// NewDynamicPartitionEngine returns an empty mutable engine over the
// dynamized §5 partition tree: live inserts and deletes of PointD
// records alongside halfspace reporting.
func NewDynamicPartitionEngine(cfg EngineConfig) *Engine { return engine.NewDynamicPartition(cfg) }

// AutoReplicateOptions tune one Engine.AutoReplicate call: the total
// physical-copy budget, the per-shard degree cap, and the minimum
// traffic share a shard must hold to deserve a second copy.
type AutoReplicateOptions = engine.AutoReplicateOptions

// AutoReplicateStats reports what one Engine.AutoReplicate call did:
// copies promoted and demoted, and the resulting per-shard degrees.
type AutoReplicateStats = engine.AutoReplicateStats

// HotShard is one entry of the engine's traffic ranking: a shard id and
// its exact recent visit count (halved every 2048·S visits).
type HotShard = engine.HotShard

// --- Serving front-end (DESIGN.md §13) -------------------------------

// ServerConfig tunes the serving front-end's striped batcher: the
// coalescing cap (MaxBatch — a stripe flushes what its channel holds
// the moment it runs dry, never on a timer), the exact number of
// requests each stripe's admission channel holds (QueueCap; a request
// that finds its op's stripes all full is shed with HTTP 429), stripes
// per op family, and an optional metrics registry for the server_*
// series (share the engine's registry — the name sets are disjoint).
type ServerConfig = server.Config

// Server is the batching network front-end over an Engine: requests
// submitted via Do or HTTP coalesce in per-op stripes into single
// BatchInto runs. It implements http.Handler (POST/GET /query,
// /healthz). Stop with Close. A query that reaches an engine closed
// before the server is answered ServeClosed (HTTP 503).
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
// the engine: closing the server first, then the engine, drains every
// admitted query with an answer; queries that reach a closed engine are
// answered ServeClosed.
//
// The returned handler sets no connection timeouts. Mount it on an
// http.Server with ReadHeaderTimeout, ReadTimeout and IdleTimeout set,
// as cmd/lcserve/serve.go does, or a slow client can hold a connection
// open indefinitely. WriteTimeout is left to the caller: it applies to
// every handler on that http.Server, and a streaming handler mounted
// beside this one (such as /debug/pprof/profile) would be cut off by it.
func Serve(eng *Engine, cfg ServerConfig) *Server { return server.New(eng, cfg) }
