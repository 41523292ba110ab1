// Package engine is the production front-end over the paper's indexes:
// a sharded concurrent query engine. It splits records across S shards,
// each owning a private eio.Device and one index.Index (any family —
// planar §3, 3D §4, k-NN, §5 partition tree, or the two mutable
// logarithmic-method dynamizations), builds the shards in parallel, and
// serves queries through a fixed pool of worker goroutines with a
// batched scatter-gather API. Capability is discovered by probing the
// interface, never by a family enum: an op a shard's index does not
// serve surfaces as an error wrapping index.ErrUnsupported, and update
// support is the index.Mutable assertion.
//
// Validity is preserved exactly: every index reports the precise set of
// records satisfying a query, so the union of per-shard answers —
// global record indices for the static families, canonically ordered
// records for the mutable ones — is byte-identical to the answer of one
// unsharded index over the same records, after any interleaving of
// updates and queries (the property tests verify this). Cost accounting
// is preserved too: each shard's Device counts its own I/Os, including
// all rebuild (compaction) work of the mutable families, and Stats
// aggregates them so both the summed I/O (total work, paper's bound × S
// in the worst case) and the worst single shard (critical-path I/O,
// what a parallel disk farm would wait for) remain observable.
//
// Concurrency model: a Device is single-owner (see the eio ownership
// invariant), so each shard carries a mutex and every worker locks the
// shard before touching its index. Different shards proceed in
// parallel; one shard's operations serialize, exactly like requests
// queued at one disk. Each shard has one persistent worker goroutine,
// started at construction and fed whole sub-batches through a channel:
// a batch wakes each participating shard once, the worker answers every
// query of its sub-batch under one lock acquisition, decides the shard's
// finish line and — when it decided the run's last shard — wakes the
// caller, who merges. Every run takes this one path (plan → dispatch →
// await → merge → record, query.go); deadlines and hedges are timers the
// await arms only when configured. Options.Workers caps how many shard
// workers execute simultaneously (a semaphore); at the default
// (= shards) the cap is inactive. Updates route through the same locks, from the caller's
// goroutine: an insert goes to the shard the layout's Place picks (or
// the currently-smallest shard when the layout delegates), a delete
// probes the shards in order until one holds the record. See DESIGN.md
// §5 and §7.
//
// Shard layout and planning: Options.Partitioner (internal/partition)
// decides which records share a shard, the engine maintains one
// partition.ShardSummary per shard (grown on insert, shrunk only by
// Rebalance's summary rebuild), and every query is first planned
// (internal/planner) against a snapshot of the summaries — only the
// shards whose region can intersect the query are visited, the rest are
// counted as pruned in Stats and per-query in Result. Round-robin
// layouts summarize to near-identical full-extent boxes, so they plan
// full fan-out; the locality-aware layouts are what make pruning bite.
// See DESIGN.md §6.
//
// Online resharding: Rebalance (rebalance.go) retrains the layout on
// the live records and migrates records between shards in bounded
// batches interleaved with serving, then shrinks every summary to the
// live set; Retrain and Options.PretrainSample train a layout for
// engines that build empty. Answers stay byte-identical throughout.
// See DESIGN.md §8.
//
// Hot-shard replication: each logical shard owns a replica set —
// identical copies of its index on private devices, each with its own
// persistent worker. Reads pick the least-loaded replica by in-flight
// count, writes fan out to every replica of the target shard, and
// always-on exact per-shard visit counts (traffic.go) tell
// Replicate/Drop/AutoReplicate (replicate.go) which shards to promote
// and which to demote, without changing any answer. See DESIGN.md §10.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
)

// Options configure an engine.
type Options struct {
	// Shards is the number of independent shards S (default 1).
	Shards int
	// Workers caps how many shard workers may execute simultaneously
	// (default Shards — no cap). The engine always runs one persistent
	// worker goroutine per shard; a smaller Workers value throttles
	// their concurrency, modeling fewer channels than disks.
	Workers int
	// BlockSize and CacheBlocks configure each shard's Device, exactly
	// like the root package's Config (defaults 128 and 0).
	BlockSize   int
	CacheBlocks int
	// Seed drives the per-shard index randomization; shard s uses Seed+s.
	Seed int64
	// IOLatency, when positive, is charged by each shard's Device per
	// cache miss (eio.Device.SetMissLatency), so throughput runs model
	// latency hiding across shards.
	IOLatency time.Duration
	// Window bounds 3D queries; used only by New3D (zero means the
	// chan3d default).
	Window hull3d.Window
	// Partitioner is the record-to-shard layout (default round-robin).
	// A locality-aware layout (partition.NewSFC, partition.NewKDCut)
	// gives shards disjoint regions so the planner can skip shards.
	Partitioner partition.Partitioner
	// NoPlanner disables shard pruning: every query fans out to every
	// shard, as in the pre-planner engine. Answers are identical either
	// way (that is the planner's contract); the switch exists as the
	// baseline for pruning-efficiency measurements and property tests.
	NoPlanner bool
	// PretrainSample, when non-empty, trains the Partitioner on the
	// sample (one Split) before the engine is built. Engines that build
	// empty (the mutable families) otherwise delegate placement to load
	// balancing until something trains the layout; a pre-trained layout
	// routes their very first inserts spatially, so the planner prunes
	// from the start. Static engines ignore it (their build set trains
	// the layout anyway).
	PretrainSample []geom.PointD
	// Metrics, when non-nil, receives the engine's instruments (run
	// timings, plan verdicts, per-shard visit counters, robustness
	// counters, windowed latency and fan-out) and a scrape-time
	// collector for the per-shard read rollup. Instruments are
	// registered once at construction and observed with single atomic
	// operations, so enabling metrics keeps the steady-state query path
	// allocation-free. Give each engine its
	// own registry: the per-shard counter vectors are sized to the
	// engine's shard count.
	Metrics *metrics.Registry
	// FlightRecorder configures threshold-triggered capture of
	// anomalous runs (flight.go): any run whose end-to-end latency,
	// worst-shard I/O, or total shard visits exceeds a configured
	// bound is recorded — with per-shard verdicts, replica routing and
	// I/O deltas — into the slow ring read by Engine.SlowQueries, the
	// engine's only run capture. The zero value disables it. Enabling
	// it (like Metrics) keeps the steady-state query path
	// allocation-free.
	FlightRecorder FlightRecorderConfig
	// Watchdog, when non-nil, runs a background health sampler
	// (watchdog.go) that watches runtime pressure, layout skew, traffic
	// concentration, replica balance and the SLO bounds, emitting
	// typed events read by Engine.Health. Stopped by Close.
	Watchdog *WatchdogConfig

	// Deadline, when positive, arms a per-run timer in the run's await:
	// with Strict false (the default) a run past its deadline abandons its
	// unanswered shard dispatches and returns partial results flagged
	// Result.Degraded (with the missing shards listed); with Strict true
	// the run blocks to completion and only the deadline-miss counter
	// records the overrun. Zero arms nothing — the await then only waits
	// for the last shard. Abandoned sub-batches drain in the background,
	// holding a reference on the run's scratch arena (which owns its own
	// copy of every operand) until they finish.
	Deadline time.Duration
	// Strict selects blocking (true) over degradation (false) for runs
	// that exceed Deadline.
	Strict bool
	// HedgeAfter arms hedged replica reads: the run's await starts a
	// timer at dispatch, and a shard dispatch unanswered when it fires is
	// re-dispatched to another replica of the same shard (least
	// in-flight, breaker permitting); the first answer wins —
	// byte-identical either way, since replicas are identical multisets.
	// Positive values fix the delay; HedgeAuto derives it from the
	// windowed p99 run latency (requires Metrics or another instrumented
	// mode); zero arms no timer. Shards with one replica never hedge, and
	// the hedge's shadow answer slots are allocated only when a hedge is
	// actually sent.
	HedgeAfter time.Duration
	// Breaker, when non-nil, arms a circuit breaker on every replica
	// (breaker.go): consecutive faulted sub-batches open it, routing
	// skips open copies, a cooldown probe closes it, and Engine.Repair
	// rebuilds whatever stays sick.
	Breaker *BreakerConfig
}

// HedgeAuto, as Options.HedgeAfter, derives the hedge delay from the
// live windowed p99 run latency instead of a fixed value: hedges then
// fire for roughly the slowest 1% of shard waits, tracking the workload
// as it shifts.
const HedgeAuto time.Duration = -1

func (o Options) normalized() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = o.Shards
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 128
	}
	if o.CacheBlocks < 0 {
		o.CacheBlocks = 0
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.RoundRobin{}
	}
	return o
}

// ErrImmutable is returned by Insert/Delete on an engine whose index
// family does not implement index.Mutable.
var ErrImmutable = errors.New("engine: index family does not support updates")

// ErrClosed is returned by updates, Rebalance, Retrain and replica-set
// changes on a closed engine, and is the Err of every query Result a
// closed engine answers.
var ErrClosed = errors.New("engine: closed")

// replica is one physical copy of a shard's index on a private device.
// mu serializes all access to the index; it is the only synchronization
// a copy needs and it upholds the eio single-owner invariant (one
// request in service per "disk"). Each replica runs its own persistent
// worker goroutine fed through work; inflight counts dispatched
// sub-batches not yet finished, which is what the read path's
// least-loaded pick reads, and reads counts queries served (a heat
// signal for Stats and the scrape collector).
type replica struct {
	mu       sync.Mutex
	idx      index.Index
	dev      *eio.Device
	work     chan workItem
	inflight atomic.Int64
	reads    atomic.Int64
	// brk is the replica's circuit breaker (breaker.go); the zero value
	// is closed, and it stays untouched unless Options.Breaker armed it.
	brk breakerCells
	// stopped is closed by the worker on exit, so Drop can wait for a
	// demoted replica's worker to drain.
	stopped chan struct{}
}

// workItem is one dispatched sub-batch: the run's arena, the wave that
// dispatched it (whose cells execReplica reads its jobs from and races
// on), and whether this dispatch is the hedge (second replica) for its
// shard, which decides where execReplica writes its answers.
type workItem struct {
	a     *batchArena
	wave  uint8
	hedge bool
}

// newReplica wraps an index and its device with fresh worker plumbing
// (the worker itself is started by the caller).
func newReplica(idx index.Index, dev *eio.Device) *replica {
	return &replica{
		idx:     idx,
		dev:     dev,
		work:    make(chan workItem, 4),
		stopped: make(chan struct{}),
	}
}

// shard is one logical slice of the data: a set of identical replicas,
// reps[0] being the primary (never dropped). The slice itself mutates
// only under the engine's exclusive migration lock (Replicate/Drop),
// while every reader — query runs, updates, Stats — holds the shared
// side, so a replica set observed by any operation is stable for that
// operation's whole duration.
type shard struct {
	reps []*replica
}

// lockAll/unlockAll acquire every replica's mutex in index order — the
// write fan-out's atomicity: a record lands on all copies or none as
// far as any other writer can observe, so replicas remain identical
// multisets under concurrent updates. (Readers lock one replica at a
// time and may see a write on one copy before another run sees it on a
// different copy; that nondeterminism already exists with one copy —
// a query concurrent with an insert may or may not see the record.)
func (sh *shard) lockAll() {
	for _, rep := range sh.reps {
		rep.mu.Lock()
	}
}

func (sh *shard) unlockAll() {
	for _, rep := range sh.reps {
		rep.mu.Unlock()
	}
}

// insertLocked applies r to every replica. Caller holds all replica
// locks. The primary validates; a failure on any later copy means the
// copies diverged, which the single-family invariant rules out short
// of a bug — surface it loudly rather than serve inconsistent answers.
func (sh *shard) insertLocked(r index.Record) error {
	if err := sh.reps[0].idx.(index.Mutable).Insert(r); err != nil {
		return err
	}
	for ri, rep := range sh.reps[1:] {
		if err := rep.idx.(index.Mutable).Insert(r); err != nil {
			return fmt.Errorf("engine: replica %d diverged on insert: %w", ri+1, err)
		}
	}
	return nil
}

// deleteLocked removes one copy of r from every replica. Caller holds
// all replica locks. The primary decides presence; every other copy
// must then hold the record too (identical multisets) or the set has
// diverged.
func (sh *shard) deleteLocked(r index.Record) (bool, error) {
	ok, err := sh.reps[0].idx.(index.Mutable).Delete(r)
	if err != nil || !ok {
		return ok, err
	}
	for ri, rep := range sh.reps[1:] {
		rok, rerr := rep.idx.(index.Mutable).Delete(r)
		if rerr != nil || !rok {
			return false, fmt.Errorf("engine: replica %d diverged on delete (present=%v, err=%v)", ri+1, rok, rerr)
		}
	}
	return true, nil
}

// Engine is a sharded concurrent front-end over one index family.
// Engines are safe for concurrent use; Close releases the worker pool.
type Engine struct {
	shards  []*shard
	workers int
	// counts mirrors each shard's live record count so insert routing
	// (smallest shard first) and Len need no shard locks. Updated under
	// the owning shard's mutex; reads are racy by design — a stale
	// count only skews balance, never correctness.
	counts []atomic.Int64
	// mutable and ordered: do the shards implement index.Mutable and
	// index.Ordered (probed once at build; all shards share one family)?
	mutable, ordered bool
	// dim pins the PD dimension across the whole engine on the first
	// successful insert (0 = none yet). Each shard pins its own
	// dimension too, but shards see disjoint insert streams, so without
	// this engine-level pin two shards could accept records of
	// different dimensions — which one unsharded index would reject.
	dim atomic.Int64

	// part is the record-to-shard layout; noPlan disables pruning.
	part   partition.Partitioner
	noPlan bool
	// opt retains the normalized build options for shard rebuilds
	// (device parameters, seeds) during a static Rebalance.
	opt Options
	// pd and builder are the static engines' rebuild inputs: the build
	// set as layout points, and the per-shard constructor over global
	// record ids. Nil for mutable engines, which migrate records
	// individually instead of rebuilding shards (see rebalance.go).
	pd      []geom.PointD
	builder func(si int, dev *eio.Device, ids []int) index.Index
	// mkIdx is the retained per-shard empty-index constructor; mutable
	// engines clone replicas through it (build empty, replay the
	// primary's records). Static engines clone through builder+globals
	// instead — mkIdx's closure captures construction-time globals,
	// which a static Rebalance leaves stale.
	mkIdx func(si int, dev *eio.Device) index.Index

	// traffic is the always-on per-shard visit count, halved every
	// 2048·S visits (traffic.go). Every planned shard visit Touches it —
	// pure atomics, so the hot path stays allocation-free — and
	// AutoReplicate reads it to decide which shards deserve replicas.
	traffic *shardTraffic

	// migMu serializes record migration against everything that reads
	// or writes shard contents: query runs, Insert and Delete hold it
	// shared for their whole duration, a rebalance holds it exclusively
	// for each bounded move batch (and for summary shrinks and static
	// shard swaps). That makes each batch of moves atomic with respect
	// to every query and update — a run can never observe half of a
	// move — which is what keeps answers byte-identical while records
	// are in flight. rebalMu additionally serializes whole Rebalance/
	// Retrain calls, every replica-set change and Close's closing of
	// the worker channels against each other without blocking readers.
	migMu   sync.RWMutex
	rebalMu sync.Mutex
	// globals maps shard-local record indices back to build-set indices
	// for the static families (globals[si][local] = global id, strictly
	// increasing per shard so sorted local answers stay sorted). Nil for
	// the mutable families, which answer with records, not ids.
	globals [][]int
	// sums holds one geometry summary per shard for the planner. Static
	// engines fill them at build and never change them; mutable engines
	// grow them on insert and decrement Count on delete, all under
	// sumsMu (queries snapshot under the read lock).
	sums   []partition.ShardSummary
	sumsMu sync.RWMutex
	// visited/pruned accumulate planner outcomes across queries.
	visited, pruned atomic.Int64

	// sem, when non-nil, caps concurrent worker executions at
	// Options.Workers (each replica's work channel feeds its own
	// persistent worker; dispatch picks a replica per shard per run).
	sem       chan struct{}
	workersWG sync.WaitGroup
	closeOnce sync.Once
	// closed is set first thing in Close; BatchInto checks it once, so
	// every route (worker or inline) refuses a closed engine alike;
	// Insert and Delete check it under shared migMu, and Rebalance,
	// Retrain and replica-set changes under rebalMu.
	closed atomic.Bool

	// arenas is the free list of batch scratch spaces (see batchArena).
	// A plain stack, not a sync.Pool: arenas must survive GC so the
	// steady state stays allocation-free deterministically.
	arenaMu sync.Mutex
	arenas  []*batchArena

	// statsMu serializes Stats/ResetStats snapshots so an aggregate is
	// internally consistent even while queries run on other shards.
	statsMu sync.Mutex

	// met is the pre-registered instrument set (metrics.go); nil when
	// the engine was built without Options.Metrics and without tracing,
	// so an uninstrumented engine pays one nil check per site.
	met *engineMetrics
	// wd is the health watchdog (watchdog.go); nil unless
	// Options.Watchdog was set. Stopped by Close before the workers.
	wd *watchdog

	// Robustness plumbing (breaker.go, query.go await). brkCfg is the
	// normalized breaker config (nil = breakers unarmed: nothing ever
	// feeds them evidence, so every copy stays closed). deadlineNs and
	// hedging decide which timers a run's await arms; both zero means it
	// only waits for the last shard.
	brkCfg        *BreakerConfig
	brkCooldownNs int64
	deadlineNs    int64 // Options.Deadline (0 = unbounded)
	strict        bool
	hedgeFixedNs  int64 // Options.HedgeAfter when positive
	hedging       bool
	// hedgeNs caches the auto-derived hedge delay; hedgeRefreshAt is the
	// CAS-guarded next refresh time, so the windowed-quantile read (which
	// locks the histogram) happens at most once per ~100ms, not per run.
	hedgeNs        atomic.Int64
	hedgeRefreshAt atomic.Int64
}

// getArena pops a scratch arena off the free list (or makes a fresh
// one) and takes the caller's reference on it; the batchArena.unref
// that drops the last reference returns it.
func (e *Engine) getArena() *batchArena {
	e.arenaMu.Lock()
	defer e.arenaMu.Unlock()
	if n := len(e.arenas); n > 0 {
		a := e.arenas[n-1]
		e.arenas = e.arenas[:n-1]
		a.refs.Store(1)
		return a
	}
	if m := e.met; m != nil {
		m.arenaFresh.Inc()
	}
	a := &batchArena{}
	a.refs.Store(1)
	return a
}

// groupIDs groups the build-set indices by assigned shard, keeping
// input order, so globals[si] is strictly increasing and sorted local
// answers map to sorted global answers.
func groupIDs(asg []int, s int) [][]int {
	globals := make([][]int, s)
	for i, si := range asg {
		globals[si] = append(globals[si], i)
	}
	return globals
}

// pick gathers the records at ids.
func pick[T any](xs []T, ids []int) []T {
	out := make([]T, len(ids))
	for j, g := range ids {
		out[j] = xs[g]
	}
	return out
}

// pick2 gathers the planar points at ids out of their PointD views.
func pick2(pd []geom.PointD, ids []int) []geom.Point2 {
	out := make([]geom.Point2, len(ids))
	for j, g := range ids {
		out[j] = geom.Point2{X: pd[g][0], Y: pd[g][1]}
	}
	return out
}

// newStatic builds a static engine: run the layout over the build set
// (as PointD views of the records), build each shard from its
// global-id list via builder, and retain the points and the builder so
// Rebalance can re-split and rebuild the shards later (rebalance.go).
// pd is the only retained copy of the build set — builders reconstruct
// their typed records from it, so the caller's input slice is not
// pinned by the engine.
func newStatic(opt Options, pd []geom.PointD, builder func(si int, dev *eio.Device, ids []int) index.Index) *Engine {
	asg := opt.Partitioner.Split(pd, opt.Shards)
	sums := partition.Summarize(pd, asg, opt.Shards)
	globals := groupIDs(asg, opt.Shards)
	e := newEngine(opt, func(si int, dev *eio.Device) index.Index {
		return builder(si, dev, globals[si])
	})
	e.globals, e.sums = globals, sums
	e.pd, e.builder = pd, builder
	return e.start()
}

// newEngine builds the scaffold and runs build(si, dev) once per shard,
// in parallel: each builder goroutine is the sole owner of its shard's
// device during construction, so the eio guard stays quiet. Nothing
// concurrent outlives the call — the constructors finish assigning the
// engine and then start it.
func newEngine(opt Options, build func(si int, dev *eio.Device) index.Index) *Engine {
	opt = opt.normalized()
	// The sample was consumed by pretrain() before construction; the
	// retained opt only feeds static shard rebuilds, so don't pin the
	// caller's (possibly large) sample for the engine's lifetime.
	opt.PretrainSample = nil
	e := &Engine{
		shards:  make([]*shard, opt.Shards),
		counts:  make([]atomic.Int64, opt.Shards),
		workers: opt.Workers,
		part:    opt.Partitioner,
		noPlan:  opt.NoPlanner,
		opt:     opt,
		mkIdx:   build,
		sums:    make([]partition.ShardSummary, opt.Shards),
		traffic: newShardTraffic(opt.Shards),
	}
	if opt.Workers < opt.Shards {
		e.sem = make(chan struct{}, opt.Workers)
	}
	var wg sync.WaitGroup
	for si := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := eio.NewDevice(opt.BlockSize, opt.CacheBlocks)
			dev.SetMissLatency(opt.IOLatency)
			rep := newReplica(build(si, dev), dev)
			e.shards[si] = &shard{reps: []*replica{rep}}
			e.counts[si].Store(int64(rep.idx.Len()))
		}()
	}
	wg.Wait()
	_, e.mutable = e.shards[0].reps[0].idx.(index.Mutable)
	_, e.ordered = e.shards[0].reps[0].idx.(index.Ordered)
	// Instruments are registered before the workers start, so every
	// observation site sees a fully built met (or nil) for the engine's
	// whole lifetime. The registry pointer is not retained in e.opt —
	// met owns it.
	e.met = newEngineMetrics(opt, opt.Shards)
	e.opt.Metrics = nil
	if e.met != nil {
		e.met.reg.RegisterCollector(e.collectShardIO)
	}
	if opt.Breaker != nil {
		cfg := opt.Breaker.normalized()
		e.brkCfg = &cfg
		e.brkCooldownNs = int64(cfg.Cooldown)
	}
	if opt.Deadline > 0 {
		e.deadlineNs = int64(opt.Deadline)
		e.strict = opt.Strict
	}
	switch {
	case opt.HedgeAfter > 0:
		e.hedgeFixedNs = int64(opt.HedgeAfter)
		e.hedging = true
	case opt.HedgeAfter == HedgeAuto:
		// Auto-hedging needs the windowed latency view; without any
		// instrumentation there is no p99 to derive the delay from, and
		// currentHedgeNs stays 0 (no hedges fire) until one exists.
		e.hedging = e.met != nil
	}
	return e
}

// start launches the replica workers and the watchdog. It is every
// constructor's last step, after the engine is fully assigned: the
// watchdog's first tick reads the summaries and the workers translate
// through globals, so neither may exist while a constructor still writes.
func (e *Engine) start() *Engine {
	for si, sh := range e.shards {
		for _, rep := range sh.reps {
			e.workersWG.Add(1)
			go e.replicaWorker(si, rep)
		}
	}
	if e.opt.Watchdog != nil {
		e.wd = startWatchdog(e, *e.opt.Watchdog)
	}
	return e
}

// replicaWorker is one replica's persistent worker loop: it executes
// its shard's sub-batch of each arriving arena against its own copy,
// honoring the concurrency cap, and drops the dispatch's arena
// reference. Started at construction (and for every later copy of a
// shard); exits when Close — or Drop/Repair, for a detached replica —
// closes the channel.
func (e *Engine) replicaWorker(si int, rep *replica) {
	defer e.workersWG.Done()
	defer close(rep.stopped)
	for w := range rep.work {
		e.acquireWorker()
		won := e.execReplica(si, rep, w)
		e.releaseWorker()
		// Dropping the reference is the worker's last use of the arena's
		// scratch — once it drops, the arena may already be serving
		// another run — and a worker that won its shard drops it before
		// it reports the shard decided, not after: a waiter woken first
		// could finish its batch and start the next before the worker
		// let go, find the free list empty and mint a second arena. The
		// report itself (left, and the token when it closes the run) is
		// safe after the unref because the run's waiter holds its own
		// reference until every winner has reported and the token is
		// taken (the channel is empty by then, so the send never blocks).
		rep.inflight.Add(-1)
		w.a.unref(e)
		if won && w.a.left.Add(-1) == 0 {
			w.a.allDone <- struct{}{}
		}
	}
}

// acquireWorker takes one of the Options.Workers execution slots around
// a shard visit (a no-op when Workers >= Shards: nothing to cap);
// releaseWorker returns it.
func (e *Engine) acquireWorker() {
	if e.sem == nil {
		return
	}
	e.sem <- struct{}{}
}

func (e *Engine) releaseWorker() {
	if e.sem != nil {
		<-e.sem
	}
}

// pickReplica returns shard si's least-loaded routable replica and its
// index in the replica set (what the flight recorder records as the
// routing decision). Callers hold migMu shared, so the replica set is
// stable.
func (e *Engine) pickReplica(si int) (*replica, int) {
	return e.pickRoutable(e.shards[si].reps, -1)
}

// pickRoutable is the engine's one replica pick: least in-flight among
// the copies whose breaker is not open (ties to the lowest index),
// skipping index exclude (a hedge never re-picks the primary dispatch's
// copy; -1 excludes nothing). An unarmed breaker's zero value is closed,
// so without Options.Breaker this is the plain least-loaded loop plus
// one state load per copy. The in-flight counts are racy by design — a
// stale read only skews balance, never correctness, because every
// replica holds the same records.
//
// The healthy pass reads no clock. Only when every candidate is open —
// the whole shard is sick mid-cooldown — does a second pass take one
// time.Now: any copy past its cooldown is CAS'd open→half-open and
// routed as the probe; failing that, the *stalest* open breaker (oldest
// openedAt, the copy whose evidence is most out of date) is forced
// half-open and routed. A shard therefore always keeps at least one
// routable copy — answering slowly beats not answering — and the only
// nil return is an exclude that covers the entire set, which the hedge
// path treats as "nothing to hedge to".
func (e *Engine) pickRoutable(reps []*replica, exclude int) (*replica, int) {
	var best *replica
	bi := -1
	var min int64
	for ri, rep := range reps {
		if ri == exclude || BreakerState(rep.brk.state.Load()) == BreakerOpen {
			continue
		}
		if n := rep.inflight.Load(); best == nil || n < min {
			best, bi, min = rep, ri, n
		}
	}
	if best != nil {
		return best, bi
	}
	now := time.Now().UnixNano()
	var stalest *replica
	sti, stAt := -1, int64(0)
	for ri, rep := range reps {
		if ri == exclude {
			continue
		}
		at := rep.brk.openedAt.Load()
		if now-at >= e.brkCooldownNs &&
			rep.brk.state.CompareAndSwap(int32(BreakerOpen), int32(BreakerHalfOpen)) {
			return rep, ri
		}
		if stalest == nil || at < stAt {
			stalest, sti, stAt = rep, ri, at
		}
	}
	if stalest == nil {
		return nil, -1 // exclude covered the whole set
	}
	stalest.brk.forceProbe()
	return stalest, sti
}

// pickReplicaNot picks a hedge target for shard si: the least-loaded
// routable replica other than exclude (the copy the primary dispatch
// already went to). Returns nil for an unreplicated shard — one copy
// has nothing to hedge to — or when breakers rule everything else out.
func (e *Engine) pickReplicaNot(si, exclude int) (*replica, int) {
	reps := e.shards[si].reps
	if len(reps) < 2 {
		return nil, -1
	}
	return e.pickRoutable(reps, exclude)
}

// NewPlanar builds a sharded engine over the §3 planar structure.
func NewPlanar(points []geom.Point2, opt Options) *Engine {
	opt = opt.normalized()
	pd := make([]geom.PointD, len(points))
	for i, p := range points {
		pd[i] = geom.PointD{p.X, p.Y}
	}
	return newStatic(opt, pd, func(si int, dev *eio.Device, ids []int) index.Index {
		return index.NewPlanar(dev, pick2(pd, ids), opt.Seed+int64(si))
	})
}

// New3D builds a sharded engine over the §4 3D structure. opt.Window
// must cover the (a, b) coefficient range of future queries.
func New3D(points []geom.Point3, opt Options) *Engine {
	opt = opt.normalized()
	pd := make([]geom.PointD, len(points))
	for i, p := range points {
		pd[i] = geom.PointD{p.X, p.Y, p.Z}
	}
	return newStatic(opt, pd, func(si int, dev *eio.Device, ids []int) index.Index {
		sub := make([]geom.Point3, len(ids))
		for j, g := range ids {
			sub[j] = geom.Point3{X: pd[g][0], Y: pd[g][1], Z: pd[g][2]}
		}
		return index.NewSpatial3(dev, sub, opt.Window, opt.Seed+int64(si))
	})
}

// NewKNN builds a sharded engine over the Theorem 4.3 k-NN structure.
func NewKNN(points []geom.Point2, opt Options) *Engine {
	opt = opt.normalized()
	pd := make([]geom.PointD, len(points))
	for i, p := range points {
		pd[i] = geom.PointD{p.X, p.Y}
	}
	return newStatic(opt, pd, func(si int, dev *eio.Device, ids []int) index.Index {
		return index.NewKNN(dev, pick2(pd, ids), opt.Seed+int64(si))
	})
}

// NewPartition builds a sharded engine over the §5 partition tree.
func NewPartition(points []geom.PointD, opt Options) *Engine {
	opt = opt.normalized()
	// Deep-copy the build set like the other constructors do: the
	// retained pd feeds later Rebalance rebuilds, so it must not alias
	// caller memory.
	pd := make([]geom.PointD, len(points))
	for i, p := range points {
		pd[i] = append(geom.PointD(nil), p...)
	}
	return newStatic(opt, pd, func(si int, dev *eio.Device, ids []int) index.Index {
		return index.NewPartition(dev, pick(pd, ids))
	})
}

// pretrain trains the layout on the configured sample before the
// engine goes concurrent, so a mutable engine's first inserts route
// spatially instead of delegating to load balancing.
func pretrain(opt Options) {
	if len(opt.PretrainSample) > 0 {
		opt.Partitioner.Split(opt.PretrainSample, opt.Shards)
	}
}

// NewDynamicPlanar builds an empty mutable engine over the dynamized
// §3 planar structure: Insert/Delete route through the shards, queries
// report records in canonical order.
func NewDynamicPlanar(opt Options) *Engine {
	opt = opt.normalized()
	pretrain(opt)
	return newEngine(opt, func(si int, dev *eio.Device) index.Index {
		return index.NewDynamicPlanar(dev, opt.Seed+int64(si))
	}).start()
}

// NewDynamicPartition builds an empty mutable engine over the
// dynamized §5 partition tree.
func NewDynamicPartition(opt Options) *Engine {
	opt = opt.normalized()
	pretrain(opt)
	return newEngine(opt, func(si int, dev *eio.Device) index.Index {
		return index.NewDynamicPartition(dev)
	}).start()
}

// Mutable reports whether the engine's index family supports
// Insert/Delete.
func (e *Engine) Mutable() bool { return e.mutable }

// recPoint views a record as the d-dimensional point the layouts and
// summaries work on.
func recPoint(r index.Record) geom.PointD {
	if r.PD != nil {
		return r.PD
	}
	return geom.PointD{r.P2.X, r.P2.Y}
}

// Insert adds a record, routed to the shard the layout's Place picks —
// or, when the layout delegates (round-robin always does; the
// locality-aware layouts do until trained by a build set), to the
// currently-smallest shard by live record count so shards stay
// balanced under any insert stream. It returns ErrImmutable when the
// engine's family is static, and the index's validation error for a
// record of the wrong shape.
func (e *Engine) Insert(r index.Record) error {
	if !e.mutable {
		return ErrImmutable
	}
	// Shared against migration: an insert lands entirely before or
	// entirely after any rebalance move batch (rebalance.go).
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	// Pin the PD dimension before inserting so two concurrent first
	// inserts of different dimensions cannot both land (on different
	// shards); a failed shard insert releases a pin it took, so a
	// rejected record — e.g. a PD record offered to the planar family —
	// never leaves a stale pin behind.
	pinned := false
	if r.PD != nil {
		if len(r.PD) == 0 {
			// Rejected before pinning: a zero dimension would make the
			// CAS below a no-op "success" whose failure rollback could
			// erase a concurrently-taken valid pin.
			return fmt.Errorf("engine: empty PD record")
		}
		d := int64(len(r.PD))
		if e.dim.CompareAndSwap(0, d) {
			pinned = true
		} else if e.dim.Load() != d {
			return fmt.Errorf("engine: index is %d-dimensional, got a %d-dimensional record", e.dim.Load(), d)
		}
	}
	pd := recPoint(r)
	si := e.part.Place(pd, len(e.shards))
	if si < 0 || si >= len(e.shards) {
		si = 0
		for i := 1; i < len(e.counts); i++ {
			if e.counts[i].Load() < e.counts[si].Load() {
				si = i
			}
		}
	}
	sh := e.shards[si]
	sh.lockAll()
	err := sh.insertLocked(r)
	if err == nil {
		e.counts[si].Add(1)
	}
	sh.unlockAll()
	if err != nil {
		if pinned {
			e.dim.Store(0)
		}
		return err
	}
	// Grow the shard's summary only after the index accepted the
	// record: a rejected record must not distort the region, and a
	// query planned between the shard insert and this update can at
	// worst miss a record whose Insert has not yet returned — the
	// summary update is the insert's linearization point for planning.
	e.sumsMu.Lock()
	e.sums[si].Add(pd)
	e.sumsMu.Unlock()
	return nil
}

// Delete removes one record equal to r, reporting whether one was
// present. Under a trained layout it probes the record's home shard
// first — the one the layout's Place routes r to, where Insert put it
// unless a later Rebalance or retraining moved it or its home — and
// then sweeps the other shards in index order; under an untrained or
// round-robin layout (Place < 0) it sweeps every shard in index order.
// It locks one shard at a time and stops at the first shard that held
// a copy, so exactly one copy is removed even when several shards hold
// equal records. It returns ErrImmutable when the engine's family is
// static, and the index's validation error for a record of the wrong
// shape.
func (e *Engine) Delete(r index.Record) (bool, error) {
	if !e.mutable {
		return false, ErrImmutable
	}
	// Shared against migration, like Insert: the shard probe can never
	// race a record mid-move (absent from its source, not yet at its
	// destination) and miss it, nor a layout swap mid-Place.
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	if e.closed.Load() {
		return false, ErrClosed
	}
	home := e.part.Place(recPoint(r), len(e.shards))
	if home >= 0 && home < len(e.shards) {
		if ok, err := e.deleteFrom(home, r); ok || err != nil {
			return ok, err
		}
	}
	for si := range e.shards {
		if si == home {
			continue
		}
		if ok, err := e.deleteFrom(si, r); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// deleteFrom removes one record equal to r from shard si, if it holds
// one, and counts it down. Caller holds migMu shared.
func (e *Engine) deleteFrom(si int, r index.Record) (bool, error) {
	sh := e.shards[si]
	sh.lockAll()
	ok, err := sh.deleteLocked(r)
	if ok {
		e.counts[si].Add(-1)
	}
	sh.unlockAll()
	if err != nil {
		// All shards share one family: a shape error from one would
		// come from every other too.
		return false, err
	}
	if ok {
		// Count down but keep the region: a too-large box only costs an
		// unpruned shard. Count 0 prunes exactly.
		e.sumsMu.Lock()
		e.sums[si].Count--
		e.sumsMu.Unlock()
	}
	return ok, nil
}

// Len returns the total number of live records across shards.
func (e *Engine) Len() int {
	var n int64
	for i := range e.counts {
		n += e.counts[i].Load()
	}
	return int(n)
}

// NumShards returns S.
func (e *Engine) NumShards() int { return len(e.shards) }

// NumWorkers returns the worker concurrency cap (Options.Workers).
func (e *Engine) NumWorkers() int { return e.workers }

// Close stops the watchdog (synchronously — its final tick completes
// before teardown proceeds) and every replica worker. After Close every
// query BatchInto runs answers with Err = ErrClosed, whichever route the
// run would have taken. Close is idempotent and waits for in-flight
// sub-batches — abandoned stragglers included — to finish; the workers
// are the engine's only goroutines besides the watchdog. Replica-set
// changes (Replicate, Drop, AutoReplicate, Repair) return ErrClosed once
// Close has begun: the channels close under rebalMu, so a change either
// lands before them — its workers are closed with the rest — or sees
// the flag and starts and closes nothing. Insert, Delete, Rebalance,
// Retrain, InjectFaults, FailReplica and HealReplica return ErrClosed
// too and change nothing; the read-only methods keep answering, and
// ResetStats still zeroes the counters. Query runs and updates check
// the flag under shared migMu, so once Close has taken migMu
// exclusively no run or update that passed the check is still running,
// and none can reach a worker channel Close is about to close.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.migMu.Lock()
	e.migMu.Unlock()
	e.closeOnce.Do(func() {
		if e.wd != nil {
			close(e.wd.stop)
			<-e.wd.done
		}
		e.rebalMu.Lock()
		for _, sh := range e.shards {
			for _, rep := range sh.reps {
				close(rep.work)
			}
		}
		e.rebalMu.Unlock()
		e.workersWG.Wait()
	})
}
