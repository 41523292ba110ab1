// Command lcserve is a load generator and server for the sharded
// concurrent query engine (DESIGN.md §5). It builds an engine over
// synthetic data, profiles per-query I/O cost sequentially, then drives
// batched traffic through the worker pool and reports throughput plus
// I/O histograms: the distribution of per-query block transfers and
// the balance of I/O across shards (summed vs worst-shard cost). With
// -listen the same process also serves the engine over HTTP; with
// -target it is instead the client of another lcserve's -listen port.
//
// The dynamic kinds (dynplanar, dynpartition) build by streaming
// OpInsert batches through the mutable engine and accept a read/write
// mix: -mix F makes fraction F of the load-phase ops updates (half
// inserts, half deletes of live records), the rest queries.
//
// The shard layout is selectable: -layout rr deals records round-robin
// (every query fans out to every shard), -layout sfc or -layout kd
// places spatially close records together so the query planner can
// skip shards whose bounding region misses the query; the report then
// shows per-query shards-visited/pruned columns alongside the I/O
// histograms.
//
// Usage:
//
//	lcserve [-kind planar|3d|knn|partition|dynplanar|dynpartition]
//	        [-layout rr|sfc|kd] [-rebalance] [-replicas SPEC]
//	        [-n N] [-shards S] [-workers W] [-queries Q] [-profile P]
//	        [-sel F] [-mix F] [-k K] [-dim D] [-lat DUR] [-seed N]
//	        [-metrics-dump FILE] [-trace N] [-promcheck FILE]
//	        [-slow-ns N] [-explain] [-slo SPEC] [-watchdog DUR]
//	        [-faults SPEC] [-hedge DUR|auto] [-deadline DUR] [-strict]
//	        [-breaker T:DUR]
//	        [-listen HOST:PORT [-max-batch N] [-queue N] [-grace DUR]]
//	        [-target URL [-clients N]]
//
// The engine always runs instrumented: run-phase latency histograms
// (p50/p95/p99 per phase in the report), windowed (time-resolved)
// latency and fan-out views, per-shard visit counters (the shard-heat
// line), and 1-in-N query-run traces (-trace). -metrics-dump writes
// the final JSON snapshot to a file (the CI artifact), and -promcheck
// FILE validates a saved Prometheus payload and exits — the smoke
// test's stand-in for promtool.
//
// -slow-ns N arms the flight recorder: every query run slower than N
// nanoseconds is captured with full per-shard evidence (plan verdicts,
// replica routing, I/O deltas), read back from /debug/slow and
// summarized in the report. -explain prints the planner's per-shard
// verdict for one sample query (the /debug/explain answer). -slo
// "p99=5ms,visited=4" declares SLO objectives over the windowed views;
// -watchdog 1s runs the background health sampler that evaluates them
// (plus skew, hot shards, GC stalls and replica imbalance) and feeds
// /debug/health.
//
// With -replicas SPEC (comma-separated shard:degree pairs, e.g.
// "5:3,0:2") the engine clones the named shards onto extra private
// devices right after the build (DESIGN.md §10), and the report ends
// with a replica-hit heat line showing how reads spread across each
// replicated shard's copies.
//
// The robustness stack (DESIGN.md §12) is armable from the command
// line: -faults installs deterministic fault-injection plans on named
// replica devices (comma-separated entries, "SHARD:REPLICA:fail" for a
// hard fail or "SHARD:REPLICA:PROB:STALL" for a seeded brownout, e.g.
// "0:1:0.5:2ms"), -hedge arms hedged replica reads (a fixed delay, or
// "auto" to track the windowed p99), -deadline bounds every run's
// wall-clock — by default a late run degrades (partial answer, the
// abandoned shards named), -strict makes it complete instead — and
// -breaker T:DUR arms the per-replica circuit breaker (trip after T
// consecutive faulted visits, half-open probe after DUR). The report
// then ends with a robustness line (hedges/wins, deadline misses,
// degraded runs, breaker trips) and the final per-replica breaker
// states.
//
// With -rebalance (dynamic kinds) one online rebalance fires in the
// background from the load phase's midpoint: the layout retrains on
// the live records and records migrate between shards in small batches
// interleaved with the serving traffic; the report then shows moves
// and the skew/spread metrics before and after (DESIGN.md §8).
//
// With -listen HOST:PORT the listener binds before the engine builds
// (a taken port fails fast, exit 1). Right after the build one
// http.Server on it mounts the batching front-end (DESIGN.md §13) at
// /query (POST JSON or GET parameters) and /healthz, the registry at
// /metrics (Prometheus text; JSON at /metrics.json, pprof under
// /debug/pprof/) and the engine introspection at /debug/slow,
// /debug/health and /debug/explain. A stripe flushes whatever its ring
// holds, up to -max-batch, the moment it runs dry; -queue bounds
// admission per stripe (full rings shed with 429). The profile and
// load phases run as usual (-queries 0 skips them), and after the
// report the process serves until SIGINT/SIGTERM. Every run ends in
// the same drain — HTTP server, then the front-end (every admitted
// request answered), then the engine — bounded by -grace; a blown
// drain exits non-zero. With -target the process is the matching
// client: it regenerates the server's operand pool from
// -kind/-n/-sel/-seed (pair them with the server's flags) and drives
// -queries keep-alive requests from -clients workers.
//
// Examples — 8 shards, 8 workers, a 100µs simulated disk; a mutable
// engine under a 30% write mix; a kd-cut layout whose planner prunes
// shards on selective queries; then a server and the client driving
// it:
//
//	lcserve -kind planar -n 200000 -shards 8 -workers 8 -lat 100us
//	lcserve -kind dynplanar -n 50000 -shards 8 -mix 0.3
//	lcserve -kind planar -n 100000 -shards 8 -layout kd -sel 0.01
//	lcserve -kind planar -n 100000 -shards 8 -layout kd -queries 0 -listen :8080
//	lcserve -target http://localhost:8080 -kind planar -n 100000 \
//	        -queries 20000 -clients 64
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"linconstraint"
	"linconstraint/internal/geom"
	"linconstraint/internal/metrics"
	"linconstraint/internal/workload"
)

// loadBatch is how many ops one engine batch carries, in the load
// phase and in the dynamic kinds' build feed.
const loadBatch = 32

func main() {
	// A signal cancels ctx: the load loop stops at the next batch, a
	// -listen process stops serving, and the drain races -grace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// fail reports an error on stderr and returns the exit code.
func fail(code int, format string, a ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	return code
}

// run is lcserve with its arguments, report writer and cancellation
// explicit: it returns the process exit code.
func run(ctx context.Context, args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("lcserve", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "planar", "index family: planar, 3d, knn, partition, dynplanar, dynpartition")
		layoutF = fs.String("layout", "rr", "shard layout: rr (round-robin), sfc (space-filling curve), kd (kd-cut)")
		n       = fs.Int("n", 100000, "number of records")
		shards  = fs.Int("shards", 8, "shard count")
		workers = fs.Int("workers", 8, "query worker pool size")
		queries = fs.Int("queries", 1024, "total ops in the load phase (0 skips the profile and load phases)")
		sel     = fs.Float64("sel", 0.05, "target query selectivity")
		mix     = fs.Float64("mix", 0, "fraction of load-phase ops that are updates (dynamic kinds)")
		k       = fs.Int("k", 16, "k for -kind knn")
		dim     = fs.Int("dim", 3, "dimension for -kind partition/dynpartition")
		lat     = fs.Duration("lat", 0, "simulated disk latency per block miss")
		seed    = fs.Int64("seed", 1, "RNG seed")
		profile = fs.Int("profile", 128, "sequential queries for the per-query I/O histogram")
		rebal   = fs.Bool("rebalance", false, "run one online rebalance (retrain + migrate) in the background from the load phase's midpoint (dynamic kinds)")

		replicasF = fs.String("replicas", "", "comma-separated shard:degree pairs to replicate after the build, e.g. 5:3,0:2")

		metricsDump = fs.String("metrics-dump", "", "write the final JSON metrics snapshot to this file")
		traceEvery  = fs.Int("trace", 32, "sample every Nth query run into the engine's trace ring (0 disables tracing)")
		promcheck   = fs.String("promcheck", "", "validate a saved Prometheus text payload and exit (no engine run)")

		faultsF  = fs.String("faults", "", "fault-injection plans, comma-separated: SHARD:REPLICA:fail (hard fail) or SHARD:REPLICA:PROB:STALL (seeded brownout), e.g. 0:1:0.5:2ms")
		hedgeF   = fs.String("hedge", "", "hedged replica reads: a delay (e.g. 500us), or auto to track the windowed p99 ('' disables)")
		deadline = fs.Duration("deadline", 0, "per-run wall-clock deadline (0 disables); late runs degrade unless -strict")
		strict   = fs.Bool("strict", false, "with -deadline, let late runs complete instead of returning partial answers")
		breakerF = fs.String("breaker", "", "per-replica circuit breaker as T:DUR (trip threshold, open cooldown), e.g. 3:100ms")
		slowNs   = fs.Int64("slow-ns", 0, "flight recorder: capture any query run slower than this many nanoseconds, with full per-shard evidence (0 disables)")
		explainF = fs.Bool("explain", false, "print the planner's per-shard verdict for one sample query after the profile phase")
		sloSpec  = fs.String("slo", "", "SLO objectives as comma-separated key=value pairs: p99=DUR (windowed p99 run latency) and/or visited=F (windowed mean shards visited); breaches burn engine_slo_breaches_total")
		watchdog = fs.Duration("watchdog", 0, "health watchdog tick interval (0 disables; 1s implied when -slo is set)")

		listen   = fs.String("listen", "", "serve /query, /healthz, /metrics and /debug/* on this host:port from the end of the build until SIGINT/SIGTERM")
		maxBatch = fs.Int("max-batch", 64, "-listen: most queued requests one flush coalesces into a single engine run (1 = passthrough)")
		queueCap = fs.Int("queue", 256, "-listen: per-stripe admission ring capacity (full rings shed with 429)")
		grace    = fs.Duration("grace", 10*time.Second, "drain budget at exit (HTTP server, front-end, engine): exit non-zero if draining takes longer")
		target   = fs.String("target", "", "client mode: fire -queries HTTP requests at this base URL (e.g. http://host:port) instead of building an engine; pair with the server's -kind/-n/-sel/-seed so operands match its dataset")
		clients  = fs.Int("clients", 16, "client mode: concurrent HTTP clients")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Standalone validator mode: the CI smoke saves a /metrics scrape to
	// a file and feeds it back through -promcheck instead of depending
	// on promtool being installed.
	if *promcheck != "" {
		payload, err := os.ReadFile(*promcheck)
		if err != nil {
			return fail(1, "%v", err)
		}
		if err := metrics.CheckProm(payload); err != nil {
			return fail(1, "promcheck %s: %v", *promcheck, err)
		}
		fmt.Fprintf(stdout, "promcheck %s: OK\n", *promcheck)
		return 0
	}

	// Client mode needs no engine at all: generate the same operand
	// distribution the server built over and fire it at the URL.
	if *target != "" {
		return runClient(ctx, stdout, *target, *kind, *n, *clients, *queries, *k, *dim, *sel, *seed)
	}

	if (*mix > 0 || *rebal) && *kind != "dynplanar" && *kind != "dynpartition" {
		return fail(2, "-mix and -rebalance require a dynamic kind (dynplanar, dynpartition)")
	}

	// Every spec parses before the listener binds and the engine builds,
	// so a typo costs nothing.
	reg := linconstraint.NewMetrics()
	cfg := linconstraint.EngineConfig{
		Shards: *shards, Workers: *workers,
		Seed: *seed, IOLatency: *lat,
		Metrics:    reg,
		TraceEvery: *traceEvery,
	}
	if *slowNs > 0 {
		cfg.FlightRecorder = linconstraint.FlightRecorderConfig{TotalNs: *slowNs}
	}
	sloP99, sloVisited, err := parseSLO(*sloSpec)
	if err != nil {
		return fail(2, "bad -slo %q: %v", *sloSpec, err)
	}
	if *watchdog > 0 || *sloSpec != "" {
		// Bounds an operator would want by default: skew past the usual
		// rebalance trigger, one shard holding 3/4 of the traffic, one
		// replica serving double its fair share.
		cfg.Watchdog = &linconstraint.WatchdogConfig{
			Interval: *watchdog,
			MaxSkew:  1.5, HotShardShare: 0.75, ReplicaImbalance: 2,
			LatencyP99Ns:      int64(sloP99),
			MeanShardsVisited: sloVisited,
		}
	}
	cfg.Deadline, cfg.Strict = *deadline, *strict
	switch *hedgeF {
	case "":
	case "auto":
		cfg.HedgeAfter = linconstraint.HedgeAuto
	default:
		d, err := time.ParseDuration(*hedgeF)
		if err != nil || d <= 0 {
			return fail(2, "bad -hedge %q (want a positive duration or auto)", *hedgeF)
		}
		cfg.HedgeAfter = d
	}
	if cfg.Breaker, err = parseBreaker(*breakerF); err != nil {
		return fail(2, "bad -breaker %q: %v", *breakerF, err)
	}
	faults, err := parseFaults(*faultsF, *seed)
	if err != nil {
		return fail(2, "bad -faults %q: %v", *faultsF, err)
	}
	replicas, err := parseReplicas(*replicasF)
	if err != nil {
		return fail(2, "bad -replicas %q: %v", *replicasF, err)
	}
	switch *layoutF {
	case "rr":
		cfg.Partitioner = linconstraint.RoundRobinLayout()
	case "sfc":
		cfg.Partitioner = linconstraint.SFCLayout()
	case "kd":
		cfg.Partitioner = linconstraint.KDCutLayout()
	default:
		return fail(2, "unknown -layout %q (want rr, sfc or kd)", *layoutF)
	}

	// Bind before the (possibly long) engine build, so a taken port
	// fails the run immediately instead of after minutes of building.
	var ln net.Listener
	if *listen != "" {
		if ln, err = net.Listen("tcp", *listen); err != nil {
			return fail(1, "-listen: %v", err)
		}
		defer ln.Close() // a failed build must not hold the port
	}

	rng := rand.New(rand.NewSource(*seed))
	var (
		eng    *linconstraint.Engine
		gen    func() linconstraint.Query
		genUpd func() linconstraint.Query // nil for the static kinds
		what   string
	)
	// feed streams records into a mutable engine as OpInsert batches.
	feed := func(recs []linconstraint.Record) error {
		for done := 0; done < len(recs); done += loadBatch {
			qs := make([]linconstraint.Query, 0, loadBatch)
			for _, r := range recs[done:min(done+loadBatch, len(recs))] {
				qs = append(qs, linconstraint.Query{Op: linconstraint.OpInsert, Rec: r})
			}
			for _, r := range eng.Batch(qs) {
				if r.Err != nil {
					return r.Err
				}
			}
		}
		return nil
	}
	start := time.Now()
	switch *kind {
	case "planar":
		pts := workload.Uniform2(rng, *n)
		eng = linconstraint.NewPlanarEngine(pts, cfg)
		gen = func() linconstraint.Query {
			h := workload.HalfplaneWithSelectivity(rng, pts, *sel)
			return linconstraint.Query{Op: linconstraint.OpHalfplane, A: h.A, B: h.B}
		}
		what = "halfplane reports"
	case "3d":
		pts := workload.Cube3(rng, *n)
		cfg.Window = linconstraint.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4}
		eng = linconstraint.NewEngine3D(pts, cfg)
		gen = func() linconstraint.Query {
			p := workload.Plane3WithSelectivity(rng, pts, *sel)
			return linconstraint.Query{Op: linconstraint.OpHalfspace3, A: p.A, B: p.B, C: p.C}
		}
		what = "3D halfspace reports"
	case "knn":
		pts := workload.Uniform2(rng, *n)
		eng = linconstraint.NewKNNEngine(pts, cfg)
		gen = func() linconstraint.Query {
			q := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			return linconstraint.Query{Op: linconstraint.OpKNN, K: *k, Pt: q}
		}
		what = fmt.Sprintf("%d-NN queries", *k)
	case "partition":
		pts := workload.CubeD(rng, *n, *dim)
		eng = linconstraint.NewPartitionEngine(pts, cfg)
		gen = func() linconstraint.Query {
			h := workload.HalfspaceWithSelectivityD(rng, pts, *sel)
			return linconstraint.Query{Op: linconstraint.OpHalfspaceD, Coef: h.H.Coef}
		}
		what = fmt.Sprintf("%dD halfspace reports", *dim)
	case "dynplanar":
		pts := workload.Uniform2(rng, *n)
		eng = linconstraint.NewDynamicPlanarEngine(cfg)
		recs := make([]linconstraint.Record, len(pts))
		for i, p := range pts {
			recs[i] = linconstraint.Rec2(p)
		}
		err = feed(recs)
		gen = func() linconstraint.Query {
			h := workload.HalfplaneWithSelectivity(rng, pts, *sel)
			return linconstraint.Query{Op: linconstraint.OpHalfplane, A: h.A, B: h.B}
		}
		genUpd = updGen(rng, recs, func() linconstraint.Record {
			return linconstraint.Rec2(geom.Point2{X: rng.Float64(), Y: rng.Float64()})
		})
		what = "live halfplane reports"
	case "dynpartition":
		pts := workload.CubeD(rng, *n, *dim)
		eng = linconstraint.NewDynamicPartitionEngine(cfg)
		recs := make([]linconstraint.Record, len(pts))
		for i, p := range pts {
			recs[i] = linconstraint.RecD(p)
		}
		err = feed(recs)
		gen = func() linconstraint.Query {
			h := workload.HalfspaceWithSelectivityD(rng, pts, *sel)
			return linconstraint.Query{Op: linconstraint.OpHalfspaceD, Coef: h.H.Coef}
		}
		genUpd = updGen(rng, recs, func() linconstraint.Record {
			p := make(geom.PointD, *dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			return linconstraint.RecD(p)
		})
		what = fmt.Sprintf("live %dD halfspace reports", *dim)
	default:
		return fail(2, "unknown -kind %q", *kind)
	}

	buildTime := time.Since(start)

	// From here on every return goes through the one drain: HTTP server,
	// front-end, engine, raced against -grace.
	var sv *service
	defer func() { code = sv.drain(eng, *grace, code) }()
	if err != nil { // a dynamic kind's insert feed failed
		return fail(1, "%v", err)
	}
	if ln != nil {
		sv = serve(ln, eng, reg, linconstraint.ServerConfig{
			MaxBatch: *maxBatch, QueueCap: *queueCap, Metrics: reg,
		})
		fmt.Fprintf(stdout, "serving on http://%s (/query POST JSON or GET params, /healthz, /metrics, /debug/*)\n", ln.Addr())
	}
	st := eng.Stats()
	fmt.Fprintf(stdout, "built %d records on %d shards (%d workers) in %v; %d blocks total, worst shard %d I/Os\n",
		eng.Len(), eng.NumShards(), eng.NumWorkers(), buildTime.Round(time.Millisecond),
		st.SpaceBlocks, st.MaxShardIOs)

	for _, r := range replicas {
		if err := eng.Replicate(r[0], r[1]); err != nil {
			return fail(1, "%v", err)
		}
	}
	if len(replicas) > 0 {
		fmt.Fprintf(stdout, "replica degrees after -replicas: %v\n", eng.Replicas())
	}

	// Fault plans install after the build (and after -replicas, so a
	// clone device can be named): the build itself always runs healthy.
	for _, f := range faults {
		if err := eng.InjectFaults(f.si, f.ri, f.plan); err != nil {
			return fail(1, "%v", err)
		}
		if f.fail {
			if err := eng.FailReplica(f.si, f.ri); err != nil {
				return fail(1, "%v", err)
			}
			fmt.Fprintf(stdout, "fault: shard %d replica %d hard-failed\n", f.si, f.ri)
		} else {
			fmt.Fprintf(stdout, "fault: shard %d replica %d brownout p=%.2f stall=%v\n",
				f.si, f.ri, f.plan.BrownoutProb, f.plan.BrownoutStall)
		}
	}

	if *queries == 0 {
		return sv.wait(ctx, stdout)
	}

	// Phase 1: sequential profile for the per-query I/O histogram and
	// the per-query plan (shards visited/pruned) columns.
	var perQuery, perVisited []int64
	var hits, visited, pruned int64
	for i := 0; i < *profile; i++ {
		eng.ResetStats()
		r := eng.Batch([]linconstraint.Query{gen()})[0]
		if r.Err != nil {
			return fail(1, "%v", r.Err)
		}
		s := eng.Stats()
		perQuery = append(perQuery, s.Total.IOs())
		perVisited = append(perVisited, int64(r.ShardsVisited))
		visited += int64(r.ShardsVisited)
		pruned += int64(r.ShardsPruned)
		hits += int64(len(r.IDs) + len(r.Recs) + len(r.Neighbors))
	}
	fmt.Fprintf(stdout, "\nper-query I/O histogram (%d sequential %s, mean output %d records):\n",
		*profile, what, hits/int64(max(1, *profile)))
	printHistogram(stdout, perQuery, "I/Os")
	fmt.Fprintf(stdout, "\nplan (%s layout): mean shards visited %.2f, pruned %.2f of %d per query\n",
		*layoutF, float64(visited)/float64(max(1, *profile)),
		float64(pruned)/float64(max(1, *profile)), *shards)
	fmt.Fprintln(stdout, "per-query shards-visited histogram:")
	printHistogram(stdout, perVisited, "shards")

	// -explain: plan one sample query without running it and show the
	// planner's verdict — which bound prunes which shard — the same
	// answer /debug/explain serves over HTTP.
	if *explainF {
		var ex linconstraint.Explain
		eng.ExplainInto(gen(), &ex)
		fmt.Fprintf(stdout, "\nexplain of one sample %s query (%s layout):\n", ex.Op, *layoutF)
		for si, v := range ex.Verdicts {
			line := fmt.Sprintf("  shard %2d: %s", si, v)
			if v.Pruned() {
				line = fmt.Sprintf("  shard %2d: pruned (%s)", si, v)
			} else if si < len(ex.MinDist2) && ex.MinDist2[si] >= 0 {
				line += fmt.Sprintf(" (min dist² %.4f)", ex.MinDist2[si])
			}
			fmt.Fprintln(stdout, line)
		}
	}

	// Phase 2: batched load through the worker pool, with an optional
	// read/write mix on the mutable kinds.
	qs := make([]linconstraint.Query, *queries)
	nq, nins, ndel := 0, 0, 0
	for i := range qs {
		if genUpd != nil && rng.Float64() < *mix {
			qs[i] = genUpd()
			if qs[i].Op == linconstraint.OpInsert {
				nins++
			} else {
				ndel++
			}
		} else {
			qs[i] = gen()
			nq++
		}
	}
	eng.ResetStats()
	start = time.Now()
	done := 0
	// An online rebalance fired mid-load exercises migration under
	// traffic: move batches interleave with the serving batches below,
	// and the engine's invariants keep every answer exact throughout.
	var rebWG sync.WaitGroup
	defer rebWG.Wait() // an early return must not close the engine under a running rebalance
	var rebSt linconstraint.RebalanceStats
	var rebErr error
	rebFired := false
	// BatchInto with reused result storage keeps the load phase on the
	// engine's allocation-free hot path (DESIGN.md §7): the generator,
	// not the engine, is the only allocator in this loop.
	res := make([]linconstraint.QueryResult, 0, loadBatch)
	// Progress probes every quarter of the load report interval *rates* —
	// MetricsSnapshot.Sub of consecutive registry snapshots, the same
	// delta machinery any scraper gets — rather than cumulative totals,
	// so a mid-load shift (cache warmup, a rebalance stealing bandwidth)
	// is visible as it happens, including the interval's own run-latency
	// p99 from the subtracted histogram buckets.
	probeAt := max(1, len(qs)/4)
	nextProbe := probeAt
	lastSnap := reg.Snapshot()
	lastAt := start
	interrupted := false
	for done < len(qs) {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if *rebal && !rebFired && done >= len(qs)/2 {
			rebFired = true
			rebWG.Add(1)
			go func() {
				defer rebWG.Done()
				rebSt, rebErr = eng.Rebalance(linconstraint.RebalanceOptions{})
			}()
		}
		end := min(done+loadBatch, len(qs))
		res = eng.BatchInto(qs[done:end], res[:0])
		for i, r := range res {
			if r.Err != nil {
				return fail(1, "%v", r.Err)
			}
			if qs[done+i].Op == linconstraint.OpDelete && !r.Deleted && !r.Degraded {
				return fail(1, "delete of a live record missed")
			}
		}
		done = end
		if done >= nextProbe && done < len(qs) {
			nextProbe += probeAt
			now := time.Now()
			cur := reg.Snapshot()
			d := cur.Sub(lastSnap)
			var reads, writes, ioHits float64
			for _, c := range d.Counters {
				switch c.Name {
				case "engine_shard_io_reads_total":
					reads += c.Value
				case "engine_shard_io_writes_total":
					writes += c.Value
				case "engine_shard_io_hits_total":
					ioHits += c.Value
				}
			}
			rate := 0.0
			if t := reads + writes + ioHits; t > 0 {
				rate = ioHits / t
			}
			line := fmt.Sprintf("  progress %5d/%d ops: +%.0f I/Os (+%.0f reads, +%.0f writes, +%.0f hits, interval hit rate %.2f) in %v",
				done, len(qs), reads+writes, reads, writes, ioHits, rate,
				now.Sub(lastAt).Round(time.Millisecond))
			if h := d.Histogram("engine_run_total_ns"); h != nil && h.Count > 0 {
				line += fmt.Sprintf("; %d runs, interval p99 %v",
					h.Count, time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
			}
			fmt.Fprintln(stdout, line)
			lastSnap, lastAt = cur, now
		}
	}
	rebWG.Wait()
	el := time.Since(start)
	st = eng.Stats()
	if interrupted {
		fmt.Fprintf(stdout, "\nsignal: load phase stopped after %d of %d ops; draining\n", done, len(qs))
	}
	fmt.Fprintf(stdout, "\nload phase: %d ops (%d queries, %d inserts, %d deletes generated) in batches of %d: %v (%.0f ops/sec)\n",
		done, nq, nins, ndel, loadBatch, el.Round(time.Millisecond), float64(done)/el.Seconds())
	if genUpd != nil {
		fmt.Fprintf(stdout, "live records after load: %d\n", eng.Len())
	}
	if rebFired {
		if rebErr != nil {
			return fail(1, "rebalance: %v", rebErr)
		}
		fmt.Fprintf(stdout, "online rebalance (fired mid-load): %d moved of %d planned (%d deferred); skew %.2f -> %.2f, spread %.2f -> %.2f\n",
			rebSt.Moved, rebSt.Planned, rebSt.Deferred,
			rebSt.Before.Skew, rebSt.After.Skew, rebSt.Before.Spread, rebSt.After.Spread)
	}
	fmt.Fprintf(stdout, "aggregate I/O: %d total (%d reads, %d writes, %d cache hits), %.1f I/Os/op\n",
		st.Total.IOs(), st.Total.Reads, st.Total.Writes, st.Total.Hits,
		float64(st.Total.IOs())/float64(max(1, done)))
	if nq > 0 {
		fmt.Fprintf(stdout, "planner: %d shard visits, %d pruned (%.2f visited / %.2f pruned of %d per query)\n",
			st.ShardsVisited, st.ShardsPruned,
			float64(st.ShardsVisited)/float64(nq), float64(st.ShardsPruned)/float64(nq), st.Shards)
	}
	fmt.Fprintf(stdout, "worst shard: #%d with %d I/Os (%.1fx the fair share)\n",
		st.WorstShard, st.MaxShardIOs,
		float64(st.MaxShardIOs)*float64(st.Shards)/float64(max(1, st.Total.IOs())))

	shardIOs := make([]int64, len(st.PerShard))
	for i, ps := range st.PerShard {
		shardIOs[i] = ps.IO.IOs()
	}
	fmt.Fprintln(stdout, "\nper-shard I/O histogram (load phase):")
	printHistogram(stdout, shardIOs, "I/Os")

	// Run-phase latency quantiles come from the engine's own fixed-bucket
	// histograms (DESIGN.md §9), not a client-side mean: the tail is what
	// a scatter-gather engine actually pays for a straggler shard.
	snap := reg.Snapshot()
	fmt.Fprintln(stdout, "\nrun latency by phase (engine histograms; build + profile + load):")
	fmt.Fprintf(stdout, "  %-6s %12s %12s %12s %8s\n", "phase", "p50", "p95", "p99", "runs")
	for _, ph := range []struct{ name, series string }{
		{"plan", "engine_run_plan_ns"},
		{"exec", "engine_run_exec_ns"},
		{"wait", "engine_run_wait_ns"},
		{"merge", "engine_run_merge_ns"},
		{"total", "engine_run_total_ns"},
	} {
		h := snap.Histogram(ph.series)
		if h == nil || h.Count == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-6s %12v %12v %12v %8d\n", ph.name,
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			h.Count)
	}

	// The shard-visit heatmap reads the per-shard counter vector: one
	// glyph per shard, scaled to the busiest shard, so layout skew is
	// visible at a glance (a kd layout under clustered queries lights up
	// a few shards; round-robin is a flat bar).
	visits := make([]float64, *shards)
	for i, lab := range metrics.ShardLabels(*shards) {
		visits[i], _ = snap.Value("engine_shard_visits_total", lab)
	}
	visitMax := slices.Max(visits)
	heat := make([]rune, len(visits))
	for i, v := range visits {
		heat[i] = heatGlyph(v, visitMax)
	}
	fmt.Fprintf(stdout, "shard visit heat (max %d visits): %s\n", int64(visitMax), string(heat))

	// The replica-hit heat line shows how reads spread across a
	// replicated shard's copies: one glyph per physical replica, grouped
	// by shard, scaled to the busiest replica anywhere — a hot shard at
	// degree 3 under least-in-flight dispatch shows three even bars.
	if slices.Max(st.Replicas) > 1 {
		var mx int64
		for _, per := range st.ReplicaReads {
			mx = max(mx, slices.Max(per))
		}
		parts := make([]string, len(st.ReplicaReads))
		for si, per := range st.ReplicaReads {
			glyphs := make([]rune, len(per))
			for ri, v := range per {
				glyphs[ri] = heatGlyph(float64(v), float64(mx))
			}
			parts[si] = fmt.Sprintf("s%d:%s", si, string(glyphs))
		}
		fmt.Fprintf(stdout, "replica hit heat (degrees %v, max %d reads/replica): %s\n",
			st.Replicas, mx, strings.Join(parts, " "))
	}

	// Robustness summary: what the fault stack did during the load
	// phase, from the same counters a scraper reads.
	if *faultsF != "" || *hedgeF != "" || *deadline > 0 || *breakerF != "" {
		hedges, _ := snap.Value("engine_hedges_total", "")
		wins, _ := snap.Value("engine_hedge_wins_total", "")
		misses, _ := snap.Value("engine_deadline_misses_total", "")
		degr, _ := snap.Value("engine_degraded_runs_total", "")
		trips, _ := snap.Value("engine_breaker_trips_total", "")
		repairs, _ := snap.Value("engine_repairs_total", "")
		fmt.Fprintf(stdout, "robustness: %.0f hedges (%.0f won), %.0f deadline misses, %.0f degraded runs, %.0f breaker trips, %.0f repairs\n",
			hedges, wins, misses, degr, trips, repairs)
		if cfg.Breaker != nil {
			parts := make([]string, eng.NumShards())
			for si := range parts {
				states, _ := eng.BreakerStates(si)
				names := make([]string, len(states))
				for ri, s := range states {
					names[ri] = s.String()
				}
				parts[si] = fmt.Sprintf("s%d:%s", si, strings.Join(names, ","))
			}
			fmt.Fprintf(stdout, "breaker states: %s\n", strings.Join(parts, " "))
		}
	}

	// Flight-recorder and watchdog summaries: the operator-facing
	// one-liners; the full evidence stays on /debug/slow and
	// /debug/health while a -listen process serves.
	if *slowNs > 0 {
		if slow := eng.SlowQueries(nil); len(slow) > 0 {
			captures, _ := snap.Value("engine_slow_captures_total", "")
			last := slow[len(slow)-1]
			fmt.Fprintf(stdout, "flight recorder: %.0f runs tripped -slow-ns %v (%d held); last: reason %s, total %v, %d I/Os, %d visited / %d pruned shards\n",
				captures, time.Duration(*slowNs), len(slow),
				last.Reason, time.Duration(last.TotalNs).Round(time.Microsecond),
				last.IO.IOs(), last.ShardsVisited, last.ShardsPruned)
		} else {
			fmt.Fprintf(stdout, "flight recorder: no run slower than %v\n", time.Duration(*slowNs))
		}
	}
	if cfg.Watchdog != nil {
		events := eng.Health(nil)
		kinds := map[string]int{}
		for _, ev := range events {
			kinds[ev.Kind.String()]++
		}
		ticks, _ := snap.Value("engine_watchdog_ticks_total", "")
		fmt.Fprintf(stdout, "watchdog: %.0f ticks, %d health events held %v\n", ticks, len(events), kinds)
	}

	if traces := eng.Traces(nil); len(traces) > 0 {
		last := traces[len(traces)-1]
		fmt.Fprintf(stdout, "traces: %d sampled (1 in %d); last: %d queries, %d visited / %d pruned shards, %d shared plans, plan %v exec %v merge %v total %v, %d I/Os\n",
			len(traces), max(1, *traceEvery), last.Queries,
			last.ShardsVisited, last.ShardsPruned, last.PlansShared,
			time.Duration(last.PlanNs).Round(time.Microsecond),
			time.Duration(last.ExecNs).Round(time.Microsecond),
			time.Duration(last.MergeNs).Round(time.Microsecond),
			time.Duration(last.TotalNs).Round(time.Microsecond),
			last.IO.IOs())
	}

	if *metricsDump != "" {
		buf, err := json.MarshalIndent(&snap, "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsDump, buf, 0o644)
		}
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "metrics snapshot written to %s\n", *metricsDump)
	}
	return sv.wait(ctx, stdout)
}

// parseSLO parses the -slo spec: comma-separated key=value pairs,
// p99=DUR (windowed p99 run-latency bound) and visited=F (windowed
// mean shards-visited bound).
func parseSLO(spec string) (p99 time.Duration, visited float64, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return 0, 0, fmt.Errorf("entry %q: want key=value", part)
		}
		switch k {
		case "p99":
			if p99, err = time.ParseDuration(v); err != nil {
				return 0, 0, err
			}
		case "visited":
			if visited, err = strconv.ParseFloat(v, 64); err != nil {
				return 0, 0, err
			}
		default:
			return 0, 0, fmt.Errorf("unknown objective %q (want p99 or visited)", k)
		}
	}
	return p99, visited, nil
}

// parseBreaker parses the -breaker spec T:DUR (trip threshold, open
// cooldown); the empty spec arms no breaker.
func parseBreaker(spec string) (*linconstraint.BreakerConfig, error) {
	if spec == "" {
		return nil, nil
	}
	t, d, ok := strings.Cut(spec, ":")
	thr, err := strconv.Atoi(t)
	if !ok || err != nil {
		return nil, fmt.Errorf("want T:DUR, e.g. 3:100ms")
	}
	cool, err := time.ParseDuration(d)
	if err != nil {
		return nil, fmt.Errorf("cooldown: %v", err)
	}
	return &linconstraint.BreakerConfig{Threshold: thr, Cooldown: cool}, nil
}

// parseReplicas parses the -replicas spec: comma-separated
// shard:degree pairs.
func parseReplicas(spec string) ([][2]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		var si, deg int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &si, &deg); err != nil {
			return nil, fmt.Errorf("entry %q: want shard:degree", part)
		}
		out = append(out, [2]int{si, deg})
	}
	return out, nil
}

// faultEntry is one parsed -faults entry: a target replica device and
// either a hard fail or a seeded brownout plan.
type faultEntry struct {
	si, ri int
	fail   bool
	plan   linconstraint.FaultPlan
}

// parseFaults parses the -faults spec: comma-separated entries, each
// SHARD:REPLICA:fail (hard-fail the device) or SHARD:REPLICA:PROB:STALL
// (a deterministic brownout plan — every cache miss stalls STALL with
// probability PROB, seeded off the run seed plus the target).
func parseFaults(spec string, seed int64) ([]faultEntry, error) {
	if spec == "" {
		return nil, nil
	}
	var out []faultEntry
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("entry %q: want SHARD:REPLICA:fail or SHARD:REPLICA:PROB:STALL", part)
		}
		si, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("entry %q: shard: %v", part, err)
		}
		ri, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("entry %q: replica: %v", part, err)
		}
		e := faultEntry{si: si, ri: ri}
		if len(fields) == 3 && fields[2] == "fail" {
			e.fail = true
		} else if len(fields) == 4 {
			prob, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || prob < 0 || prob > 1 {
				return nil, fmt.Errorf("entry %q: brownout probability %q (want 0..1)", part, fields[2])
			}
			stall, err := time.ParseDuration(fields[3])
			if err != nil || stall <= 0 {
				return nil, fmt.Errorf("entry %q: stall %q (want a positive duration)", part, fields[3])
			}
			e.plan = linconstraint.FaultPlan{
				Seed:         seed + int64(si)*31 + int64(ri),
				BrownoutProb: prob, BrownoutStall: stall,
			}
		} else {
			return nil, fmt.Errorf("entry %q: want SHARD:REPLICA:fail or SHARD:REPLICA:PROB:STALL", part)
		}
		out = append(out, e)
	}
	return out, nil
}

// updGen returns an update generator over a live book of records
// seeded with the prepopulated set: half inserts (fresh records from
// newRec), half deletes of a random live record (swap-remove), so
// every generated delete targets a record that is live when it
// applies.
func updGen(rng *rand.Rand, book []linconstraint.Record, newRec func() linconstraint.Record) func() linconstraint.Query {
	return func() linconstraint.Query {
		if rng.Intn(2) == 0 || len(book) == 0 {
			r := newRec()
			book = append(book, r)
			return linconstraint.Query{Op: linconstraint.OpInsert, Rec: r}
		}
		i := rng.Intn(len(book))
		r := book[i]
		book[i] = book[len(book)-1]
		book = book[:len(book)-1]
		return linconstraint.Query{Op: linconstraint.OpDelete, Rec: r}
	}
}

// printHistogram prints power-of-two buckets with text bars; zero
// values (e.g. fully cached queries, idle shards) get their own row.
func printHistogram(w io.Writer, vals []int64, unit string) {
	if len(vals) == 0 {
		return
	}
	var lo, hi int64 = math.MaxInt64, 0
	zeros := 0
	buckets := map[int]int{} // bucket i holds values in [2^i, 2^(i+1))
	for _, v := range vals {
		if v == 0 {
			zeros++
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
		buckets[log2(v)]++
	}
	maxCount := zeros
	for _, c := range buckets {
		maxCount = max(maxCount, c)
	}
	if zeros > 0 {
		fmt.Fprintf(w, "  %8d–%-8d %s %5d  %s\n", 0, 0, unit, zeros, strings.Repeat("#", zeros*40/max(1, maxCount)))
	}
	if hi == 0 {
		return
	}
	for b := log2(lo); b <= log2(hi); b++ {
		c := buckets[b]
		bar := strings.Repeat("#", c*40/max(1, maxCount))
		fmt.Fprintf(w, "  %8d–%-8d %s %5d  %s\n", pow2(b), pow2(b+1)-1, unit, c, bar)
	}
}

// heatGlyph scales v against mx onto an eight-step block ramp.
func heatGlyph(v, mx float64) rune {
	ramp := []rune("▁▂▃▄▅▆▇█")
	if mx <= 0 {
		return ramp[0]
	}
	return ramp[int(v/mx*float64(len(ramp)-1))]
}

func log2(v int64) int { return bits.Len64(uint64(v)) - 1 }

func pow2(b int) int64 { return int64(1) << b }
