// Command lcserve is a load generator and server for the sharded
// concurrent query engine (DESIGN.md §5). It has three modes:
//
//   - Load generator (default): builds an engine over synthetic data,
//     profiles per-query I/O cost sequentially, then drives batched
//     traffic through the worker pool and reports throughput plus I/O
//     histograms: the distribution of per-query block transfers and
//     the balance of I/O across shards (summed vs worst-shard cost).
//   - Server (-listen HOST:PORT): builds the engine, then serves
//     queries over HTTP through the batching front-end (DESIGN.md
//     §13) until SIGINT/SIGTERM instead of running the load phase.
//   - Client (-target URL): builds no engine; fires -queries HTTP
//     requests at a running server and reports qps, latency
//     percentiles and the status-code histogram.
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
//	        [-layout rr|sfc|kd] [-noplan] [-rebalance]
//	        [-replicas SPEC] [-autoreplicate]
//	        [-n N] [-shards S] [-workers W] [-batch B] [-queries Q]
//	        [-sel F] [-mix F] [-k K] [-dim D] [-block B] [-cache M]
//	        [-lat DUR] [-seed N]
//	        [-metrics-addr HOST:PORT] [-metrics-dump FILE] [-trace N]
//	        [-slow-ns N] [-explain] [-slo SPEC] [-watchdog DUR]
//	        [-faults SPEC] [-hedge DUR|auto] [-deadline DUR] [-strict]
//	        [-breaker T:DUR] [-linger DUR] [-promcheck FILE]
//	        [-listen HOST:PORT [-max-batch N] [-queue N] [-stripes N]
//	         [-grace DUR]]
//	        [-target URL [-clients N]]
//
// The engine always runs instrumented: run-phase latency histograms
// (p50/p95/p99 per phase in the report), windowed (time-resolved)
// latency and fan-out views, per-shard visit counters (the shard-heat
// line), and 1-in-N query-run traces (-trace). With -metrics-addr the
// same registry is served live over HTTP — Prometheus text at
// /metrics, JSON at /metrics.json, pprof under /debug/pprof/, plus the
// engine's introspection endpoints /debug/slow, /debug/health and
// /debug/explain — and -linger keeps the process (and the endpoints)
// alive after the report so a scraper can collect the final state.
// -metrics-dump writes the final JSON snapshot to a file (the CI
// artifact), and -promcheck FILE validates a saved Prometheus payload
// and exits — the smoke test's stand-in for promtool.
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
// devices right after the build; with -autoreplicate one sketch-driven
// AutoReplicate pass fires in the background from the load phase's
// midpoint, promoting whatever shards the engine's traffic sketch
// reports hot (DESIGN.md §10). Either way the report ends with a
// replica-hit heat line showing how reads spread across each
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
// With -listen the process becomes a server: the listener binds before
// the engine builds (a taken port fails fast, exit 1), queries arrive
// as POST JSON or GET parameters on /query and run through per-op
// striped batchers (a stripe flushes whatever its ring holds, up to
// -max-batch, the moment it runs dry; -queue bounded admission per
// stripe — full rings shed with 429, -stripes stripes per op), and the
// same port serves /healthz, /metrics and the /debug/* introspection.
// SIGINT/SIGTERM drains in order — HTTP server, then the front-end
// (every admitted request answered), then the engine — bounded by
// -grace; a blown drain exits non-zero. With
// -target the process is the matching client: it regenerates the
// server's operand pool from -kind/-n/-sel/-seed (pair them with the
// server's flags) and drives -queries keep-alive requests from
// -clients workers.
//
// Examples — 8 shards, 8 workers, a 100µs simulated disk; a mutable
// engine under a 30% write mix; a kd-cut layout whose planner prunes
// shards on selective queries; then a server and the client driving
// it:
//
//	lcserve -kind planar -n 200000 -shards 8 -workers 8 -lat 100us
//	lcserve -kind dynplanar -n 50000 -shards 8 -mix 0.3
//	lcserve -kind planar -n 100000 -shards 8 -layout kd -sel 0.01
//	lcserve -kind planar -n 100000 -shards 8 -layout kd -listen :8080
//	lcserve -target http://localhost:8080 -kind planar -n 100000 \
//	        -queries 20000 -clients 64
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
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

func main() {
	var (
		kind    = flag.String("kind", "planar", "index family: planar, 3d, knn, partition, dynplanar, dynpartition")
		layoutF = flag.String("layout", "rr", "shard layout: rr (round-robin), sfc (space-filling curve), kd (kd-cut)")
		noplan  = flag.Bool("noplan", false, "disable the query planner (full fan-out baseline)")
		n       = flag.Int("n", 100000, "number of records")
		shards  = flag.Int("shards", 8, "shard count")
		workers = flag.Int("workers", 8, "query worker pool size")
		batch   = flag.Int("batch", 32, "ops per batch")
		queries = flag.Int("queries", 1024, "total ops in the load phase")
		sel     = flag.Float64("sel", 0.05, "target query selectivity")
		mix     = flag.Float64("mix", 0, "fraction of load-phase ops that are updates (dynamic kinds)")
		k       = flag.Int("k", 16, "k for -kind knn")
		dim     = flag.Int("dim", 3, "dimension for -kind partition/dynpartition")
		block   = flag.Int("block", 128, "records per disk block")
		cache   = flag.Int("cache", 0, "LRU cache blocks per shard")
		lat     = flag.Duration("lat", 0, "simulated disk latency per block miss")
		seed    = flag.Int64("seed", 1, "RNG seed")
		profile = flag.Int("profile", 128, "sequential queries for the per-query I/O histogram")
		rebal   = flag.Bool("rebalance", false, "run one online rebalance (retrain + migrate) in the background from the load phase's midpoint (dynamic kinds)")

		replicasF = flag.String("replicas", "", "comma-separated shard:degree pairs to replicate after the build, e.g. 5:3,0:2")
		autoRep   = flag.Bool("autoreplicate", false, "run one sketch-driven AutoReplicate pass in the background from the load phase's midpoint")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus text at /metrics, JSON at /metrics.json, pprof at /debug/pprof and the engine's /debug/slow, /debug/health and /debug/explain endpoints on this host:port")
		metricsDump = flag.String("metrics-dump", "", "write the final JSON metrics snapshot to this file")
		traceEvery  = flag.Int("trace", 32, "sample every Nth query run into the engine's trace ring (0 disables tracing)")
		linger      = flag.Duration("linger", 0, "keep the process (and -metrics-addr) alive this long after the report")
		promcheck   = flag.String("promcheck", "", "validate a saved Prometheus text payload and exit (no engine run)")

		faultsF  = flag.String("faults", "", "fault-injection plans, comma-separated: SHARD:REPLICA:fail (hard fail) or SHARD:REPLICA:PROB:STALL (seeded brownout), e.g. 0:1:0.5:2ms")
		hedgeF   = flag.String("hedge", "", "hedged replica reads: a delay (e.g. 500us), or auto to track the windowed p99 ('' disables)")
		deadline = flag.Duration("deadline", 0, "per-run wall-clock deadline (0 disables); late runs degrade unless -strict")
		strict   = flag.Bool("strict", false, "with -deadline, let late runs complete instead of returning partial answers")
		breakerF = flag.String("breaker", "", "per-replica circuit breaker as T:DUR (trip threshold, open cooldown), e.g. 3:100ms")
		slowNs   = flag.Int64("slow-ns", 0, "flight recorder: capture any query run slower than this many nanoseconds, with full per-shard evidence (0 disables)")
		explainF = flag.Bool("explain", false, "print the planner's per-shard verdict for one sample query after the profile phase")
		sloSpec  = flag.String("slo", "", "SLO objectives as comma-separated key=value pairs: p99=DUR (windowed p99 run latency) and/or visited=F (windowed mean shards visited); breaches burn engine_slo_breaches_total")
		watchdog = flag.Duration("watchdog", 0, "health watchdog tick interval (0 disables; 1s implied when -slo is set)")

		listen   = flag.String("listen", "", "serve mode: build the engine, serve the batching query front-end on this host:port (plus /metrics and the /debug endpoints), and wait for SIGINT/SIGTERM; no profile or load phases")
		maxBatch = flag.Int("max-batch", 64, "serve mode: most queued requests one flush coalesces into a single engine run (1 = passthrough)")
		queueCap = flag.Int("queue", 256, "serve mode: per-stripe admission ring capacity (full rings shed with 429)")
		stripesF = flag.Int("stripes", 0, "serve mode: batcher stripes per op family (0 = GOMAXPROCS, capped at 4)")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period after a signal: exit non-zero if draining takes longer")
		target   = flag.String("target", "", "client mode: fire -queries HTTP requests at this base URL (e.g. http://host:port) instead of building an engine; pair with the server's -kind/-n/-sel/-seed so operands match its dataset")
		clients  = flag.Int("clients", 16, "client mode: concurrent HTTP clients")
	)
	flag.Parse()

	// Standalone validator mode: the CI smoke saves a /metrics scrape to
	// a file and feeds it back through -promcheck instead of depending
	// on promtool being installed.
	if *promcheck != "" {
		payload, err := os.ReadFile(*promcheck)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := metrics.CheckProm(payload); err != nil {
			fmt.Fprintf(os.Stderr, "promcheck %s: %v\n", *promcheck, err)
			os.Exit(1)
		}
		fmt.Printf("promcheck %s: OK\n", *promcheck)
		return
	}

	// A signal cancels ctx: the load loop stops at the next batch, serve
	// mode drains, and shutdown races the -grace period (PR 10 contract:
	// eng.Close always runs, exit 1 if the drain stalls).
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	// Client mode needs no engine at all: generate the same operand
	// distribution the server built over and fire it at the URL.
	if *target != "" {
		os.Exit(runClient(ctx, *target, *kind, *n, *clients, *queries, *k, *dim, *sel, *seed))
	}

	if *mix > 0 && *kind != "dynplanar" && *kind != "dynpartition" {
		fmt.Fprintf(os.Stderr, "-mix requires a dynamic kind (dynplanar, dynpartition)\n")
		os.Exit(2)
	}
	if *rebal && *kind != "dynplanar" && *kind != "dynpartition" {
		fmt.Fprintf(os.Stderr, "-rebalance requires a dynamic kind (dynplanar, dynpartition)\n")
		os.Exit(2)
	}

	// Bind every listener before the (possibly long) engine build, so a
	// taken port fails the run immediately instead of after minutes of
	// building — the serving handlers mount once the engine exists.
	var metricsLn, serveLn net.Listener
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-metrics-addr: %v\n", err)
			os.Exit(1)
		}
		metricsLn = ln
	}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-listen: %v\n", err)
			os.Exit(1)
		}
		serveLn = ln
	}

	rng := rand.New(rand.NewSource(*seed))
	reg := linconstraint.NewMetrics()
	cfg := linconstraint.EngineConfig{
		Shards: *shards, Workers: *workers,
		BlockSize: *block, CacheBlocks: *cache,
		Seed: *seed, IOLatency: *lat,
		DisablePlanner: *noplan,
		Metrics:        reg,
		TraceEvery:     *traceEvery,
	}
	if *slowNs > 0 {
		cfg.FlightRecorder = linconstraint.FlightRecorderConfig{TotalNs: *slowNs}
	}
	sloP99, sloVisited, err := parseSLO(*sloSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -slo %q: %v\n", *sloSpec, err)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "bad -hedge %q (want a positive duration or auto)\n", *hedgeF)
			os.Exit(2)
		}
		cfg.HedgeAfter = d
	}
	if *breakerF != "" {
		var thr int
		var cool string
		if _, err := fmt.Sscanf(*breakerF, "%d:%s", &thr, &cool); err != nil {
			fmt.Fprintf(os.Stderr, "bad -breaker %q (want T:DUR, e.g. 3:100ms)\n", *breakerF)
			os.Exit(2)
		}
		d, err := time.ParseDuration(cool)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -breaker cooldown %q: %v\n", cool, err)
			os.Exit(2)
		}
		cfg.Breaker = &linconstraint.BreakerConfig{Threshold: thr, Cooldown: d}
	}
	faults, err := parseFaults(*faultsF, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -faults %q: %v\n", *faultsF, err)
		os.Exit(2)
	}
	switch *layoutF {
	case "rr":
		cfg.Partitioner = linconstraint.RoundRobinLayout()
	case "sfc":
		cfg.Partitioner = linconstraint.SFCLayout()
	case "kd":
		cfg.Partitioner = linconstraint.KDCutLayout()
	default:
		fmt.Fprintf(os.Stderr, "unknown -layout %q (want rr, sfc or kd)\n", *layoutF)
		os.Exit(2)
	}

	var (
		eng    *linconstraint.Engine
		gen    func() linconstraint.Query
		genUpd func() linconstraint.Query // nil for the static kinds
		what   string
	)
	// feed streams records into a mutable engine as OpInsert batches.
	feed := func(recs []linconstraint.Record) {
		for done := 0; done < len(recs); {
			end := min(done+*batch, len(recs))
			qs := make([]linconstraint.Query, 0, end-done)
			for _, r := range recs[done:end] {
				qs = append(qs, linconstraint.Query{Op: linconstraint.OpInsert, Rec: r})
			}
			for _, r := range eng.Batch(qs) {
				if r.Err != nil {
					fmt.Fprintln(os.Stderr, r.Err)
					os.Exit(1)
				}
			}
			done = end
		}
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
		win := linconstraint.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4}
		eng = linconstraint.NewEngine3D(pts, win, cfg)
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
		feed(recs)
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
		feed(recs)
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
		fmt.Fprintf(os.Stderr, "unknown -kind %q\n", *kind)
		os.Exit(2)
	}
	// The telemetry handler mounts after the build: /debug/slow,
	// /debug/health and /debug/explain serve this engine's rings, so
	// the handler needs it. The listener was bound before the build
	// (fail fast); the server is shut down when the run ends instead of
	// leaking its goroutine past the report.
	var msrv *http.Server
	if metricsLn != nil {
		msrv = &http.Server{Handler: linconstraint.DebugHandler(reg, eng)}
		go func() {
			if err := msrv.Serve(metricsLn); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
		fmt.Printf("telemetry on http://%s/metrics (JSON at /metrics.json, pprof at /debug/pprof/, engine introspection at /debug/slow, /debug/health, /debug/explain)\n", metricsLn.Addr())
	}
	// shutdown replaces the old `defer eng.Close()`: the full ordered
	// drain — telemetry server, then engine (serve mode closes its
	// front-end before calling this) — raced against the grace period,
	// so a stuck worker turns into exit 1 instead of a hang.
	shutdown := func(code int) {
		drained := make(chan struct{})
		go func() {
			if msrv != nil {
				sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				msrv.Shutdown(sctx)
				cancel()
			}
			eng.Close()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(*grace):
			fmt.Fprintf(os.Stderr, "shutdown did not complete within %v\n", *grace)
			os.Exit(1)
		}
		os.Exit(code)
	}
	buildTime := time.Since(start)
	st := eng.Stats()
	fmt.Printf("built %d records on %d shards (%d workers) in %v; %d blocks total, worst shard %d I/Os\n",
		eng.Len(), eng.NumShards(), eng.NumWorkers(), buildTime.Round(time.Millisecond),
		st.SpaceBlocks, st.MaxShardIOs)

	if *replicasF != "" {
		for _, part := range strings.Split(*replicasF, ",") {
			var si, deg int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &si, &deg); err != nil {
				fmt.Fprintf(os.Stderr, "bad -replicas entry %q (want shard:degree)\n", part)
				os.Exit(2)
			}
			if err := eng.Replicate(si, deg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("replica degrees after -replicas: %v\n", eng.Replicas())
	}

	// Fault plans install after the build (and after -replicas, so a
	// clone device can be named): the build itself always runs healthy.
	for _, f := range faults {
		if err := eng.InjectFaults(f.si, f.ri, f.plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if f.fail {
			if err := eng.FailReplica(f.si, f.ri); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("fault: shard %d replica %d hard-failed\n", f.si, f.ri)
		} else {
			fmt.Printf("fault: shard %d replica %d brownout p=%.2f stall=%v\n",
				f.si, f.ri, f.plan.BrownoutProb, f.plan.BrownoutStall)
		}
	}

	// Serve mode: mount the batching front-end over the engine and wait
	// for a signal; no profile or load phases. The shutdown ordering is
	// the §13 contract — stop accepting, drain the stripes, then close
	// the engine.
	if serveLn != nil {
		code := serveMode(ctx, serveLn, eng, reg, linconstraint.ServerConfig{
			MaxBatch: *maxBatch, QueueCap: *queueCap, Stripes: *stripesF,
			Metrics: reg,
		}, *grace)
		shutdown(code)
	}

	// Phase 1: sequential profile for the per-query I/O histogram and
	// the per-query plan (shards visited/pruned) columns.
	var perQuery, perVisited []int64
	var hits, visited, pruned int64
	for i := 0; i < *profile; i++ {
		eng.ResetStats()
		r := eng.Batch([]linconstraint.Query{gen()})[0]
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
		s := eng.Stats()
		perQuery = append(perQuery, s.Total.IOs())
		perVisited = append(perVisited, int64(r.ShardsVisited))
		visited += int64(r.ShardsVisited)
		pruned += int64(r.ShardsPruned)
		hits += int64(len(r.IDs) + len(r.Recs) + len(r.Neighbors))
	}
	fmt.Printf("\nper-query I/O histogram (%d sequential %s, mean output %d records):\n",
		*profile, what, hits/int64(max(1, *profile)))
	printHistogram(perQuery, "I/Os")
	fmt.Printf("\nplan (%s layout): mean shards visited %.2f, pruned %.2f of %d per query\n",
		*layoutF, float64(visited)/float64(max(1, *profile)),
		float64(pruned)/float64(max(1, *profile)), *shards)
	fmt.Println("per-query shards-visited histogram:")
	printHistogram(perVisited, "shards")

	// -explain: plan one sample query without running it and show the
	// planner's verdict — which bound prunes which shard — the same
	// answer /debug/explain serves over HTTP.
	if *explainF {
		var ex linconstraint.Explain
		eng.ExplainInto(gen(), &ex)
		fmt.Printf("\nexplain of one sample %s query (%s layout):\n", ex.Op, *layoutF)
		for si, v := range ex.Verdicts {
			line := fmt.Sprintf("  shard %2d: %s", si, v)
			if v.Pruned() {
				line = fmt.Sprintf("  shard %2d: pruned (%s)", si, v)
			} else if si < len(ex.MinDist2) && ex.MinDist2[si] >= 0 {
				line += fmt.Sprintf(" (min dist² %.4f)", ex.MinDist2[si])
			}
			fmt.Println(line)
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
	var rebSt linconstraint.RebalanceStats
	var rebErr error
	rebFired := false
	var arSt linconstraint.AutoReplicateStats
	var arErr error
	arFired := false
	// BatchInto with reused result storage keeps the load phase on the
	// engine's allocation-free hot path (DESIGN.md §7): the generator,
	// not the engine, is the only allocator in this loop.
	res := make([]linconstraint.QueryResult, 0, *batch)
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
		if *autoRep && !arFired && done >= len(qs)/2 {
			arFired = true
			rebWG.Add(1)
			go func() {
				defer rebWG.Done()
				arSt, arErr = eng.AutoReplicate(linconstraint.AutoReplicateOptions{})
			}()
		}
		end := min(done+*batch, len(qs))
		res = eng.BatchInto(qs[done:end], res[:0])
		for i, r := range res {
			if r.Err != nil {
				fmt.Fprintln(os.Stderr, r.Err)
				os.Exit(1)
			}
			if qs[done+i].Op == linconstraint.OpDelete && !r.Deleted && !r.Degraded {
				fmt.Fprintln(os.Stderr, "delete of a live record missed")
				os.Exit(1)
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
			fmt.Println(line)
			lastSnap, lastAt = cur, now
		}
	}
	rebWG.Wait()
	el := time.Since(start)
	st = eng.Stats()
	if interrupted {
		fmt.Printf("\nsignal: load phase stopped after %d of %d ops; draining\n", done, len(qs))
	}
	fmt.Printf("\nload phase: %d ops (%d queries, %d inserts, %d deletes generated) in batches of %d: %v (%.0f ops/sec)\n",
		done, nq, nins, ndel, *batch, el.Round(time.Millisecond), float64(done)/el.Seconds())
	if genUpd != nil {
		fmt.Printf("live records after load: %d\n", eng.Len())
	}
	if rebFired {
		if rebErr != nil {
			fmt.Fprintf(os.Stderr, "rebalance: %v\n", rebErr)
			os.Exit(1)
		}
		fmt.Printf("online rebalance (fired mid-load): %d moved of %d planned (%d deferred); skew %.2f -> %.2f, spread %.2f -> %.2f\n",
			rebSt.Moved, rebSt.Planned, rebSt.Deferred,
			rebSt.Before.Skew, rebSt.After.Skew, rebSt.Before.Spread, rebSt.After.Spread)
	}
	if arFired {
		if arErr != nil {
			fmt.Fprintf(os.Stderr, "autoreplicate: %v\n", arErr)
			os.Exit(1)
		}
		fmt.Printf("autoreplicate (fired mid-load): %d promoted, %d demoted; degrees %v\n",
			arSt.Promoted, arSt.Demoted, arSt.Degrees)
	}
	fmt.Printf("aggregate I/O: %d total (%d reads, %d writes, %d cache hits), %.1f I/Os/op\n",
		st.Total.IOs(), st.Total.Reads, st.Total.Writes, st.Total.Hits,
		float64(st.Total.IOs())/float64(max(1, done)))
	if nq > 0 {
		fmt.Printf("planner: %d shard visits, %d pruned (%.2f visited / %.2f pruned of %d per query)\n",
			st.ShardsVisited, st.ShardsPruned,
			float64(st.ShardsVisited)/float64(nq), float64(st.ShardsPruned)/float64(nq), st.Shards)
	}
	fmt.Printf("worst shard: #%d with %d I/Os (%.1fx the fair share)\n",
		st.WorstShard, st.MaxShardIOs,
		float64(st.MaxShardIOs)*float64(st.Shards)/float64(max(1, st.Total.IOs())))

	shardIOs := make([]int64, len(st.PerShard))
	for i, ps := range st.PerShard {
		shardIOs[i] = ps.IO.IOs()
	}
	fmt.Println("\nper-shard I/O histogram (load phase):")
	printHistogram(shardIOs, "I/Os")

	// Run-phase latency quantiles come from the engine's own fixed-bucket
	// histograms (DESIGN.md §9), not a client-side mean: the tail is what
	// a scatter-gather engine actually pays for a straggler shard.
	snap := reg.Snapshot()
	fmt.Println("\nrun latency by phase (engine histograms; build + profile + load):")
	fmt.Printf("  %-6s %12s %12s %12s %8s\n", "phase", "p50", "p95", "p99", "runs")
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
		fmt.Printf("  %-6s %12v %12v %12v %8d\n", ph.name,
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			h.Count)
	}

	// The shard-visit heatmap reads the per-shard counter vector: one
	// glyph per shard, scaled to the busiest shard, so layout skew is
	// visible at a glance (a kd layout under clustered queries lights up
	// a few shards; round-robin is a flat bar).
	heat := make([]rune, *shards)
	visitMax := float64(0)
	visits := make([]float64, *shards)
	for i, lab := range metrics.ShardLabels(*shards) {
		v, _ := snap.Value("engine_shard_visits_total", lab)
		visits[i] = v
		if v > visitMax {
			visitMax = v
		}
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	for i, v := range visits {
		idx := 0
		if visitMax > 0 {
			idx = int(v / visitMax * float64(len(ramp)-1))
		}
		heat[i] = ramp[idx]
	}
	fmt.Printf("shard visit heat (max %d visits): %s\n", int64(visitMax), string(heat))

	// The replica-hit heat line shows how reads spread across a
	// replicated shard's copies: one glyph per physical replica, grouped
	// by shard, scaled to the busiest replica anywhere — a hot shard at
	// degree 3 under least-in-flight dispatch shows three even bars.
	replicated := false
	for _, d := range st.Replicas {
		if d > 1 {
			replicated = true
		}
	}
	if replicated {
		var mx int64
		for _, per := range st.ReplicaReads {
			for _, v := range per {
				mx = max(mx, v)
			}
		}
		var sb strings.Builder
		for si, per := range st.ReplicaReads {
			if si > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "s%d:", si)
			for _, v := range per {
				idx := 0
				if mx > 0 {
					idx = int(float64(v) / float64(mx) * float64(len(ramp)-1))
				}
				sb.WriteRune(ramp[idx])
			}
		}
		fmt.Printf("replica hit heat (degrees %v, max %d reads/replica): %s\n",
			st.Replicas, mx, sb.String())
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
		fmt.Printf("robustness: %.0f hedges (%.0f won), %.0f deadline misses, %.0f degraded runs, %.0f breaker trips, %.0f repairs\n",
			hedges, wins, misses, degr, trips, repairs)
		if cfg.Breaker != nil {
			var sb strings.Builder
			for si := 0; si < eng.NumShards(); si++ {
				states, err := eng.BreakerStates(si)
				if err != nil {
					continue
				}
				if si > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "s%d:", si)
				for ri, s := range states {
					if ri > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(s.String())
				}
			}
			fmt.Printf("breaker states: %s\n", sb.String())
		}
	}

	// Flight-recorder and watchdog summaries: the operator-facing
	// one-liners; the full evidence stays on /debug/slow and
	// /debug/health while the process lingers.
	if *slowNs > 0 {
		if slow := eng.SlowQueries(nil); len(slow) > 0 {
			captures, _ := snap.Value("engine_slow_captures_total", "")
			last := slow[len(slow)-1]
			fmt.Printf("flight recorder: %.0f runs tripped -slow-ns %v (%d held); last: reason %s, total %v, %d I/Os, %d visited / %d pruned shards\n",
				captures, time.Duration(*slowNs), len(slow),
				last.Reason, time.Duration(last.TotalNs).Round(time.Microsecond),
				last.IO.IOs(), last.ShardsVisited, last.ShardsPruned)
		} else {
			fmt.Printf("flight recorder: no run slower than %v\n", time.Duration(*slowNs))
		}
	}
	if cfg.Watchdog != nil {
		events := eng.Health(nil)
		kinds := map[string]int{}
		for _, ev := range events {
			kinds[ev.Kind.String()]++
		}
		ticks, _ := snap.Value("engine_watchdog_ticks_total", "")
		fmt.Printf("watchdog: %.0f ticks, %d health events held %v\n", ticks, len(events), kinds)
	}

	if traces := eng.Traces(nil); len(traces) > 0 {
		last := traces[len(traces)-1]
		fmt.Printf("traces: %d sampled (1 in %d); last: %d queries, %d visited / %d pruned shards, %d shared plans, plan %v exec %v merge %v total %v, %d I/Os\n",
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsDump)
	}
	if *linger > 0 && !interrupted {
		fmt.Printf("lingering %v for scrapes...\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
			fmt.Println("signal: linger cut short")
		}
	}
	shutdown(0)
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
func printHistogram(vals []int64, unit string) {
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
		fmt.Printf("  %8d–%-8d %s %5d  %s\n", 0, 0, unit, zeros, strings.Repeat("#", zeros*40/max(1, maxCount)))
	}
	if hi == 0 {
		return
	}
	for b := log2(lo); b <= log2(hi); b++ {
		c := buckets[b]
		bar := strings.Repeat("#", c*40/max(1, maxCount))
		fmt.Printf("  %8d–%-8d %s %5d  %s\n", pow2(b), pow2(b+1)-1, unit, c, bar)
	}
}

func log2(v int64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

func pow2(b int) int64 { return int64(1) << b }
