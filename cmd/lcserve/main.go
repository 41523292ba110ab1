// Command lcserve builds the sharded concurrent query engine
// (DESIGN.md §5) over synthetic data and serves it over HTTP until
// SIGINT/SIGTERM, then drains. Load comes from outside: bench
// (go run ./bench -workload ...) or any HTTP client.
//
// Usage:
//
//	lcserve -listen HOST:PORT
//	        [-kind planar|3d|knn|partition|dynplanar|dynpartition]
//	        [-layout rr|sfc|kd] [-replicas SPEC] [-n N] [-shards S]
//	        [-workers W] [-dim D] [-lat DUR] [-seed N]
//	        [-slow-ns N] [-slo SPEC] [-watchdog DUR]
//	        [-faults SPEC] [-hedge DUR|auto] [-deadline DUR] [-strict]
//	        [-breaker T:DUR] [-max-batch N] [-queue N] [-grace DUR]
//	lcserve -promcheck FILE
//
// Build. The listener binds first (a taken port fails fast, exit 1),
// then the engine builds; the dynamic kinds (dynplanar, dynpartition)
// build by streaming OpInsert batches through the mutable engine.
// -layout rr deals records round-robin, sfc and kd place spatially
// close records together so the planner can skip shards. -replicas
// "5:3,0:2" clones the named shards onto extra devices right after
// the build (DESIGN.md §10). The robustness stack (DESIGN.md §12) arms
// from the command line: -faults installs fault plans on named replica
// devices ("SHARD:REPLICA:fail" or "SHARD:REPLICA:PROB:STALL"), -hedge
// arms hedged replica reads (a delay, or "auto"), -deadline bounds
// every run (late runs degrade unless -strict), and -breaker T:DUR
// arms the per-replica circuit breaker. -slow-ns N arms the flight
// recorder; -slo "p99=5ms,visited=4" and -watchdog 1s arm the health
// sampler behind /debug/health.
//
// Serve. One http.Server mounts the batching front-end (DESIGN.md §13)
// at /query (POST JSON or GET parameters) and /healthz, the registry at
// /metrics (JSON at /metrics.json, pprof under /debug/pprof/) and the
// engine introspection at /debug/slow, /debug/health and
// /debug/explain. -max-batch caps one flush, -queue bounds admission
// per stripe (full rings shed with 429).
//
// Drain. SIGINT/SIGTERM stops the HTTP server, then the front-end
// (every admitted request answered), then the engine, bounded by
// -grace; a blown drain exits non-zero. Lifecycle lines are one
// log/slog text stream on stdout.
//
// -promcheck FILE validates a saved Prometheus payload and exits: the
// CI smoke's stand-in for promtool.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"linconstraint"
	"linconstraint/internal/metrics"
	"linconstraint/internal/workload"
)

// loadBatch is how many OpInsert records one engine batch carries in
// the dynamic kinds' build feed.
const loadBatch = 32

func main() {
	// A signal cancels ctx: the process stops serving and the drain
	// races -grace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// fail logs msg at Error level and returns the exit code.
func fail(log *slog.Logger, code int, format string, a ...any) int {
	log.Error(fmt.Sprintf(format, a...))
	return code
}

// run is lcserve with its arguments, log writer and cancellation
// explicit: it returns the process exit code.
func run(ctx context.Context, args []string, stdout io.Writer) (code int) {
	log := slog.New(slog.NewTextHandler(stdout, nil))
	fs := flag.NewFlagSet("lcserve", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "planar", "index family: planar, 3d, knn, partition, dynplanar, dynpartition")
		layoutF = fs.String("layout", "rr", "shard layout: rr (round-robin), sfc (space-filling curve), kd (kd-cut)")
		n       = fs.Int("n", 100000, "number of records")
		shards  = fs.Int("shards", 8, "shard count")
		workers = fs.Int("workers", 8, "query worker pool size")
		dim     = fs.Int("dim", 3, "dimension for -kind partition/dynpartition")
		lat     = fs.Duration("lat", 0, "simulated disk latency per block miss")
		seed    = fs.Int64("seed", 1, "RNG seed")

		replicasF = fs.String("replicas", "", "comma-separated shard:degree pairs to replicate after the build, e.g. 5:3,0:2")
		promcheck = fs.String("promcheck", "", "validate a saved Prometheus text payload and exit (no engine run)")

		faultsF  = fs.String("faults", "", "fault-injection plans, comma-separated: SHARD:REPLICA:fail (hard fail) or SHARD:REPLICA:PROB:STALL (seeded brownout), e.g. 0:1:0.5:2ms")
		hedgeF   = fs.String("hedge", "", "hedged replica reads: a delay (e.g. 500us), or auto to track the windowed p99 ('' disables)")
		deadline = fs.Duration("deadline", 0, "per-run wall-clock deadline (0 disables); late runs degrade unless -strict")
		strict   = fs.Bool("strict", false, "with -deadline, let late runs complete instead of returning partial answers")
		breakerF = fs.String("breaker", "", "per-replica circuit breaker as T:DUR (trip threshold, open cooldown), e.g. 3:100ms")
		slowNs   = fs.Int64("slow-ns", 0, "flight recorder: capture any query run slower than this many nanoseconds, with full per-shard evidence (0 disables)")
		sloSpec  = fs.String("slo", "", "SLO objectives as comma-separated key=value pairs: p99=DUR (windowed p99 run latency) and/or visited=F (windowed mean shards visited); breaches burn engine_slo_breaches_total")
		watchdog = fs.Duration("watchdog", 0, "health watchdog tick interval (0 disables; 1s implied when -slo is set)")

		listen   = fs.String("listen", "", "required: serve /query, /healthz, /metrics and /debug/* on this host:port from the end of the build until SIGINT/SIGTERM")
		maxBatch = fs.Int("max-batch", 64, "most queued requests one flush coalesces into a single engine run (1 = passthrough)")
		queueCap = fs.Int("queue", 256, "per-stripe admission ring capacity (full rings shed with 429)")
		grace    = fs.Duration("grace", 10*time.Second, "drain budget at exit (HTTP server, front-end, engine): exit non-zero if draining takes longer")
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
			return fail(log, 1, "%v", err)
		}
		if err := metrics.CheckProm(payload); err != nil {
			return fail(log, 1, "promcheck %s: %v", *promcheck, err)
		}
		fmt.Fprintf(stdout, "promcheck %s: OK\n", *promcheck)
		return 0
	}

	// Every spec parses before the listener binds and the engine builds,
	// so a typo costs nothing.
	reg := linconstraint.NewMetrics()
	cfg := linconstraint.EngineConfig{
		Shards: *shards, Workers: *workers,
		Seed: *seed, IOLatency: *lat,
		Metrics: reg,
	}
	if *slowNs > 0 {
		cfg.FlightRecorder = linconstraint.FlightRecorderConfig{TotalNs: *slowNs}
	}
	sloP99, sloVisited, err := parseSLO(*sloSpec)
	if err != nil {
		return fail(log, 2, "bad -slo %q: %v", *sloSpec, err)
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
			return fail(log, 2, "bad -hedge %q (want a positive duration or auto)", *hedgeF)
		}
		cfg.HedgeAfter = d
	}
	if cfg.Breaker, err = parseBreaker(*breakerF); err != nil {
		return fail(log, 2, "bad -breaker %q: %v", *breakerF, err)
	}
	faults, err := parseFaults(*faultsF, *seed)
	if err != nil {
		return fail(log, 2, "bad -faults %q: %v", *faultsF, err)
	}
	replicas, err := parseReplicas(*replicasF)
	if err != nil {
		return fail(log, 2, "bad -replicas %q: %v", *replicasF, err)
	}
	switch *layoutF {
	case "rr":
		cfg.Partitioner = linconstraint.RoundRobinLayout()
	case "sfc":
		cfg.Partitioner = linconstraint.SFCLayout()
	case "kd":
		cfg.Partitioner = linconstraint.KDCutLayout()
	default:
		return fail(log, 2, "unknown -layout %q (want rr, sfc or kd)", *layoutF)
	}
	if *listen == "" {
		return fail(log, 2, "-listen HOST:PORT is required")
	}

	// Bind before the (possibly long) engine build, so a taken port
	// fails the run immediately instead of after minutes of building.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(log, 1, "-listen: %v", err)
	}
	defer ln.Close() // a failed build must not hold the port

	rng := rand.New(rand.NewSource(*seed))
	var eng *linconstraint.Engine
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
		eng = linconstraint.NewPlanarEngine(workload.Uniform2(rng, *n), cfg)
	case "3d":
		cfg.Window = linconstraint.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4}
		eng = linconstraint.NewEngine3D(workload.Cube3(rng, *n), cfg)
	case "knn":
		eng = linconstraint.NewKNNEngine(workload.Uniform2(rng, *n), cfg)
	case "partition":
		eng = linconstraint.NewPartitionEngine(workload.CubeD(rng, *n, *dim), cfg)
	case "dynplanar":
		pts := workload.Uniform2(rng, *n)
		eng = linconstraint.NewDynamicPlanarEngine(cfg)
		recs := make([]linconstraint.Record, len(pts))
		for i, p := range pts {
			recs[i] = linconstraint.Rec2(p)
		}
		err = feed(recs)
	case "dynpartition":
		pts := workload.CubeD(rng, *n, *dim)
		eng = linconstraint.NewDynamicPartitionEngine(cfg)
		recs := make([]linconstraint.Record, len(pts))
		for i, p := range pts {
			recs[i] = linconstraint.RecD(p)
		}
		err = feed(recs)
	default:
		return fail(log, 2, "unknown -kind %q", *kind)
	}
	if err != nil { // a dynamic kind's insert feed failed
		eng.Close()
		return fail(log, 1, "%v", err)
	}
	st := eng.Stats()
	log.Info("built", "records", eng.Len(), "shards", eng.NumShards(), "workers", eng.NumWorkers(),
		"took", time.Since(start).Round(time.Millisecond),
		"blocks", st.SpaceBlocks, "worst_shard_ios", st.MaxShardIOs)

	// From here on every return goes through the one drain: HTTP server,
	// front-end, engine, raced against -grace.
	sv := serve(ln, eng, reg, linconstraint.ServerConfig{
		MaxBatch: *maxBatch, QueueCap: *queueCap, Metrics: reg,
	})
	sv.log = log
	defer func() { code = sv.drain(eng, *grace, code) }()

	for _, r := range replicas {
		if err := eng.Replicate(r[0], r[1]); err != nil {
			return fail(log, 1, "%v", err)
		}
	}
	if len(replicas) > 0 {
		log.Info("replicas", "degrees", eng.Replicas())
	}

	// Fault plans install after the build (and after -replicas, so a
	// clone device can be named): the build itself always runs healthy.
	for _, f := range faults {
		if err := eng.InjectFaults(f.si, f.ri, f.plan); err != nil {
			return fail(log, 1, "%v", err)
		}
		if f.fail {
			if err := eng.FailReplica(f.si, f.ri); err != nil {
				return fail(log, 1, "%v", err)
			}
			log.Info("fault", "shard", f.si, "replica", f.ri, "mode", "hard-fail")
		} else {
			log.Info("fault", "shard", f.si, "replica", f.ri, "mode", "brownout",
				"p", f.plan.BrownoutProb, "stall", f.plan.BrownoutStall)
		}
	}

	log.Info("serving", "addr", ln.Addr().String(),
		"paths", "/query /healthz /metrics /metrics.json /debug/*", "until", "SIGINT/SIGTERM")
	return sv.wait(ctx)
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
		s, d, ok := strings.Cut(strings.TrimSpace(part), ":")
		si, err1 := strconv.Atoi(s)
		deg, err2 := strconv.Atoi(d)
		if !ok || err1 != nil || err2 != nil {
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
