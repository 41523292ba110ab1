package main

// Layer probes: each layer called directly through its public functions,
// on inputs of its own, so a traced run can say what a layer costs apart
// from the workload around it. They are the same on every workload.

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"linconstraint/internal/eio"
	"linconstraint/internal/engine"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/index"
	lcmetrics "linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/server"
)

// runProbes fills m with every probe metric.
func runProbes(seed int64, sc scale, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	n, nq := sc.probeN, sc.probeQ
	p2, p3 := dataset(n, 2), dataset(n, 3)
	halfplanes := halfplanePool(rng, p2, nq, 0.01)
	halfspaces := halfspacePool(rng, p3, nq, 0.01, false)
	knn := make([]index.Query, nq)
	for i := range knn {
		knn[i] = index.Query{Op: index.OpKNN, K: 16, Pt: geom.Point2{X: rng.Float64(), Y: rng.Float64()}}
	}
	dev := func() *eio.Device { return eio.NewDevice(blockSize, 0) }

	planar := probeIndex(m, "planar", halfplanes, func() index.Index {
		return index.NewPlanar(dev(), p2.point2s(), engineSeed)
	})
	probeIndex(m, "spatial3", halfspacePool(rng, p3, nq, 0.01, true), func() index.Index {
		return index.NewSpatial3(dev(), p3.point3s(), hull3d.Window{}, engineSeed)
	})
	probeIndex(m, "knn", knn, func() index.Index { return index.NewKNN(dev(), p2.point2s(), engineSeed) })
	probeIndex(m, "partition", halfspaces, func() index.Index { return index.NewPartition(dev(), p3.pointDs()) })
	probeIndex(m, "dynplanar", halfplanes, func() index.Index {
		idx := index.NewDynamicPlanar(dev(), engineSeed)
		for _, p := range p2.point2s() {
			idx.Insert(index.Record{P2: p}) // planar records are never rejected
		}
		return idx
	})
	dyn := probeIndex(m, "dynpartition", halfspaces, func() index.Index {
		idx := index.NewDynamicPartition(dev())
		for _, p := range p3.pointDs() {
			idx.Insert(index.Record{PD: p}) // one dimension throughout
		}
		return idx
	})

	// The paper's two constants for the §3 structure: query I/Os over
	// log_B n + t/B (t ≈ 1% of n here), and blocks used over ⌈n/B⌉.
	t := 0.01 * float64(n)
	m["index.planar.ios_over_bound"] = m["index.planar.ios_per_query"] /
		(math.Log(float64(n))/math.Log(blockSize) + t/blockSize)
	m["index.space_blocks_per_nb"] = float64(planar.Stats().SpaceBlocks) / math.Ceil(float64(n)/blockSize)

	// Writes on the bare mutable index; engine − index is the fan-out cost.
	mut := dyn.(index.Mutable)
	fresh := uniform(rng, nq, 3).pointDs()
	t0 := time.Now()
	for _, p := range fresh {
		mut.Insert(index.Record{PD: p})
	}
	m["index.dynpartition.insert_us_mean"] = us(time.Since(t0)) / float64(nq)
	t0 = time.Now()
	for _, p := range p3.pointDs()[:nq] {
		mut.Delete(index.Record{PD: p})
	}
	m["index.dynpartition.delete_us_mean"] = us(time.Since(t0)) / float64(nq)

	// What sharding costs or saves over the bare structure: the same
	// points and operands behind an 8-shard KD-tiled engine.
	eng := engine.NewPlanar(p2.point2s(), engine.Options{
		Shards: shards, BlockSize: blockSize, Seed: engineSeed, Partitioner: partition.NewKDCut(),
	})
	qs, lat := make([]index.Query, 1), make([]int32, 0, 2*nq)
	var res []engine.Result
	for i := 0; i < 2*nq; i++ { // first half warms the arenas
		qs[0] = halfplanes[i%nq]
		t0 := time.Now()
		res = eng.BatchInto(qs, res)
		lat = append(lat, clampNs(int64(time.Since(t0))))
	}
	eng.Close()
	m["engine.vs_index_ratio"] = quantile(lat[nq:], 0.5) / 1e3 / m["index.planar.query_us_p50"]

	probeDevice(m)
	probeHandler(m, 4*nq, sc.planarN/100)
}

// probeIndex builds one unsharded index and answers every query once
// through QueryInto, reusing one Answer.
func probeIndex(m map[string]float64, fam string, queries []index.Query, build func() index.Index) index.Index {
	t0 := time.Now()
	idx := build()
	m["index."+fam+".build_s"] = time.Since(t0).Seconds()
	var ans index.Answer
	ask := func(q index.Query) {
		ans.IDs, ans.Recs, ans.Neighbors = ans.IDs[:0], ans.Recs[:0], ans.Neighbors[:0]
		idx.QueryInto(q, &ans) // every probe queries an op its family serves
	}
	for _, q := range queries[:min(64, len(queries))] {
		ask(q)
	}
	before := idx.Stats().IO.IOs()
	lat := make([]int32, len(queries))
	for i, q := range queries {
		t0 := time.Now()
		ask(q)
		lat[i] = clampNs(int64(time.Since(t0)))
	}
	m["index."+fam+".query_us_p50"] = quantile(lat, 0.5) / 1e3
	m["index."+fam+".ios_per_query"] = float64(idx.Stats().IO.IOs()-before) / float64(len(queries))
	return idx
}

// probeDevice times eio.Device.Read on its two fast paths: a hit in the
// LRU, and the counter-only path of an uncached zero-latency device.
func probeDevice(m map[string]float64) {
	const reads = 1 << 20
	cached := eio.NewDevice(blockSize, 64)
	id := cached.Alloc(1)
	cached.Read(id)
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		cached.Read(id)
	}
	m["eio.read_hit_ns"] = float64(time.Since(t0)) / reads
	bare := eio.NewDevice(blockSize, 0)
	base := bare.Alloc(64)
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		bare.Read(base + eio.BlockID(i&63))
	}
	m["eio.read_uncached_ns"] = float64(time.Since(t0)) / reads
}

// sleepActualUs is what one time.Sleep(ioLatency) costs on this runner.
func sleepActualUs() float64 {
	const sleeps = 100
	t0 := time.Now()
	for i := 0; i < sleeps; i++ {
		time.Sleep(ioLatency)
	}
	return us(time.Since(t0)) / sleeps
}

// canned answers every query with the same ids, so the handler probe
// measures the server layer and nothing behind it.
type canned struct{ ids []int }

func (c canned) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{IDs: c.ids, ShardsVisited: 1, ShardsPruned: shards - 1})
	}
	return res
}

// nullWriter is an http.ResponseWriter that keeps nothing.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// probeHandler drives Server.ServeHTTP in passthrough mode over the
// canned backend: decode, admission, hand-off to the flusher, demux copy
// and encode of a reply as large as planar_serve's (ids of them), with no
// batch timer and no network in the way.
func probeHandler(m map[string]float64, n, ids int) {
	c := canned{ids: make([]int, ids)}
	for i := range c.ids {
		c.ids[i] = i * 97
	}
	srv := server.New(c, server.Config{MaxBatch: 1})
	defer srv.Close()
	reqs := make([]*http.Request, n)
	for i := range reqs {
		var err error
		if i%2 == 0 {
			reqs[i], err = http.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(`{"op":"halfplane","a":0.5,"b":0.25}`)))
		} else {
			reqs[i], err = http.NewRequest(http.MethodGet, "/query?op=halfplane&a=0.5&b=0.25", nil)
		}
		if err != nil {
			panic(err) // constant, well-formed requests
		}
	}
	w := &nullWriter{h: http.Header{}}
	srv.ServeHTTP(w, reqs[0])
	srv.ServeHTTP(w, reqs[1])
	reqs = reqs[2:]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	for _, r := range reqs {
		srv.ServeHTTP(w, r)
	}
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	k := float64(len(reqs))
	m["server.handler_cpu_us_per_req"] = us(cpu) / k
	m["server.handler_allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / k
	m["server.handler_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / k
}

// timeScrape is the cost of one Prometheus exposition of the armed registry.
func timeScrape(reg *lcmetrics.Registry) float64 {
	const scrapes = 20
	var sb strings.Builder
	t0 := time.Now()
	for i := 0; i < scrapes; i++ {
		sb.Reset()
		reg.WriteProm(&sb)
	}
	return us(time.Since(t0)) / scrapes
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
