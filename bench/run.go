package main

// One measured run of one workload: set up, verify every operand against
// the oracle (which also warms every buffer), run the timed phase between
// two marks, tear down.

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"linconstraint/internal/engine"
	"linconstraint/internal/index"
	lcmetrics "linconstraint/internal/metrics"
	"linconstraint/internal/server"
)

// system is what set-up builds: the engine and, for a served workload,
// the front-end on a loopback listener.
type system struct {
	eng  *engine.Engine
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func (sp *spec) setup(in *inputs, reg *lcmetrics.Registry, wrap func(*engine.Engine) server.Backend) (*system, error) {
	eng, err := sp.build(in, reg)
	if err != nil {
		return nil, err
	}
	sys := &system{eng: eng}
	if !sp.serve {
		return sys, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	sys.srv = server.New(wrap(eng), server.Config{Metrics: reg})
	sys.hs = &http.Server{Handler: sys.srv}
	sys.url = "http://" + ln.Addr().String() + "/query"
	sys.done = make(chan struct{})
	go func() {
		defer close(sys.done)
		sys.hs.Serve(ln) // returns ErrServerClosed from close below
	}()
	return sys, nil
}

// close tears down in the documented order: listener, front-end, engine.
func (s *system) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
		s.srv.Close()
	}
	s.eng.Close()
}

// recorder is one caller's view of the timed phase.
type recorder struct {
	lat               [nKinds][]int32 // ns per timed op, in the order issued
	ops               int64           // individual queries and updates completed
	attempted, failed int64
}

func newRecorder(capacity int) *recorder {
	r := &recorder{}
	r.lat[opRead] = make([]int32, 0, capacity)
	r.lat[opInsert] = make([]int32, 0, capacity/8)
	r.lat[opDelete] = make([]int32, 0, capacity/8)
	return r
}

// done records one timed op of kind k that took ns and completed n
// queries or updates.
func (r *recorder) done(k opKind, ns int64, n int) {
	if len(r.lat[k]) < cap(r.lat[k]) {
		r.lat[k] = append(r.lat[k], clampNs(ns))
	}
	r.ops += int64(n)
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.ops += o.ops
	r.attempted += o.attempted
	r.failed += o.failed
}

func (r *recorder) all() []int32 { return slices.Concat(r.lat[:]...) }

func (r *recorder) samples() int {
	return len(r.lat[opRead]) + len(r.lat[opInsert]) + len(r.lat[opDelete])
}

// mark is the process and engine state at one edge of the timed phase.
type mark struct {
	t    time.Time
	cpu  time.Duration // process user+sys
	mem  runtime.MemStats
	st   engine.Stats
	snap *lcmetrics.Snapshot
}

// takeMark reads in mirror order at the two edges — the allocating sources
// (Stats, Snapshot) outermost, then MemStats, then CPU and clock — so each
// delta holds only what ran between the marks.
func takeMark(e *engine.Engine, reg *lcmetrics.Registry, opening bool) mark {
	var m mark
	outer := func() {
		m.st = e.Stats()
		if reg != nil {
			m.snap = reg.Snapshot()
		}
	}
	if opening {
		outer()
		runtime.ReadMemStats(&m.mem)
		m.cpu, m.t = processCPU(), time.Now()
	} else {
		m.t, m.cpu = time.Now(), processCPU()
		runtime.ReadMemStats(&m.mem)
		outer()
	}
	return m
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOut is everything one run measured.
type runOut struct {
	sp         *spec
	setupS     []float64
	rec        *recorder // every caller's samples and counts together
	begin, end mark
	heapLive   uint64 // HeapAlloc after a forced GC at the end of the phase
	heapPeak   uint64 // largest live-object bytes seen at a pass boundary (traced)
	goroutines int
	clients    int

	// traced runs only
	be       *tracedBackend
	sv       *serveStats
	explain  []int32 // ns per Engine.ExplainInto over the pool
	scrapeUs float64
}

// runOnce measures sp for about seconds. With tr set the run is traced:
// a metrics registry is attached to engine and server, the engine sits
// behind the span-recording shim.
func runOnce(sp *spec, in *inputs, seed int64, sc scale, seconds float64, tr *tracer) (*runOut, error) {
	out := &runOut{sp: sp, clients: 1}
	if sp.serve {
		out.clients = serveClients
	}

	var reg *lcmetrics.Registry
	wrap := func(e *engine.Engine) server.Backend { return e }
	if tr != nil {
		wrap = func(e *engine.Engine) server.Backend {
			out.be = &tracedBackend{eng: e, tr: tr, flights: make([]inflight, out.clients), callNs: make([]int32, 0, sc.sampleCap)}
			if sp.serve {
				out.be.owner = ownerOf(in.pool, out.clients)
			}
			return out.be
		}
	}
	var sys *system
	for i := 0; i < sc.setups; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // the discarded build is not this one's to collect
		if tr != nil {
			reg = lcmetrics.NewRegistry()
		}
		t0 := time.Now()
		s, err := sp.setup(in, reg, wrap)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()
	logf("%s: %d set-up(s), median %.3fs", sp.name, sc.setups, median(out.setupS))

	phase := func(run func(deadline time.Time)) {
		if tr != nil {
			tr.reset()
			out.be.reset()
		}
		out.begin = takeMark(sys.eng, reg, true)
		run(out.begin.t.Add(time.Duration(seconds * float64(time.Second))))
		out.end = takeMark(sys.eng, reg, false)
		out.goroutines = runtime.NumGoroutine()
	}

	if sp.serve {
		cs := newClients(in, sys.url, sc, tr, out.be)
		defer cs.close()
		att, failed := cs.verify()
		logf("%s: oracle checked %d operands, %d wrong", sp.name, att, failed)
		phase(cs.run)
		out.rec, out.sv = cs.merged()
		out.rec.attempted += int64(att)
		out.rec.failed += int64(failed)
		out.heapPeak = cs.heapPeak()
	} else {
		var be server.Backend = sys.eng
		if tr != nil {
			be = wrap(sys.eng)
		}
		c := newCaller(sp, in, seed, sc, be, tr)
		att, failed := c.verify()
		logf("%s: oracle checked %d operands, %d wrong", sp.name, att, failed)
		phase(c.run)
		out.rec = c.rec
		out.rec.attempted += int64(att)
		out.rec.failed += int64(failed)
		out.heapPeak = c.heapPeak
	}

	logf("%s: timed phase %.2fs, %d ops, %d failed", sp.name, out.end.t.Sub(out.begin.t).Seconds(), out.rec.ops, out.rec.failed)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapLive = ms.HeapAlloc

	if tr != nil {
		out.explain = timeExplain(sys.eng, in.pool, sc.probeQ)
		out.scrapeUs = timeScrape(reg)
	}
	return out, nil
}

// caller is the single goroutine of a direct workload. Its buffers are
// sized by verification, so the timed phase allocates nothing of its own.
type caller struct {
	be       server.Backend
	src      source
	qs       []index.Query
	res      []engine.Result
	rec      *recorder
	tr       *tracer
	flight   *inflight
	heapPeak uint64
}

func newCaller(sp *spec, in *inputs, seed int64, sc scale, be server.Backend, tr *tracer) *caller {
	c := &caller{be: be, qs: make([]index.Query, sp.batch), tr: tr}
	if in.inserts.flat != nil {
		c.src = newMixSource(in, seed, sc.recheckEvery)
	} else {
		c.src = &poolSource{in: in, batch: sp.batch}
	}
	c.rec = newRecorder(sc.sampleCap)
	if tb, ok := be.(*tracedBackend); ok {
		c.flight = &tb.flights[0]
	}
	return c
}

func (c *caller) verify() (int, int) {
	return c.src.verify(c.qs, func() []engine.Result {
		c.res = c.be.BatchInto(c.qs, c.res)
		return c.res
	})
}

// run issues whole passes until the time is up, so a static workload's I/O
// count per op is the same whenever it stops.
func (c *caller) run(deadline time.Time) {
	pass := c.src.passLen()
	for {
		for i := 0; i < pass; i++ {
			kind := c.src.next(c.qs)
			var root int64
			t0 := time.Now()
			if c.tr != nil {
				root = c.tr.open("caller.op", c.tr.now())
				c.flight.root.Store(root)
			}
			c.res = c.be.BatchInto(c.qs, c.res)
			ns := int64(time.Since(t0))
			if c.tr != nil {
				c.tr.close(root, c.tr.now())
			}
			c.rec.done(kind, ns, len(c.qs))
			c.rec.attempted += int64(len(c.qs))
			c.rec.failed += int64(c.src.check(c.res))
		}
		if c.tr != nil {
			c.heapPeak = max(c.heapPeak, liveHeap())
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// liveHeap reads the bytes held by heap objects without stopping the
// world. One goroutine per run calls it.
func liveHeap() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

func timeExplain(e *engine.Engine, pool []index.Query, n int) []int32 {
	var ex engine.Explain
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e.ExplainInto(pool[i%len(pool)], &ex)
		out = append(out, clampNs(int64(time.Since(t0))))
	}
	return out
}
