// Package server is the network serving front-end for the sharded
// engine (DESIGN.md §13): it turns many small independent queries —
// one per HTTP request — into the large BatchInto runs the engine's
// hot path is optimized for.
//
// Requests land in a per-op striped batcher. Each op family owns
// Stripes independent stripes; a stripe is a bounded MPMC admission
// ring (mpmc.go) drained by one flusher goroutine that collects up to
// MaxBatch requests and runs them as a single Backend.BatchInto call
// on stripe-owned, capacity-reusing query/result arenas. A stripe
// flushes when it holds MaxBatch requests or its ring runs dry,
// whichever comes first — the flusher runs the batch itself, so
// requests that arrive while the engine is busy pile up in the ring and
// the next flush takes them all: batches form exactly when the engine
// is the bottleneck and an idle engine answers at once. MaxBatch=1 is
// exact passthrough. Admission is shed-not-buffer: a push into a full ring
// fails and the request is rejected with StatusShed (HTTP 429) and
// counted, so queued memory is bounded by ops × Stripes × QueueCap
// requests plus the in-flight batches, no matter the offered load.
//
// Responses are demultiplexed back to the blocked request goroutines:
// the flusher deep-copies each engine Result into the request's
// caller-owned Response — so the engine's arenas recycle on the next
// flush without aliasing — and signals the request's done channel.
// Every response carries latency attribution (queue wait, batch wait,
// run, total), also observed into windowed histograms when a metrics
// registry is attached. Degraded engine answers (a missed deadline
// under Options.Deadline with Strict=false) map to StatusPartial
// (HTTP 206) with the missing shards listed, so clients see graceful
// degradation rather than silent truncation.
//
// Shutdown ordering is server before engine: Close stops admission
// (StatusClosed / HTTP 503), waits out in-flight admissions, then has
// every flusher drain and answer its ring before exiting — no waiter
// is ever stranded. Only after Close returns may the engine be closed;
// the server never owns its backend.
package server

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"linconstraint/internal/engine"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/planner"
)

// Backend is the query executor behind the batcher: *engine.Engine
// satisfies it. BatchInto must follow the engine's contract — results
// are refilled in place and owned by the callee until the next call.
type Backend interface {
	BatchInto(qs []index.Query, results []engine.Result) []engine.Result
}

// Config tunes the striped batcher. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// MaxBatch caps how many queued requests one flush coalesces into a
	// single engine run (default 64). 1 means exact passthrough: every
	// request becomes its own engine run.
	MaxBatch int
	// QueueCap is each stripe's admission-ring capacity (default 256,
	// rounded up to a power of two). A push into a full ring sheds the
	// request instead of buffering it.
	QueueCap int
	// Stripes is the number of independent stripes per op family
	// (default GOMAXPROCS capped at 4). Requests round-robin across
	// their op's stripes and spill to a sibling before shedding.
	Stripes int
	// Metrics, when non-nil, receives the server's instruments (the
	// server_* series; metrics.go). Give the server the same registry
	// as its engine — the name sets are disjoint — but at most one
	// server per registry (instrument names register once).
	Metrics *metrics.Registry
}

// nOps sizes the per-op stripe table; index ops are a dense iota.
const nOps = int(index.OpDelete) + 1

// request is one in-flight query: pooled by the server, alive from
// admission until the flusher signals done. The operand slices inside
// q (Coef, Constraints, Rec.PD) are freshly allocated per request. An
// inserted record's Rec.PD is kept by the index, so it must never be
// pooled; Coef and Constraints are copied into the engine's run arena,
// so a degraded run's abandoned stragglers never read them after the
// response is delivered; they are simply not pooled yet.
type request struct {
	q      index.Query
	out    *Response // caller-owned; filled by the flusher before done
	status Status
	tEnq   time.Time     // admission (submit entry)
	tDeq   time.Time     // popped from the ring by the flusher
	tFlush time.Time     // batch handed to the backend
	done   chan struct{} // capacity 1; exactly one token per admission
}

// stripe is one admission ring plus the arenas its flusher owns.
type stripe struct {
	ring   *mpmc
	notify chan struct{} // capacity 1: producer kick, collapsed under load
	stop   chan struct{} // closed by Close after admission quiesces

	// Flusher-owned; reused across flushes (the BatchInto arena contract).
	batch []*request
	qs    []index.Query
	res   []engine.Result
}

// Server is the batching front-end. Create with New, serve via Do or
// the http.Handler in http.go, stop with Close.
//
// The handler sets no connection timeouts: those belong to the
// http.Server it is mounted on. A caller mounting it on its own server
// should set ReadHeaderTimeout, ReadTimeout and IdleTimeout, as
// cmd/lcserve/serve.go does, so a slow or silent client cannot hold a
// connection open. WriteTimeout is left to the caller because it covers
// every handler on that server: a query reply is small, but a streaming
// handler beside it (cmd/lcserve mounts /debug/pprof/profile, which
// streams for as long as the client asks) would be cut off.
type Server struct {
	be        Backend
	cfg       Config
	met       *serverMetrics
	stripes   [nOps][]*stripe
	rr        [nOps]atomic.Uint32
	closed    atomic.Bool
	admitting atomic.Int64 // producers between the closed check and their push
	wg        sync.WaitGroup
	reqPool   sync.Pool
	replyPool sync.Pool // *reply, the HTTP handler's per-request state
}

// New starts a server over be: cfg.Stripes flusher goroutines per op
// family, running until Close.
func New(be Backend, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = runtime.GOMAXPROCS(0)
		if cfg.Stripes > 4 {
			cfg.Stripes = 4
		}
	}
	s := &Server{be: be, cfg: cfg, met: newServerMetrics(cfg.Metrics)}
	for op := range s.stripes {
		sts := make([]*stripe, cfg.Stripes)
		for i := range sts {
			st := &stripe{
				ring:   newMPMC(cfg.QueueCap),
				notify: make(chan struct{}, 1),
				stop:   make(chan struct{}),
			}
			sts[i] = st
			s.wg.Add(1)
			go s.flusher(st)
		}
		s.stripes[op] = sts
	}
	return s
}

// Do submits one query through the batcher and blocks until its batch
// has flushed: the transport-independent entry point (the HTTP handler
// is a thin wrapper over it; a raw-TCP framing would call it the same
// way). resp is reset and refilled in place, so a caller that reuses
// it keeps its buffer capacity. On StatusShed or StatusClosed the
// backend was never touched and resp stays empty. An inserted record's
// Rec.PD must not be reused by the caller: the index keeps it (see
// request).
func (s *Server) Do(q index.Query, resp *Response) Status {
	resp.reset()
	r := s.getReq()
	r.q = q
	r.out = resp
	st := s.submit(r)
	s.putReq(r)
	return st
}

func (s *Server) submit(r *request) Status {
	r.tEnq = time.Now()
	op := int(r.q.Op)
	if op < 0 || op >= nOps {
		r.out.Err = "unknown op"
		return StatusBadRequest
	}
	m := s.met
	if m != nil {
		m.requests.Inc(planner.OpIndex(r.q.Op))
	}
	// The admitting counter brackets the closed check and the push, so
	// Close can wait for every producer that saw closed=false to land
	// in a ring before it tells the flushers to drain.
	s.admitting.Add(1)
	if s.closed.Load() {
		s.admitting.Add(-1)
		return StatusClosed
	}
	sts := s.stripes[op]
	start := int(s.rr[op].Add(1))
	pushed := false
	for i := 0; i < len(sts); i++ {
		st := sts[(start+i)%len(sts)]
		if st.ring.tryPush(r) {
			if m != nil {
				m.queueDepth.Add(1)
			}
			select {
			case st.notify <- struct{}{}:
			default:
			}
			pushed = true
			break
		}
	}
	s.admitting.Add(-1)
	if !pushed {
		if m != nil {
			m.shed.Inc()
		}
		return StatusShed
	}
	<-r.done
	return r.status
}

// flusher drains one stripe until stop: gather what the ring holds (up
// to MaxBatch) and flush it at once, park only on an empty ring. It
// never waits on a clock — whatever arrives during a flush is the next
// batch. After stop, admission has quiesced (Close waited out
// admitting), so once gather runs dry the stripe is truly empty and no
// waiter is stranded.
func (s *Server) flusher(st *stripe) {
	defer s.wg.Done()
	for {
		if s.gather(st) {
			s.flush(st)
			continue
		}
		select {
		case <-st.notify:
		case <-st.stop:
			for s.gather(st) {
				s.flush(st)
			}
			return
		}
	}
}

// gather pops up to MaxBatch requests off the ring into st.batch and
// reports whether it collected any.
func (s *Server) gather(st *stripe) bool {
	for len(st.batch) < s.cfg.MaxBatch {
		r, ok := st.ring.tryPop()
		if !ok {
			break
		}
		r.tDeq = time.Now()
		if s.met != nil {
			s.met.queueDepth.Add(-1)
		}
		st.batch = append(st.batch, r)
	}
	return len(st.batch) > 0
}

// flush runs the collected batch as one BatchInto and demultiplexes:
// deep-copy each result into its request's caller-owned Response,
// classify, attribute latency, signal done.
func (s *Server) flush(st *stripe) {
	m := s.met
	tFlush := time.Now()
	st.qs = st.qs[:0]
	for _, r := range st.batch {
		r.tFlush = tFlush
		st.qs = append(st.qs, r.q)
	}
	st.res = s.be.BatchInto(st.qs, st.res[:0])
	tDone := time.Now()
	runNs := tDone.Sub(tFlush).Nanoseconds()
	if m != nil {
		m.batches.Inc()
		m.batchSize.Observe(int64(len(st.batch)))
	}
	for i, r := range st.batch {
		res := &st.res[i]
		r.out.fill(res, len(st.batch))
		switch {
		case res.Err != nil:
			r.out.Err = res.Err.Error()
			if errors.Is(res.Err, index.ErrUnsupported) {
				r.status = StatusBadRequest
			} else {
				r.status = StatusError
			}
		case res.Degraded:
			r.status = StatusPartial
		default:
			r.status = StatusOK
		}
		lat := &r.out.Lat
		lat.QueueNs = r.tDeq.Sub(r.tEnq).Nanoseconds()
		lat.BatchNs = tFlush.Sub(r.tDeq).Nanoseconds()
		lat.RunNs = runNs
		lat.TotalNs = tDone.Sub(r.tEnq).Nanoseconds()
		if m != nil {
			m.queueWaitWin.Observe(lat.QueueNs)
			m.totalWin.Observe(lat.TotalNs)
		}
		st.batch[i] = nil
		r.done <- struct{}{}
	}
	st.batch = st.batch[:0]
}

// Close stops admission (new submissions get StatusClosed), waits out
// producers already past the closed check, then stops the flushers —
// each drains its ring and answers every admitted request before
// exiting. Safe to call more than once; every call returns only after
// the flushers have exited. Close the backend engine only after Close
// returns (shutdown ordering: server, then engine).
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		for s.admitting.Load() != 0 {
			runtime.Gosched()
		}
		for op := range s.stripes {
			for _, st := range s.stripes[op] {
				close(st.stop)
			}
		}
	}
	s.wg.Wait()
}

func (s *Server) getReq() *request {
	if v := s.reqPool.Get(); v != nil {
		return v.(*request)
	}
	return &request{done: make(chan struct{}, 1)}
}

func (s *Server) putReq(r *request) {
	r.q = index.Query{}
	r.out = nil
	s.reqPool.Put(r)
}
