// Package server is the network serving front-end for the sharded
// engine (DESIGN.md §13): it turns many small independent queries —
// one per HTTP request — into the large BatchInto runs the engine's
// hot path is optimized for.
//
// Requests land in a per-op striped batcher. Each op family owns
// Stripes independent stripes; a stripe is a buffered admission
// channel of QueueCap requests drained by one flusher goroutine that
// collects up to MaxBatch requests and runs them as a single
// Backend.BatchInto call on stripe-owned, capacity-reusing query/result
// arenas. A stripe flushes when it holds MaxBatch requests or its
// channel runs dry, whichever comes first — the flusher runs the batch
// itself, so requests that arrive while the engine is busy pile up in
// the channel and the next flush takes them all: batches form exactly
// when the engine is the bottleneck and an idle engine answers at once.
// MaxBatch=1 is exact passthrough. Admission is shed-not-buffer: a
// request that finds every stripe of its op full is rejected with
// StatusShed (HTTP 429) and counted, so queued memory is bounded by
// ops × Stripes × QueueCap requests plus the in-flight batches, no
// matter the offered load.
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
// Close stops admission (StatusClosed / HTTP 503) and closes every
// stripe's channel; each flusher drains and answers what its channel
// holds before exiting, so no waiter is ever stranded. The server never
// owns its backend: a query that reaches an engine closed before the
// server is answered StatusClosed too.
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
	// QueueCap is the number of requests each stripe's admission
	// channel holds (default 256). A request that finds its op's
	// stripes all full is shed instead of buffered.
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
	tDeq   time.Time     // received from the stripe by the flusher
	tFlush time.Time     // batch handed to the backend
	done   chan struct{} // capacity 1; exactly one token per admission
}

// stripe is one admission channel plus the arenas its flusher owns.
type stripe struct {
	ring chan *request // closed by Close under Server.mu

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
	be      Backend
	cfg     Config
	met     *serverMetrics
	stripes [nOps][]*stripe
	rr      [nOps]atomic.Uint32
	// mu is read-held by submit from the closed check to the push and
	// write-held by Close to set closed and close the rings, so no
	// push ever meets a closed ring.
	mu        sync.RWMutex
	closed    bool
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
			st := &stripe{ring: make(chan *request, cfg.QueueCap)}
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
// it keeps its buffer capacity. On StatusShed, or StatusClosed from a
// closed server, the backend was never touched and resp stays empty; a
// closed engine's StatusClosed carries its error in resp.Err. An
// inserted record's Rec.PD must not be reused by the caller: the index
// keeps it (see request).
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
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return StatusClosed
	}
	sts := s.stripes[op]
	start := int(s.rr[op].Add(1))
	pushed := false
	for i := 0; i < len(sts) && !pushed; i++ {
		select {
		case sts[(start+i)%len(sts)].ring <- r:
			if m != nil {
				m.queueDepth.Add(1)
			}
			pushed = true
		default:
		}
	}
	s.mu.RUnlock()
	if !pushed {
		if m != nil {
			m.shed.Inc()
		}
		return StatusShed
	}
	<-r.done
	return r.status
}

// flusher drains one stripe until Close closes its ring: take what
// the ring holds (up to MaxBatch) and flush it at once, block only on
// an empty ring. It never waits on a clock — whatever arrives during a
// flush is the next batch. Once the ring is closed the range drains
// what is left, so no waiter is stranded.
func (s *Server) flusher(st *stripe) {
	defer s.wg.Done()
	for r := range st.ring {
		s.gather(st, r)
		s.flush(st)
	}
}

// gather collects r, then whatever else the ring holds without waiting,
// up to MaxBatch requests, into st.batch.
func (s *Server) gather(st *stripe, r *request) {
	for ok := true; ok; {
		r.tDeq = time.Now()
		if s.met != nil {
			s.met.queueDepth.Add(-1)
		}
		st.batch = append(st.batch, r)
		if len(st.batch) == s.cfg.MaxBatch {
			return
		}
		select {
		case r, ok = <-st.ring:
		default:
			ok = false
		}
	}
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
			switch {
			case errors.Is(res.Err, engine.ErrClosed):
				r.status = StatusClosed
			case errors.Is(res.Err, index.ErrUnsupported), errors.Is(res.Err, engine.ErrImmutable):
				r.status = StatusBadRequest
			default:
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

// Close stops admission (new submissions get StatusClosed) and closes
// every stripe's ring; each flusher drains and answers what its ring
// holds before exiting. Safe to call more than once; every call returns
// only after the flushers have exited.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for op := range s.stripes {
			for _, st := range s.stripes[op] {
				close(st.ring)
			}
		}
	}
	s.mu.Unlock()
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
