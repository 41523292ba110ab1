package main

// Tracing from outside: spans are recorded by the benchmark around its
// calls into each layer, never by the program. A traced run keeps them
// in one preallocated slice and writes them when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"linconstraint/internal/engine"
	"linconstraint/internal/index"
)

// span is one timed interval. Parent is the id of the span that caused
// it, 0 for a root (one request as its caller sees it). A span's self
// time is its duration minus the part its children cover.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// reset forgets what warm-up recorded; the timed phase starts empty.
func (t *tracer) reset() {
	t.next.Store(0)
	t.dropped.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id, or 0 once the slice is
// full (the run goes on; the file says how many were dropped).
func (t *tracer) add(parent int64, name string, start, end int64) int64 {
	id := t.next.Add(1)
	if id > int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end}
	return id
}

// open reserves a root span whose children are recorded before it ends.
func (t *tracer) open(name string, start int64) int64 { return t.add(0, name, start, start) }

func (t *tracer) close(id, end int64) {
	if id > 0 {
		t.spans[id-1].EndNs = end
	}
}

func (t *tracer) recorded() []span { return t.spans[:min(t.next.Load(), int64(len(t.spans)))] }

type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"dropped"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spanFile{workload, seed, t.dropped.Load(), t.recorded()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// inflight is one caller's current request: the root span its children
// hang under, and where the engine run that answered it began and ended
// (the serve client anchors the server's wait spans on that).
type inflight struct {
	root, runStart, runEnd atomic.Int64
	_                      [40]byte // callers on different cores write these
}

// tracedBackend is the shim between a caller (the direct loop, or the
// server's flushers) and the engine. It times every BatchInto from
// outside and records it as a child of each request the run answered.
type tracedBackend struct {
	eng     *engine.Engine
	tr      *tracer
	flights []inflight
	// owner maps an operand back to the client that sent it; nil when
	// there is one caller. Each client has one request in flight, so the
	// client identifies the request.
	owner func(q *index.Query) int

	mu      sync.Mutex
	callNs  []int32
	queries int64
}

func (b *tracedBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	t0 := b.tr.now()
	res = b.eng.BatchInto(qs, res)
	t1 := b.tr.now()
	if b.owner == nil {
		b.tr.add(b.flights[0].root.Load(), "engine.BatchInto", t0, t1)
	} else {
		for i := range qs {
			fl := &b.flights[b.owner(&qs[i])]
			fl.runStart.Store(t0)
			fl.runEnd.Store(t1)
			b.tr.add(fl.root.Load(), "engine.BatchInto", t0, t1)
		}
	}
	b.mu.Lock()
	if len(b.callNs) < cap(b.callNs) {
		b.callNs = append(b.callNs, clampNs(t1-t0))
	}
	b.queries += int64(len(qs))
	b.mu.Unlock()
	return res
}

func (b *tracedBackend) reset() {
	b.mu.Lock()
	b.callNs, b.queries = b.callNs[:0], 0
	b.mu.Unlock()
}

func clampNs(ns int64) int32 { return int32(min(ns, 1<<31-1)) }
