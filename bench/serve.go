package main

// planar_serve's load generator: closed-loop HTTP clients, one keep-alive
// connection each, every one waiting for its reply before sending again —
// callers of lcserve that need the answer to go on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"linconstraint/internal/index"
	"linconstraint/internal/server"
)

// decodeEvery is how often a timed reply is decoded in full and its ids
// counted against the oracle; the others are checked by status. Decoding
// a thousand ids costs the client about as much CPU as the server spent
// encoding them, and the client shares the machine with the server.
const decodeEvery = 64

// serveStats is what the clients alone can see of the server layer.
type serveStats struct {
	sent, shed              int64
	respBytes               int64
	queueNs, batchNs, runNs int64 // sums of the replies' lat object
	latSeen                 int64
	wireNs                  []int32 // round trip − lat.total_ns
}

type client struct {
	id     int
	hc     *http.Client
	tp     *http.Transport
	in     *inputs
	mine   []int // pool indices this client sends
	posts  [][]byte
	gets   []string
	url    string
	buf    bytes.Buffer
	reply  server.Response
	rec    *recorder
	sv     serveStats
	tr     *tracer
	flight *inflight
	peak   uint64
}

type clients struct{ cs []*client }

// serveClients is planar_serve's connection count: no more client
// goroutines than CPUs, because the load generator shares the machine with
// the system under test.
var serveClients = min(2, runtime.NumCPU())

func newClients(in *inputs, target string, sc scale, tr *tracer, be *tracedBackend) *clients {
	n := serveClients
	out := &clients{}
	for id := 0; id < n; id++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		c := &client{id: id, hc: &http.Client{Transport: tp}, tp: tp, in: in, url: target,
			rec: newRecorder(sc.sampleCap / n), tr: tr}
		if tr != nil {
			c.flight = &be.flights[id]
			c.sv.wireNs = make([]int32, 0, sc.sampleCap/n)
		}
		for i := id; i < len(in.pool); i += n {
			q := in.pool[i]
			a, b := strconv.FormatFloat(q.A, 'g', -1, 64), strconv.FormatFloat(q.B, 'g', -1, 64)
			c.mine = append(c.mine, i)
			c.posts = append(c.posts, []byte(`{"op":"halfplane","a":`+a+`,"b":`+b+`}`))
			c.gets = append(c.gets, target+"?"+url.Values{"op": {"halfplane"}, "a": {a}, "b": {b}}.Encode())
		}
		out.cs = append(out.cs, c)
	}
	return out
}

// ownerOf maps an operand back to the client that sends it, for the shim.
func ownerOf(pool []index.Query, n int) func(*index.Query) int {
	at := make(map[[2]float64]int32, len(pool))
	for i, q := range pool {
		at[[2]float64{q.A, q.B}] = int32(i % n)
	}
	return func(q *index.Query) int { return int(at[[2]float64{q.A, q.B}]) }
}

func (cs *clients) each(fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// verify sends every distinct operand once, POST and GET alternating,
// decodes the JSON body and compares its ids with the oracle.
func (cs *clients) verify() (attempted, failed int) {
	in := cs.cs[0].in
	in.counts = make([]int, len(in.pool))
	var mu sync.Mutex
	cs.each(func(c *client) {
		bad := 0
		for k, i := range c.mine {
			want := in.points.scanIDs(constraintsOf(in.pool[i]))
			in.counts[i] = len(want)
			code, _, err := c.roundTrip(k, k%2 == 0)
			if err != nil || code != http.StatusOK || c.decode() != nil || !slices.Equal(c.reply.IDs, want) {
				bad++
			}
		}
		mu.Lock()
		attempted += len(c.mine)
		failed += bad
		mu.Unlock()
	})
	return attempted, failed
}

func (cs *clients) run(deadline time.Time) {
	cs.each(func(c *client) { c.run(deadline) })
}

func (cs *clients) merged() (*recorder, *serveStats) {
	rec, sv := &recorder{}, &serveStats{}
	for _, c := range cs.cs {
		rec.merge(c.rec)
		sv.sent += c.sv.sent
		sv.shed += c.sv.shed
		sv.respBytes += c.sv.respBytes
		sv.queueNs += c.sv.queueNs
		sv.batchNs += c.sv.batchNs
		sv.runNs += c.sv.runNs
		sv.latSeen += c.sv.latSeen
		sv.wireNs = append(sv.wireNs, c.sv.wireNs...)
	}
	return rec, sv
}

func (cs *clients) heapPeak() uint64 { return cs.cs[0].peak }

func (cs *clients) close() {
	for _, c := range cs.cs {
		c.tp.CloseIdleConnections()
	}
}

// roundTrip sends this client's k-th operand and reads the whole body
// into c.buf, returning the status and the time the caller waited.
func (c *client) roundTrip(k int, post bool) (int, time.Duration, error) {
	var resp *http.Response
	var err error
	t0 := time.Now()
	if post {
		resp, err = c.hc.Post(c.url, "application/json", bytes.NewReader(c.posts[k]))
	} else {
		resp, err = c.hc.Get(c.gets[k])
	}
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

func (c *client) decode() error {
	c.reply = server.Response{IDs: c.reply.IDs[:0]}
	return json.Unmarshal(c.buf.Bytes(), &c.reply)
}

// lat extracts the reply's latency attribution without decoding the ids:
// Response.Lat is the last field the server encodes.
func (c *client) lat() (server.Latency, error) {
	var l server.Latency
	body := c.buf.Bytes()
	at := bytes.LastIndex(body, []byte(`"lat":`))
	end := bytes.LastIndexByte(body, '}')
	if at < 0 || end < at {
		return l, fmt.Errorf("reply carries no lat object")
	}
	return l, json.Unmarshal(body[at+len(`"lat":`):end], &l)
}

// stopEvery is how many requests a client sends between looks at the
// deadline. Clients that finished whole passes could end a
// second apart, and the one still running would have the machine to itself.
const stopEvery = 128

// run cycles this client's operands until the deadline, swapping which go
// by POST and which by GET on every pass.
func (c *client) run(deadline time.Time) {
	for pass := 0; ; pass++ {
		for k, i := range c.mine {
			if k%stopEvery == 0 && !time.Now().Before(deadline) {
				return
			}
			var root, start int64
			if c.tr != nil {
				start = c.tr.now()
				root = c.tr.open("http.roundtrip", start)
				c.flight.root.Store(root)
			}
			code, dt, err := c.roundTrip(k, (k+pass)%2 == 0)
			c.rec.attempted++
			c.sv.sent++
			switch {
			case err != nil || code != http.StatusOK:
				c.rec.failed++
				if code == http.StatusTooManyRequests {
					c.sv.shed++
				}
				continue
			case k%decodeEvery == 0 && (c.decode() != nil || len(c.reply.IDs) != c.in.counts[i]):
				c.rec.failed++
			}
			c.rec.done(opRead, int64(dt), 1)
			c.sv.respBytes += int64(c.buf.Len())
			if c.tr != nil {
				c.traceReply(root, start, int64(dt))
			}
		}
		if c.id == 0 && c.tr != nil {
			c.peak = max(c.peak, liveHeap())
		}
	}
}

// traceReply closes the round-trip span and hangs the server's two waits
// under it. The reply gives their lengths; the shim saw, on this
// process's clock, when the engine run that ended them began.
func (c *client) traceReply(root, start, dt int64) {
	c.tr.close(root, start+dt)
	l, err := c.lat()
	if err != nil {
		c.rec.failed++
		return
	}
	c.sv.latSeen++
	c.sv.queueNs += l.QueueNs
	c.sv.batchNs += l.BatchNs
	c.sv.runNs += l.RunNs
	if len(c.sv.wireNs) < cap(c.sv.wireNs) {
		c.sv.wireNs = append(c.sv.wireNs, clampNs(dt-l.TotalNs))
	}
	run := c.flight.runStart.Load()
	c.tr.add(root, "server.batch_wait", run-l.BatchNs, run)
	c.tr.add(root, "server.queue_wait", run-l.BatchNs-l.QueueNs, run-l.BatchNs)
}
