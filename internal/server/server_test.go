package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/engine"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// postQuery round-trips one wireQuery over real HTTP and decodes the
// Response; GET alternation goes through getQuery.
func postQuery(t *testing.T, cl *http.Client, url string, wq wireQuery) (int, Response) {
	t.Helper()
	body, err := json.Marshal(wq)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := cl.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return hr.StatusCode, resp
}

func getQuery(t *testing.T, cl *http.Client, url string) (int, Response) {
	t.Helper()
	hr, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return hr.StatusCode, resp
}

// TestHTTPEquivalenceStatic: N concurrent HTTP clients fire halfplane
// queries through the batcher; every response must be byte-identical
// to a direct unbatched Engine.Batch on a single-shard reference
// engine over the same points.
func TestHTTPEquivalenceStatic(t *testing.T) {
	const n, nq, clients, perClient = 4000, 32, 8, 60
	rng := rand.New(rand.NewSource(7))
	pts := workload.Uniform2(rng, n)

	eng := engine.NewPlanar(pts, engine.Options{Shards: 4, BlockSize: 64, Seed: 7})
	defer eng.Close()
	ref := engine.NewPlanar(pts, engine.Options{Shards: 1, BlockSize: 64, Seed: 99})
	defer ref.Close()

	qs := make([]index.Query, nq)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.05)
		qs[i] = index.Query{Op: index.OpHalfplane, A: h.A, B: h.B}
	}
	want := make([][]int, nq)
	for i, res := range ref.Batch(qs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want[i] = append(want[i], res.IDs...)
	}

	srv := New(eng, Config{MaxBatch: 16, QueueCap: 128, Stripes: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := hs.Client()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				qi := rng.Intn(nq)
				var (
					code int
					resp Response
				)
				if i%2 == 0 {
					code, resp = postQuery(t, cl, hs.URL, wireQuery{Op: "halfplane", A: qs[qi].A, B: qs[qi].B})
				} else {
					code, resp = getQuery(t, cl, fmt.Sprintf("%s/query?op=halfplane&a=%v&b=%v", hs.URL, qs[qi].A, qs[qi].B))
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d query %d: status %d (%s)", c, qi, code, resp.Err)
					return
				}
				if !slices.Equal(resp.IDs, want[qi]) {
					errs <- fmt.Errorf("client %d query %d: %d IDs, want %d", c, qi, len(resp.IDs), len(want[qi]))
					return
				}
				if resp.Lat.TotalNs <= 0 || resp.Lat.TotalNs < resp.Lat.RunNs {
					errs <- fmt.Errorf("client %d: bad latency attribution %+v", c, resp.Lat)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Sending an op outside the engine's family is the client's fault.
	code, _ := postQuery(t, hs.Client(), hs.URL, wireQuery{Op: "knn", K: 3})
	if code != http.StatusBadRequest {
		t.Errorf("knn on a planar engine: status %d, want 400", code)
	}
}

// TestWrongDimensionIs400: a halfspace or conjunction operand of another
// dimension than the partition engine's points is the client's fault —
// 400 with the index's error, not a crashed shard worker — and the
// server keeps answering well-formed queries afterwards.
func TestWrongDimensionIs400(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	eng := engine.NewPartition(workload.CubeD(rng, 400, 3), engine.Options{Shards: 2, BlockSize: 32})
	defer eng.Close()
	srv := New(eng, Config{MaxBatch: 4})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	for _, c := range []struct {
		name string
		wq   wireQuery
		want int
	}{
		{"halfspaceD 6 coefs", wireQuery{Op: "halfspaceD", Coef: []float64{1, 2, 3, 4, 5, 6}}, http.StatusBadRequest},
		{"halfspaceD 2 coefs", wireQuery{Op: "halfspaceD", Coef: []float64{0.5, 0.5}}, http.StatusBadRequest},
		{"conjunction, one 4-coef constraint", wireQuery{Op: "conjunction", Constraints: []wireConstraint{
			{Coef: []float64{0.1, 0.2, 0.5}, Below: true}, {Coef: []float64{0.1, 0.2, 0.3, 0.4}},
		}}, http.StatusBadRequest},
		{"halfspaceD 3 coefs", wireQuery{Op: "halfspaceD", Coef: []float64{0.1, 0.2, 0.5}}, http.StatusOK},
	} {
		if code, resp := postQuery(t, hs.Client(), hs.URL, c.wq); code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, resp.Err, c.want)
		}
	}
}

// TestHTTPEquivalenceMutable interleaves inserts, deletes and
// conjunction queries from N concurrent HTTP clients on one mutable
// engine. Each client owns a disjoint y-band, so its op history
// commutes with every other client's and each response must match a
// private single-shard reference engine fed the same ops one at a
// time.
func TestHTTPEquivalenceMutable(t *testing.T) {
	const clients, rounds = 6, 12

	eng := engine.NewDynamicPartition(engine.Options{Shards: 3, BlockSize: 32, Seed: 3})
	defer eng.Close()
	srv := New(eng, Config{MaxBatch: 8, QueueCap: 64, Stripes: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := hs.Client()
			ref := engine.NewDynamicPartition(engine.Options{Shards: 1, BlockSize: 32, Seed: int64(100 + c)})
			defer ref.Close()
			base := float64(c) * 10
			band := []wireConstraint{
				{Coef: []float64{0, base + 9}, Below: true}, // y <= base+9
				{Coef: []float64{0, base}, Below: false},    // y >= base
			}
			rng := rand.New(rand.NewSource(int64(c)))
			var live []geom.PointD
			check := func(wq wireQuery, q index.Query) error {
				code, resp := postQuery(t, cl, hs.URL, wq)
				refRes := ref.Batch([]index.Query{q})[0]
				if refRes.Err != nil {
					return fmt.Errorf("client %d reference: %v", c, refRes.Err)
				}
				if code != http.StatusOK {
					return fmt.Errorf("client %d %s: status %d (%s)", c, wq.Op, code, resp.Err)
				}
				if q.Op == index.OpDelete && resp.Deleted != refRes.Deleted {
					return fmt.Errorf("client %d delete: Deleted=%v, want %v", c, resp.Deleted, refRes.Deleted)
				}
				if q.Op == index.OpConjunction {
					if len(resp.Recs) != len(refRes.Recs) {
						return fmt.Errorf("client %d query: %d recs, want %d", c, len(resp.Recs), len(refRes.Recs))
					}
					for i, rec := range refRes.Recs {
						if !slices.Equal(resp.Recs[i], []float64(rec.PD)) {
							return fmt.Errorf("client %d query: rec %d = %v, want %v", c, i, resp.Recs[i], rec.PD)
						}
					}
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				// Insert two records, query the band, delete one, query again.
				var recs [2]geom.PointD
				for i := range recs {
					recs[i] = geom.PointD{float64(c) + rng.Float64(), base + 9*rng.Float64()}
					live = append(live, recs[i])
					wq := wireQuery{Op: "insert", RecD: recs[i]}
					q := index.Query{Op: index.OpInsert, Rec: index.Record{PD: recs[i]}}
					if err := check(wq, q); err != nil {
						errs <- err
						return
					}
				}
				qq := index.Query{Op: index.OpConjunction, Constraints: []index.Constraint{
					{Coef: band[0].Coef, Below: true}, {Coef: band[1].Coef, Below: false},
				}}
				if err := check(wireQuery{Op: "conjunction", Constraints: band}, qq); err != nil {
					errs <- err
					return
				}
				victim := live[rng.Intn(len(live))]
				wq := wireQuery{Op: "delete", RecD: victim}
				q := index.Query{Op: index.OpDelete, Rec: index.Record{PD: victim}}
				if err := check(wq, q); err != nil {
					errs <- err
					return
				}
				if err := check(wireQuery{Op: "conjunction", Constraints: band}, qq); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gatedBackend blocks every BatchInto until release is closed, so the
// admission rings fill deterministically.
type gatedBackend struct {
	release chan struct{}
}

func (b *gatedBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	<-b.release
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{})
	}
	return res
}

// TestSheddingBoundedAndCloseReleases saturates a tiny admission queue
// behind a blocked backend: the overload must shed with StatusShed
// (429) while queued memory stays bounded at the ring capacity, and
// Close must strand no waiter — every admitted request is answered.
func TestSheddingBoundedAndCloseReleases(t *testing.T) {
	const flood = 64
	const queueCap, maxBatch = 8, 4
	be := &gatedBackend{release: make(chan struct{})}
	reg := metrics.NewRegistry()
	srv := New(be, Config{
		MaxBatch: maxBatch,
		QueueCap: queueCap, Stripes: 1, Metrics: reg,
	})

	statuses := make(chan Status, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp Response
			statuses <- srv.Do(index.Query{Op: index.OpHalfplane, A: 1, B: 0}, &resp)
		}()
	}

	// The flusher is blocked inside the backend holding at most one
	// batch; everything else either sits in the ring or was shed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		shed := srv.met.shed.Load()
		depth := srv.met.queueDepth.Load()
		if shed+depth+maxBatch >= flood {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never settled: shed=%d depth=%d", shed, depth)
		}
		time.Sleep(time.Millisecond)
	}
	if depth := srv.met.queueDepth.Load(); depth > queueCap {
		t.Fatalf("queue depth %d exceeds capacity %d: admission is not bounded", depth, queueCap)
	}
	if shed := srv.met.shed.Load(); shed < flood-queueCap-maxBatch {
		t.Fatalf("shed %d, want >= %d: overload was buffered, not shed", shed, flood-queueCap-maxBatch)
	}

	// Close with the backend still blocked, then release: every
	// admitted waiter must be answered, none stranded.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	close(be.release)
	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters stranded after Close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	close(statuses)
	var ok, shed int
	for st := range statuses {
		switch st {
		case StatusOK:
			ok++
		case StatusShed:
			shed++
		default:
			t.Fatalf("unexpected status %v", st)
		}
	}
	if ok+shed != flood {
		t.Fatalf("accounted %d of %d requests", ok+shed, flood)
	}
	if int64(shed) != srv.met.shed.Load() {
		t.Fatalf("shed statuses %d != shed counter %d", shed, srv.met.shed.Load())
	}
	if srv.met.queueDepth.Load() != 0 {
		t.Fatalf("queue depth %d after drain, want 0", srv.met.queueDepth.Load())
	}

	// After Close the server rejects instead of enqueueing.
	var resp Response
	if st := srv.Do(index.Query{Op: index.OpHalfplane}, &resp); st != StatusClosed {
		t.Fatalf("post-Close Do: %v, want StatusClosed", st)
	}
}

// stepBackend announces every BatchInto's size on entered and then holds
// it until the test sends a release token, so the test decides exactly
// when the "engine" is busy.
type stepBackend struct {
	entered chan int
	release chan struct{}
}

func (b *stepBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	b.entered <- len(qs)
	<-b.release
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{})
	}
	return res
}

// TestFlushWhenIdleBatchWhenBusy is the batching rule of DESIGN.md §13
// in both directions. Idle: a lone request reaches the backend as a batch
// of one as soon as the flusher sees it — its gather time is nowhere near
// the millisecond a delay timer would cost. Busy: requests admitted while
// the backend is held pile up in the ring, and the very next BatchInto
// carries all of them.
func TestFlushWhenIdleBatchWhenBusy(t *testing.T) {
	const k = 7
	be := &stepBackend{entered: make(chan int), release: make(chan struct{})}
	srv := New(be, Config{MaxBatch: 16, QueueCap: 16, Stripes: 1, Metrics: metrics.NewRegistry()})
	defer srv.Close()
	q := index.Query{Op: index.OpHalfplane, A: 1}
	resps := make(chan Response, k)
	do := func() {
		var resp Response
		if st := srv.Do(q, &resp); st != StatusOK {
			t.Errorf("Do: %v, want StatusOK", st)
		}
		resps <- resp
	}

	gather := int64(time.Hour)
	for i := 0; i < 5; i++ {
		go do()
		if n := <-be.entered; n != 1 {
			t.Fatalf("lone request %d reached the backend in a batch of %d", i, n)
		}
		be.release <- struct{}{}
		gather = min(gather, (<-resps).Lat.BatchNs)
	}
	if limit := int64(500 * time.Microsecond); gather >= limit {
		t.Errorf("fastest lone request spent %dns between pop and flush, want < %dns: the flusher waited on something", gather, limit)
	}

	// Hold one request inside the backend and admit k more behind it.
	go do()
	if n := <-be.entered; n != 1 {
		t.Fatalf("holding request reached the backend in a batch of %d", n)
	}
	for i := 0; i < k; i++ {
		go do()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.met.queueDepth.Load() != k; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted behind a busy backend", srv.met.queueDepth.Load(), k)
		}
	}
	be.release <- struct{}{}
	if n := <-be.entered; n != k {
		t.Fatalf("after the backend freed up the next batch carried %d requests, want all %d that piled up", n, k)
	}
	be.release <- struct{}{}
	inBatch := map[int]int{}
	for i := 0; i < k+1; i++ {
		inBatch[(<-resps).Batch]++
	}
	if inBatch[1] != 1 || inBatch[k] != k {
		t.Errorf("responses by reported batch size: %v, want 1 in a batch of 1 and %d in a batch of %d", inBatch, k, k)
	}
}

// countingBackend counts the queries that reach it.
type countingBackend struct{ n atomic.Int64 }

func (b *countingBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	b.n.Add(int64(len(qs)))
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{})
	}
	return res
}

// TestFrontDoorRejectsHostileInput: NaN and ±Inf operands in any float
// field (strconv.ParseFloat accepts their spellings on the GET form; a
// JSON number that overflows decodes to a range error), a k, constraint
// count or coefficient count one over its bound, and bodies over
// maxBodyBytes get a 4xx and never reach the backend; a query at every
// bound does.
func TestFrontDoorRejectsHostileInput(t *testing.T) {
	be := &countingBackend{}
	srv := New(be, Config{MaxBatch: 1})
	defer srv.Close()
	huge := `{"op":"halfspaceD","coef":[` + strings.Repeat("1,", maxBodyBytes) + `1]}`
	coefs := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }
	constraints := func(n, d int) string {
		return `{"op":"conjunction","constraints":[` +
			strings.TrimSuffix(strings.Repeat(`{"coef":[`+coefs(d)+`],"below":true},`, n), ",") + `]}`
	}
	for _, tc := range []struct {
		name, method, target, body string
		want                       int
	}{
		{"NaN a", "GET", "/query?op=halfplane&a=NaN&b=0", "", 400},
		{"Inf b", "GET", "/query?op=halfplane&a=0&b=Inf", "", 400},
		{"-inf c", "GET", "/query?op=halfspace3&a=0&b=0&c=-inf", "", 400},
		{"NaN unused field", "GET", "/query?op=halfplane&a=0&b=0&x=nan", "", 400},
		{"NaN coef", "GET", "/query?op=halfspaceD&coef=1,NaN", "", 400},
		{"Inf constraint coef", "GET", "/query?op=conjunction&constraint=below:1,+Inf", "", 400},
		{"NaN knn point", "GET", "/query?op=knn&k=1&x=NaN&y=0", "", 400},
		{"Inf rec2", "GET", "/query?op=insert&rec2=0,Infinity", "", 400},
		{"NaN recd", "GET", "/query?op=delete&recd=0,1,NaN", "", 400},
		{"overflowing JSON number", "POST", "/query", `{"op":"halfplane","a":1e999,"b":0}`, 400},
		{"2 MiB body", "POST", "/query", huge, 413},
		{"k over the bound", "GET", fmt.Sprintf("/query?op=knn&k=%d&x=0&y=0", maxK+1), "", 400},
		{"k at the bound", "GET", fmt.Sprintf("/query?op=knn&k=%d&x=0&y=0", maxK), "", 200},
		{"coef over the bound", "GET", "/query?op=halfspaceD&coef=" + coefs(maxCoefs+1), "", 400},
		{"coef at the bound", "GET", "/query?op=halfspaceD&coef=" + coefs(maxCoefs), "", 200},
		{"constraints over the bound", "POST", "/query", constraints(maxConstraints+1, 3), 400},
		{"constraint coefs over the bound", "POST", "/query", constraints(1, maxCoefs+1), 400},
		{"constraints at both bounds", "POST", "/query", constraints(maxConstraints, maxCoefs), 200},
		{"finite GET", "GET", "/query?op=halfplane&a=1e308&b=-1e-308", "", 200},
		{"finite POST", "POST", "/query", `{"op":"halfplane","a":0.5,"b":0}`, 200},
	} {
		before := be.n.Load()
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rr.Code, tc.want, rr.Body)
		}
		if reached := be.n.Load() - before; (reached == 1) != (tc.want == 200) {
			t.Errorf("%s: %d queries reached the backend", tc.name, reached)
		}
	}
}

// overflowBackend answers every query with one neighbour at distance²
// +Inf — what a k-NN query far enough out (x = 1e200) computes from
// finite operands and finite points.
type overflowBackend struct{}

func (overflowBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{Neighbors: []chan3d.Neighbor{{ID: 1, Dist2: math.Inf(1)}}})
	}
	return res
}

// TestUnencodableAnswerIs500: JSON cannot spell ±Inf, so such an answer
// is an explicit 500 with an error body, never a 200 with a cut-off one.
func TestUnencodableAnswerIs500(t *testing.T) {
	srv := New(overflowBackend{}, Config{MaxBatch: 1})
	defer srv.Close()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/query?op=knn&k=1&x=1e200&y=0", nil))
	var body struct {
		Err string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); rr.Code != http.StatusInternalServerError || err != nil || body.Err == "" {
		t.Fatalf("status %d, body %q (decode error %v): want 500 with an error string", rr.Code, rr.Body, err)
	}
}

// TestCoalescingBeatsPassthrough is the throughput half of the stripe
// batcher's claim (DESIGN.md §13): at equal client concurrency over
// real HTTP, MaxBatch 16 must serve at least 2x the qps of MaxBatch 1
// (every request its own engine run) with a mean batch above 1.5.
//
// The gain is device-miss overlap: a small-k query at a uniform random
// point visits the one or two KDCut tiles under it and its misses
// serialize on that shard's device, so a size-1 run waits on one
// query's device at a time, while a coalesced run carries queries for
// mostly disjoint shards and finishes in about the slowest one's time.
// The cache is tiny so random points keep missing; workers match the
// shard count so every shard of a batch can wait concurrently; MaxBatch
// stays below the closed-loop client count so batches fill from the
// queue. A miss costs 1 ms so that the device stall, which coalescing
// amortizes, bounds both legs: at 200 µs the loopback HTTP work did,
// and a 2-core runner measured 1.84–2.05x; at 1 ms it measures
// 2.07–2.35x.
func TestCoalescingBeatsPassthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const shards, clients, maxBatch = 32, 24, 16
	rng := rand.New(rand.NewSource(11))
	pts := workload.Uniform2(rng, 10_000)
	eng := engine.NewKNN(pts, engine.Options{
		Shards: shards, Workers: shards, BlockSize: 64, CacheBlocks: 4,
		IOLatency: time.Millisecond, Partitioner: partition.NewKDCut(),
	})
	defer eng.Close()
	paths := make([]string, 128)
	for i := range paths {
		paths[i] = fmt.Sprintf("/query?op=knn&k=8&x=%v&y=%v", rng.Float64(), rng.Float64())
	}

	// leg serves one 500ms window of closed-loop keep-alive GETs from a
	// fresh server over eng and returns its qps and mean batch size.
	leg := func(batch int) (qps, meanBatch float64) {
		srv := New(eng, Config{MaxBatch: batch, Metrics: metrics.NewRegistry()})
		defer srv.Close()
		hs := httptest.NewServer(srv)
		defer hs.Close()
		cl := hs.Client()
		cl.Transport.(*http.Transport).MaxIdleConnsPerHost = clients

		var served atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(500 * time.Millisecond)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; time.Now().Before(deadline); i++ {
					hr, err := cl.Get(hs.URL + paths[i%len(paths)])
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, hr.Body)
					hr.Body.Close()
					if hr.StatusCode != http.StatusOK {
						t.Errorf("status %d", hr.StatusCode)
						return
					}
					served.Add(1)
				}
			}()
		}
		wg.Wait()
		qps = float64(served.Load()) / time.Since(start).Seconds()
		if batch > 1 && srv.met.batchSize.Quantile(1) <= 1 {
			t.Errorf("MaxBatch %d: no flush coalesced more than one request", batch)
		}
		return qps, float64(served.Load()) / float64(srv.met.batches.Load())
	}
	// Median of five alternating pairs, so drift hits both sides alike;
	// one window in about twelve reads below 2x on a 2-core runner.
	var ratios, batches []float64
	for i := 0; i < 5; i++ {
		pass, _ := leg(1)
		coal, mean := leg(maxBatch)
		ratios, batches = append(ratios, coal/pass), append(batches, mean)
	}
	slices.Sort(ratios)
	slices.Sort(batches)
	ratio, batch := ratios[len(ratios)/2], batches[len(batches)/2]
	t.Logf("coalesced/passthrough qps %.2fx (windows %.2f), mean batch %.1f", ratio, ratios, batch)
	if batch <= 1.5 {
		t.Errorf("mean batch %.2f, want > 1.5", batch)
	}
	if ratio < 2 {
		t.Errorf("coalesced qps %.2fx passthrough, want >= 2x", ratio)
	}
}

// degradedBackend answers every query Degraded with shard 2 missing,
// as a deadline-truncated engine run would.
type degradedBackend struct{}

func (degradedBackend) BatchInto(qs []index.Query, res []engine.Result) []engine.Result {
	res = res[:0]
	for range qs {
		res = append(res, engine.Result{Degraded: true, Missing: []int{2}})
	}
	return res
}

// TestPartialResponseStatus: degraded results must surface as a
// distinguishable partial status (206), not a silent 200.
func TestPartialResponseStatus(t *testing.T) {
	srv := New(degradedBackend{}, Config{MaxBatch: 1})
	defer srv.Close()

	var resp Response
	if st := srv.Do(index.Query{Op: index.OpHalfplane}, &resp); st != StatusPartial {
		t.Fatalf("Do: %v, want StatusPartial", st)
	}
	if !resp.Degraded || !slices.Equal(resp.Missing, []int{2}) {
		t.Fatalf("response not marked degraded: %+v", resp)
	}

	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/query?op=halfplane&a=1&b=2", nil)
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusPartialContent {
		t.Fatalf("HTTP status %d, want 206", rr.Code)
	}

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/query?op=nope", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/query?op=halfplane&a=zap", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad float: status %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", rr.Code)
	}
}

// TestServerCloseLeavesNoGoroutines: a server runs one flusher per
// (op, stripe) and nothing else, and Close — called while requests are
// queued and one batch is inside the backend — answers every admitted
// request and returns only after every goroutine it started has exited.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	const stripes, inFlight = 2, 12
	settle := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if cond() {
				return true
			}
		}
		return cond()
	}
	before := runtime.NumGoroutine()
	be := &stepBackend{entered: make(chan int, inFlight), release: make(chan struct{})}
	srv := New(be, Config{MaxBatch: 4, QueueCap: 16, Stripes: stripes})
	if !settle(func() bool { return runtime.NumGoroutine() <= before+nOps*stripes }) {
		t.Errorf("built server runs %d goroutines, want %d (one flusher per op and stripe)",
			runtime.NumGoroutine()-before, nOps*stripes)
	}
	statuses := make(chan Status, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp Response
			statuses <- srv.Do(index.Query{Op: index.OpHalfplane, A: 1, B: 0}, &resp)
		}()
	}
	<-be.entered // a batch is in the backend; the rest are queued or on their way
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	close(be.release)
	wg.Wait()
	<-closed
	close(statuses)
	for st := range statuses {
		if st != StatusOK && st != StatusClosed {
			t.Errorf("request in flight at Close: %v, want ok or closed", st)
		}
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
	}
}

// TestClosedEngineAnswers503: a server whose engine was closed first
// answers every op StatusClosed through Do and 503 over HTTP — the
// flusher neither panics nor hangs — and the server still closes
// cleanly, leaving no goroutine behind.
func TestClosedEngineAnswers503(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := engine.NewDynamicPartition(engine.Options{Shards: 2, BlockSize: 16})
	rec := geom.PointD{0.5, 0.5, 0.5}
	if err := eng.Insert(index.Record{PD: rec}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	srv := New(eng, Config{MaxBatch: 4, Stripes: 2})

	for _, q := range []index.Query{
		{Op: index.OpHalfplane, A: 1},
		{Op: index.OpHalfspace3, A: 1},
		{Op: index.OpHalfspaceD, Coef: []float64{0, 0, 1}},
		{Op: index.OpConjunction, Constraints: []index.Constraint{{Coef: []float64{0, 0, 1}, Below: true}}},
		{Op: index.OpKNN, K: 1},
		{Op: index.OpInsert, Rec: index.Record{PD: geom.PointD{0.1, 0.2, 0.3}}},
		{Op: index.OpDelete, Rec: index.Record{PD: rec}},
	} {
		var resp Response
		if st := srv.Do(q, &resp); st != StatusClosed {
			t.Errorf("Do %v on a closed engine: %v (%s), want StatusClosed", q.Op, st, resp.Err)
		}
	}
	for _, target := range []string{
		"/query?op=halfplane&a=1&b=0",
		"/query?op=halfspace3&a=1&b=0&c=0",
		"/query?op=halfspaceD&coef=0,0,1",
		"/query?op=conjunction&constraint=below:0,0,1",
		"/query?op=knn&k=1&x=0&y=0",
		"/query?op=insert&recd=0.1,0.2,0.3",
		"/query?op=delete&recd=0.5,0.5,0.5",
	} {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s on a closed engine: status %d (%s), want 503", target, rr.Code, rr.Body)
		}
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
		}
	}
}

// TestUpdateOnStaticEngineIs400: an insert or delete sent to an engine
// whose family takes no updates (engine.ErrImmutable) is the client's
// fault, so it answers StatusBadRequest through Do and 400 over HTTP,
// with the engine's error in the body — before the engine is closed and
// after, since no retry could make it succeed.
func TestUpdateOnStaticEngineIs400(t *testing.T) {
	pts := workload.Uniform2(rand.New(rand.NewSource(5)), 200)
	eng := engine.NewPlanar(pts, engine.Options{Shards: 2, BlockSize: 16})
	srv := New(eng, Config{MaxBatch: 4, Stripes: 2})
	defer srv.Close()
	check := func(when string) {
		for _, q := range []index.Query{
			{Op: index.OpInsert, Rec: index.Record{P2: geom.Point2{X: 0.5, Y: 0.5}}},
			{Op: index.OpDelete, Rec: index.Record{P2: pts[0]}},
		} {
			var resp Response
			if st := srv.Do(q, &resp); st != StatusBadRequest || !strings.Contains(resp.Err, engine.ErrImmutable.Error()) {
				t.Errorf("%s: Do %v: %v (%q), want StatusBadRequest with ErrImmutable", when, q.Op, st, resp.Err)
			}
		}
		for _, target := range []string{
			"/query?op=insert&rec2=0.5,0.5",
			fmt.Sprintf("/query?op=delete&rec2=%v,%v", pts[0].X, pts[0].Y),
		} {
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
			if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), engine.ErrImmutable.Error()) {
				t.Errorf("%s: GET %s: status %d (%s), want 400 with ErrImmutable", when, target, rr.Code, rr.Body)
			}
		}
	}
	check("open engine")
	eng.Close()
	check("closed engine")
}

// TestFullStripeSpillsToSibling: a request whose round-robin stripe is
// full is admitted by the next stripe of its op, so with every flusher
// held inside the backend exactly Stripes × QueueCap requests are
// admitted before the first is shed, even though every request starts
// at the same stripe.
func TestFullStripeSpillsToSibling(t *testing.T) {
	const stripes, queueCap = 3, 4
	be := &stepBackend{entered: make(chan int, 1+stripes*(queueCap+1)), release: make(chan struct{})}
	srv := New(be, Config{MaxBatch: 1, QueueCap: queueCap, Stripes: stripes, Metrics: metrics.NewRegistry()})
	q := index.Query{Op: index.OpHalfplane, A: 1}
	op := int(q.Op)
	// pin makes the next submit of op start its round at stripe i.
	pin := func(i int) { srv.rr[op].Store(uint32(stripes + i - 1)) }

	statuses := make(chan Status, 2*stripes*(queueCap+1))
	var wg sync.WaitGroup
	do := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp Response
			statuses <- srv.Do(q, &resp)
		}()
	}
	// Hold every flusher in the backend with one request each.
	for i := 0; i < stripes; i++ {
		pin(i)
		do()
		if n := <-be.entered; n != 1 {
			t.Fatalf("stripe %d's first batch carried %d requests", i, n)
		}
	}
	// Offer requests one at a time, each starting at stripe 0, until
	// one is shed.
	admitted := 0
	for srv.met.shed.Load() == 0 {
		if admitted > stripes*queueCap {
			t.Fatalf("%d requests admitted with every flusher held, want %d", admitted, stripes*queueCap)
		}
		pin(0)
		do()
		for deadline := time.Now().Add(5 * time.Second); srv.met.queueDepth.Load()+srv.met.shed.Load() == int64(admitted); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("request %d neither admitted nor shed", admitted+1)
			}
		}
		if srv.met.shed.Load() == 0 {
			admitted++
		}
	}
	if admitted != stripes*queueCap {
		t.Errorf("%d requests admitted before the first 429, want Stripes × QueueCap = %d", admitted, stripes*queueCap)
	}

	close(be.release)
	srv.Close()
	wg.Wait()
	close(statuses)
	var ok, shed int
	for st := range statuses {
		switch st {
		case StatusOK:
			ok++
		case StatusShed:
			shed++
		default:
			t.Errorf("unexpected status %v", st)
		}
	}
	if ok != stripes+admitted || shed != 1 {
		t.Errorf("%d answered and %d shed, want %d and 1", ok, shed, stripes+admitted)
	}
}
