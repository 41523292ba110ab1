package main

// Client mode (-target): drive an lcserve -listen instance over HTTP
// instead of building an engine. Operands regenerate from the same
// workload generators, so pairing -kind/-n/-sel/-seed with the
// server's flags yields queries with the server's selectivity against
// the server's dataset. Requests ride keep-alive connections from a
// prebuilt URL pool; per-request cost is the GET itself, which is the
// point — the client measures the server, not its own request building.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

const clientPoolSize = 256 // distinct query URLs cycled by the workers

// buildURLPool regenerates the server's dataset (same seed, same
// generator call order as main's build switch) and derives query URLs
// at the requested selectivity. The dynamic kinds query the same shape
// as their static base, so they map onto it.
func buildURLPool(base, kind string, n, k, dim int, sel float64, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	fl := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	urls := make([]string, 0, clientPoolSize)
	add := func(v url.Values) { urls = append(urls, base+"/query?"+v.Encode()) }
	switch kind {
	case "planar", "dynplanar":
		pts := workload.Uniform2(rng, n)
		for len(urls) < clientPoolSize {
			h := workload.HalfplaneWithSelectivity(rng, pts, sel)
			add(url.Values{"op": {"halfplane"}, "a": {fl(h.A)}, "b": {fl(h.B)}})
		}
	case "3d":
		pts := workload.Cube3(rng, n)
		for len(urls) < clientPoolSize {
			p := workload.Plane3WithSelectivity(rng, pts, sel)
			add(url.Values{"op": {"halfspace3"}, "a": {fl(p.A)}, "b": {fl(p.B)}, "c": {fl(p.C)}})
		}
	case "knn":
		workload.Uniform2(rng, n) // keep the rng stream aligned with the server's build
		for len(urls) < clientPoolSize {
			q := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			add(url.Values{"op": {"knn"}, "k": {strconv.Itoa(k)}, "x": {fl(q.X)}, "y": {fl(q.Y)}})
		}
	case "partition", "dynpartition":
		pts := workload.CubeD(rng, n, dim)
		for len(urls) < clientPoolSize {
			h := workload.HalfspaceWithSelectivityD(rng, pts, sel)
			coef := make([]string, len(h.H.Coef))
			for i, c := range h.H.Coef {
				coef[i] = fl(c)
			}
			add(url.Values{"op": {"halfspaceD"}, "coef": {strings.Join(coef, ",")}})
		}
	default:
		return nil, fmt.Errorf("client mode does not support -kind %q", kind)
	}
	return urls, nil
}

// runClient fires `queries` GETs at target from `clients` workers and
// reports qps, latency percentiles and the status-code histogram.
// Non-zero on transport errors or if nothing succeeded.
func runClient(ctx context.Context, stdout io.Writer, target, kind string, n, clients, queries, k, dim int, sel float64, seed int64) int {
	urls, err := buildURLPool(target, kind, n, k, dim, sel, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	clients = max(1, clients)
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer tr.CloseIdleConnections()

	var (
		next     atomic.Int64 // ticket dispenser over the query budget
		netErrs  atomic.Int64
		mu       sync.Mutex
		statuses = map[int]int{}
		lats     []time.Duration
	)
	fmt.Fprintf(stdout, "client: %d requests to %s (%d workers, kind=%s)\n", queries, target, clients, kind)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			myStatuses := map[int]int{}
			myLats := make([]time.Duration, 0, queries/clients+1)
			for {
				i := next.Add(1) - 1
				if i >= int64(queries) || ctx.Err() != nil {
					break
				}
				t0 := time.Now()
				resp, err := hc.Get(urls[i%int64(len(urls))])
				if err != nil {
					if ctx.Err() != nil {
						break
					}
					netErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				myLats = append(myLats, time.Since(t0))
				myStatuses[resp.StatusCode]++
			}
			mu.Lock()
			for code, cnt := range myStatuses {
				statuses[code] += cnt
			}
			lats = append(lats, myLats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := len(lats)
	if ctx.Err() != nil {
		fmt.Fprintf(stdout, "signal: client stopped after %d of %d requests\n", done, queries)
	}
	if done == 0 {
		fmt.Fprintf(os.Stderr, "no requests completed (%d transport errors)\n", netErrs.Load())
		return 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[min(int(p*float64(done)), done-1)] }
	fmt.Fprintf(stdout, "client: %d requests in %v (%.0f req/sec); latency p50 %v p90 %v p99 %v\n",
		done, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds(),
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	codes := make([]int, 0, len(statuses))
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(stdout, "  HTTP %d: %d\n", code, statuses[code])
	}
	if nerr := netErrs.Load(); nerr > 0 {
		fmt.Fprintf(os.Stderr, "%d transport errors\n", nerr)
		return 1
	}
	return 0
}
