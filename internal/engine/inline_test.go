package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
)

// probe collects what the stub shards of a probeEngine saw: the stack
// every query ran on, and whether two queries were ever inside a shard
// at once.
type probe struct {
	mu      sync.Mutex
	stacks  []string
	active  atomic.Int32
	overlap atomic.Bool
}

func (p *probe) take() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stacks
	p.stacks = nil
	return s
}

// probeIndex is a stub shard that answers nothing and reports to its
// probe. It yields while "working" so that visits which are allowed to
// overlap do.
type probeIndex struct{ p *probe }

func (x probeIndex) QueryInto(index.Query, *index.Answer) error {
	if x.p.active.Add(1) > 1 {
		x.p.overlap.Store(true)
	}
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	x.p.mu.Lock()
	x.p.stacks = append(x.p.stacks, string(buf))
	x.p.mu.Unlock()
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
	x.p.active.Add(-1)
	return nil
}
func (x probeIndex) Query(q index.Query) (ans index.Answer, err error) {
	return ans, x.QueryInto(q, &ans)
}
func (probeIndex) Supports(op index.Op) bool { return op == index.OpHalfplane || op == index.OpKNN }
func (probeIndex) Len() int                  { return 1 }
func (probeIndex) Stats() index.Stats        { return index.Stats{} }
func (probeIndex) ResetStats()               {}

// probeShards are four one-point shards on the parabola y = x²/10: each
// point is a vertex of the lower hull, so the tangent at shard i lifted
// by 1 has that shard's point below it and every other at least 9 above.
var probeShards = []geom.PointD{{0, 0}, {10, 10}, {20, 40}, {30, 90}}

// onlyShard is a halfplane the planner routes to shard i alone.
func onlyShard(i int) Query {
	x, y := probeShards[i][0], probeShards[i][1]
	a := 2 * x / 10
	return Query{Op: OpHalfplane, A: a, B: y - a*x + 1}
}

// allShards is a halfplane above every point.
var allShards = Query{Op: OpHalfplane, A: 0, B: 1000}

func probeEngine(opt Options, p *probe) *Engine {
	opt.Shards = len(probeShards)
	e := newEngine(opt, func(int, *eio.Device) index.Index { return probeIndex{p} })
	e.sums = partition.Summarize(probeShards, []int{0, 1, 2, 3}, opt.Shards)
	return e.start()
}

// TestOneShardRunIsInline pins dispatch's routing rule: a run with work
// for exactly one shard is answered on the goroutine that called
// BatchInto; a multi-shard run, and any run of an engine that may have
// to abandon a visit (Deadline armed), goes through the replica
// workers; and the inline route, like the k-NN waves, still queues for
// the Options.Workers cap.
func TestOneShardRunIsInline(t *testing.T) {
	const inline, worker = "engine.(*Engine).BatchInto", "engine.(*Engine).replicaWorker"
	run := func(t *testing.T, opt Options, q Query, wantVisits int, want string) {
		t.Helper()
		var p probe
		e := probeEngine(opt, &p)
		defer e.Close()
		if r := ask(t, e, q); r.Err != nil || r.ShardsVisited != wantVisits {
			t.Fatalf("visited %d shards (err %v), want %d", r.ShardsVisited, r.Err, wantVisits)
		}
		stacks := p.take()
		if len(stacks) != wantVisits {
			t.Fatalf("%d shard visits recorded, want %d", len(stacks), wantVisits)
		}
		for _, s := range stacks {
			if !strings.Contains(s, want) {
				t.Errorf("visit did not run under %s:\n%s", want, s)
			}
		}
	}
	t.Run("one shard", func(t *testing.T) { run(t, Options{}, onlyShard(2), 1, inline) })
	t.Run("multi shard", func(t *testing.T) { run(t, Options{}, allShards, len(probeShards), worker) })
	t.Run("one shard, deadline armed", func(t *testing.T) {
		run(t, Options{Deadline: time.Minute}, onlyShard(2), 1, worker)
	})

	t.Run("workers cap, k-NN", func(t *testing.T) {
		// One k-NN query at each shard's point: the first wave sends each
		// query to its own shard, and — the stubs answering no neighbors —
		// the second to the other three, so every wave wakes every shard.
		var p probe
		e := probeEngine(Options{Workers: 1}, &p)
		defer e.Close()
		qs := make([]Query, len(probeShards))
		for i, pt := range probeShards {
			qs[i] = Query{Op: OpKNN, K: 1, Pt: geom.Point2{X: pt[0], Y: pt[1]}}
		}
		for n := 0; n < 20; n++ {
			for _, r := range e.Batch(qs) {
				if r.Err != nil || r.ShardsVisited != len(probeShards) {
					t.Fatalf("visited %d shards (err %v), want %d", r.ShardsVisited, r.Err, len(probeShards))
				}
			}
		}
		if p.overlap.Load() {
			t.Error("two k-NN visits overlapped under Workers: 1")
		}
	})

	t.Run("workers cap", func(t *testing.T) {
		// Four callers, each inline on a different shard, so nothing but the
		// Workers: 1 slot stands between their visits.
		var p probe
		e := probeEngine(Options{Workers: 1}, &p)
		defer e.Close()
		var wg sync.WaitGroup
		for i := range probeShards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					ask(t, e, onlyShard(i))
				}
			}()
		}
		wg.Wait()
		if p.overlap.Load() {
			t.Error("two inline visits overlapped under Workers: 1")
		}
		for _, s := range p.take() {
			if !strings.Contains(s, inline) {
				t.Fatalf("visit left the caller's goroutine:\n%s", s)
			}
		}
	})
}
