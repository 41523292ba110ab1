package metrics

import (
	"sync/atomic"
	"time"
)

// WindowedHistogram is a rotating window of fixed-bucket log-scale
// histograms: N slots of `interval` each, covering the last
// N×interval of wall time. Observe lands in the slot owned by the
// current interval; a slot whose interval has passed is lazily zeroed
// by the first observer that reaches it in a later rotation, so there
// is no background rotator goroutine and nothing on the observe path
// but a clock read, one epoch check, and one atomic add.
//
// The merged view (mergeCounts / Quantile) sums the slots whose epoch
// still falls inside the window, which is what makes the quantiles
// *time-resolved*: a latency regression shows up within one interval
// and ages out after N of them, instead of being diluted into a
// process-lifetime histogram.
//
// Consistency at rotation edges is deliberately relaxed: an observer
// racing the slot-clearing CAS can land an observation in a slot that
// is being recycled, under- or over-counting that boundary by a few
// events. Each bucket is exact; window totals are eventually
// consistent — the same trade the base Histogram documents for its
// lock-free observe path.
type WindowedHistogram struct {
	desc
	intervalNs int64
	slots      []windowSlot
	clock      func() int64 // unix nanoseconds; swappable in tests
}

// A registered windowed histogram covers the last minute in six slots,
// so a regression shows within ten seconds and ages out within a
// minute.
const (
	windowSlots    = 6
	windowInterval = 10 * time.Second
)

type windowSlot struct {
	epoch   atomic.Int64 // interval index this slot's counts belong to
	buckets [histBuckets]atomic.Int64
}

func newWindowedHistogram(name, help string, slots int, interval time.Duration) *WindowedHistogram {
	w := &WindowedHistogram{
		desc:       desc{name, help},
		intervalNs: int64(interval),
		slots:      make([]windowSlot, slots),
		clock:      func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
	}
	return w
}

// Observe records one value into the current interval's slot: a clock
// read, an epoch check (plus a CAS-guarded slot clear once per
// rotation), and one atomic add. Never allocates.
func (w *WindowedHistogram) Observe(v int64) {
	ep := w.clock() / w.intervalNs
	s := &w.slots[int(ep%int64(len(w.slots)))]
	if old := s.epoch.Load(); old != ep {
		if s.epoch.CompareAndSwap(old, ep) {
			for i := range s.buckets {
				s.buckets[i].Store(0)
			}
		}
	}
	s.buckets[bucketOf(v)].Add(1)
}

// mergeCounts sums the in-window slots into dst and returns the total
// observation count. Slots whose epoch has aged out of the window
// (idle periods) are skipped even though they were never recycled.
func (w *WindowedHistogram) mergeCounts(dst *[histBuckets]int64) int64 {
	for i := range dst {
		dst[i] = 0
	}
	minEp := w.clock()/w.intervalNs - int64(len(w.slots)) + 1
	var total int64
	for si := range w.slots {
		s := &w.slots[si]
		if s.epoch.Load() < minEp {
			continue
		}
		for i := range s.buckets {
			c := s.buckets[i].Load()
			dst[i] += c
			total += c
		}
	}
	return total
}

// Quantile returns the q-quantile upper bound over the window, and the
// number of observations it covers. Zero-allocation (the merge buffer
// lives on the stack), so the watchdog can evaluate its SLO bounds
// against it without perturbing the zero-alloc hot-path contract it
// polices.
func (w *WindowedHistogram) Quantile(q float64) (v float64, count int64) {
	var counts [histBuckets]int64
	total := w.mergeCounts(&counts)
	return quantileOf(&counts, total, q), total
}

// Mean returns the bucket-midpoint mean over the window and the count
// it covers (0, 0 when the window is empty). Values below 8 sit in
// exact single-value buckets, so for small-integer observations (e.g.
// shards visited per query) the mean is exact.
func (w *WindowedHistogram) Mean() (v float64, count int64) {
	var counts [histBuckets]int64
	total := w.mergeCounts(&counts)
	if total == 0 {
		return 0, 0
	}
	var sum float64
	for i, c := range counts {
		if c != 0 {
			sum += float64(bucketHigh(i)) * float64(c)
		}
	}
	return sum / float64(total), total
}

func (w *WindowedHistogram) collect(s *Snapshot) {
	hs := HistogramSnapshot{Name: w.name, Window: true}
	hs.Count = w.mergeCounts(&hs.bucket)
	hs.finish()
	s.Histograms = append(s.Histograms, hs)
}
