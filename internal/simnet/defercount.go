package simnet

import "repro/internal/telemetry"

// DeferredCounter wraps a telemetry.Counter for the data plane's
// per-hop hot path. Increments accumulate in a plain field and flush
// to the (atomic) backing counter at observation boundaries — before
// any scheduler callback, and when Step or RunUntil returns. Since
// every way to observe a counter (metric dumps, LineStats, phase
// stats, control-plane callbacks) runs at one of those boundaries,
// observed values equal per-increment atomic adds; what changes is six
// LOCK-prefixed adds per hop becoming six plain adds plus one
// amortized flush.
//
// Not safe for concurrent use — like the scheduler, a deferred
// counter belongs to one world's event loop. Counters that other
// goroutines touch (the reactive controller's worker pool) must keep
// using the atomic telemetry.Counter directly.
type DeferredCounter struct {
	c       *telemetry.Counter
	pending int64
	n       *Network
}

// DeferCounter wraps c for hot-path increments on this network.
// Multiple wrappers may share one backing counter (peel-out paths keep
// incrementing it directly; sums interleave freely).
func (n *Network) DeferCounter(c *telemetry.Counter) *DeferredCounter {
	return &DeferredCounter{c: c, n: n}
}

// Inc adds 1.
func (d *DeferredCounter) Inc() { d.Add(1) }

// Add accumulates v, deferring the atomic update. Inside a parallel
// shard window increments pass straight through to
// the atomic backing counter instead: lanes run concurrently there, so
// the single-goroutine deferral contract does not hold, and atomic
// adds commute — total counts (all any observer can see, since
// observation points sit at window barriers) are unchanged.
func (d *DeferredCounter) Add(v int64) {
	if d.n.inWindow {
		d.c.Add(v)
		return
	}
	if d.pending == 0 {
		d.n.dirty = append(d.n.dirty, d)
	}
	d.pending += v
}

// Value returns the logical count including any unflushed pending
// increments.
func (d *DeferredCounter) Value() int64 { return d.c.Value() + d.pending }

// DeferredHistogram wraps a telemetry.Histogram the same way
// DeferredCounter wraps a counter: samples accumulate in local (unlocked) buckets plus a local count and sum, and fold
// into the backing histogram via Merge at flush boundaries. Values
// must be integral for the local float sum to stay byte-identical to
// per-sample Observe calls (see Merge); the data plane observes only
// whole hops and whole microseconds. Same flush boundaries and
// single-goroutine contract as DeferredCounter.
type DeferredHistogram struct {
	h      *telemetry.Histogram
	counts []int64
	n      int64
	sum    float64
	w      *Network
}

// DeferHistogram wraps h for hot-path observations on this network.
func (n *Network) DeferHistogram(h *telemetry.Histogram) *DeferredHistogram {
	return &DeferredHistogram{h: h, counts: make([]int64, h.NumBuckets()), w: n}
}

// Observe records one sample, deferring the locked histogram update.
// Parallel shard windows pass through to the mutexed
// histogram (same reasoning as DeferredCounter.Add: bucket counts and
// integral sums commute, so barrier-time observations are identical).
func (d *DeferredHistogram) Observe(v float64) {
	if d.w.inWindow {
		d.h.Observe(v)
		return
	}
	if d.n == 0 {
		d.w.dirtyH = append(d.w.dirtyH, d)
	}
	d.n++
	d.sum += v
	d.counts[d.h.BucketFor(v)]++
}

// flushCounters drains every dirty deferred counter and histogram
// into its backing telemetry cell. Called at observation boundaries;
// cheap when nothing is pending. The empty-case early return is
// load-bearing under sharding: inside parallel windows the dirty lists
// are always empty (Add/Observe pass through), and returning before
// any slice-header write keeps concurrent no-op flushes from lane
// callback dispatches race-free.
func (n *Network) flushCounters() {
	if len(n.dirty) == 0 && len(n.dirtyH) == 0 {
		return
	}
	for i, d := range n.dirty {
		d.c.Add(d.pending)
		d.pending = 0
		n.dirty[i] = nil
	}
	n.dirty = n.dirty[:0]
	for i, d := range n.dirtyH {
		d.h.Merge(d.counts, d.n, d.sum)
		for j := range d.counts {
			d.counts[j] = 0
		}
		d.n, d.sum = 0, 0
		n.dirtyH[i] = nil
	}
	n.dirtyH = n.dirtyH[:0]
}
