// Package des is the repository's serving physics: a deterministic
// discrete-event cluster simulator with per-query tail-latency
// accounting. It models a partition-by-document search fleet at query
// granularity: each query arrival fans out to the machines hosting a
// sample of shards (Config.Routing picks the replica of a grouped shard),
// waits in per-machine FIFO queues, is served at a rate set by the
// machine's speed (degraded while migration copies stream off it), and
// completes when its slowest leg merges.
//
// Offline — one placement, one trace, no controller — it is three calls:
//
//	sim, err := des.New(cfg, placement, trace)
//	sim.Sleep(trace.Duration)
//	lat, busy := sim.Report().All, sim.Busy()
//
// The simulator plugs into the online control plane unchanged: it
// implements ctl.Clock (the controller's Sleep advances the event loop),
// ctl.LoadSource (per-shard load observations are the work the simulator
// actually routed during the window), and ctl.MoveObserver (executor
// dispatches degrade the source machine mid-flight and commit reroutes).
// Everything is deterministic for a fixed seed: events fire in one total
// (time, kind, sequence number) order, all randomness flows through named
// rng.Partitioned sub-streams (workload, drift, chaos), and the single
// event loop runs on the control goroutine — so reports are
// byte-identical across runs and GOMAXPROCS values.
//
// Events come from three sources, merged by Sleep: the one pending window
// boundary (a scalar), a window's arrivals (the sorted slice
// workload.Trace.Arrivals returns, read through a cursor), and the leg
// completions, which a calendar queue holds in (time, push order) order.
// The clock is published once per Sleep, at its end: a concurrent Now (an
// HTTP handler) reads the time the running Sleep started from, never a
// time inside it.
package des

import "math"

// Kind discriminates event types. The numeric order is the documented
// tie-break order at equal timestamps: window boundaries fire before the
// arrivals they generated, and arrivals before any service completion at
// the same instant, so a queue observed by an arrival always reflects
// every completion due at that time.
type Kind uint8

// Event kinds, in tie-break order.
const (
	// KindWindow closes a measurement window, applies popularity drift,
	// and generates the next window's arrivals.
	KindWindow Kind = iota
	// KindArrival fans one query out to its shard legs.
	KindArrival
	// KindLegDone completes the leg at the head of a machine's queue.
	KindLegDone
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "window"
	case KindArrival:
		return "arrival"
	case KindLegDone:
		return "leg-done"
	default:
		return "kind(?)"
	}
}

// legItem is one scheduled leg completion on machine m. slot is
// int64(at·inv) under the queue's current width, the absolute bucket
// position; seq is the push counter that orders equal times.
type legItem struct {
	at   float64
	slot int64
	seq  uint64
	m    int32
}

// before is the queue's total order: time, then push order.
func (a legItem) before(b legItem) bool {
	if a.at != b.at { //rexlint:ignore floateq exact-tie detection is the point: distinct floats order by time, bit-equal floats fall through to the push-order tie-break
		return a.at < b.at
	}
	return a.seq < b.seq
}

// legBucket holds the items of one calendar day across every year:
// items[head:] are live, sorted by before, and reads advance head.
type legBucket struct {
	items []legItem
	head  int
}

// insert places it in order, scanning from the back: a new completion
// usually lies at or near the end of its day.
func (b *legBucket) insert(it legItem) {
	if len(b.items) == cap(b.items) && b.head > 0 {
		b.items = b.items[:copy(b.items, b.items[b.head:])]
		b.head = 0
	}
	b.items = append(b.items, it)
	i := len(b.items) - 1
	for i > b.head && it.before(b.items[i-1]) {
		b.items[i] = b.items[i-1]
		i--
	}
	b.items[i] = it
}

// Calendar geometry bounds: at least minBuckets days, and slots saturate
// at maxSlot so that no time, however far ahead, overflows int64.
const (
	minBuckets = 16
	maxSlot    = 1 << 62
)

// legQueue is a calendar queue (Brown, CACM 1988) of leg completions. An
// item at time at has the absolute slot int64(at·inv) and lives in bucket
// slot mod len(buckets); a slot is a day of the calendar's width, the
// buckets one year. Slots are monotone in time, so the earliest item is
// the head of the bucket of the smallest slot, and a read walks the days
// forward from cur until a head's slot is today's. A push below cur
// rewinds it; a year of days with nothing due falls back to a direct
// search over the bucket heads. Pops come out in exactly the (time, push
// order) order of a binary heap over the same pushes.
//
// The zero value is an empty queue of one-second days; presize sets a
// first guess and retune sizes the calendar from the gaps between pops.
type legQueue struct {
	buckets []legBucket
	mask    int64   // len(buckets)-1, 0 before the first push
	inv     float64 // days per second
	cur     int64   // scan position: no queued item's slot is below it
	n       int
	seq     uint64

	// pops counts the pops since the last retune, which ran at since.
	pops  int
	since float64
}

// slot maps a time to its absolute day, saturating at 0 and maxSlot (a
// NaN time lands in the last day).
//
//rexlint:noalloc
func (q *legQueue) slot(at float64) int64 {
	x := at * q.inv
	if x >= 0 && x < maxSlot {
		return int64(x)
	}
	if x < 0 {
		return 0
	}
	return maxSlot
}

// Push schedules a completion of machine m's head leg at time at.
func (q *legQueue) Push(at float64, m int32) {
	if q.mask == 0 {
		q.resize(minBuckets, 1)
	}
	q.put(legItem{at: at, seq: q.seq, m: m})
	q.seq++
}

// put files an item under the current width, rewinding the scan position
// when it lies before it.
func (q *legQueue) put(it legItem) {
	it.slot = q.slot(it.at)
	if q.n == 0 || it.slot < q.cur {
		q.cur = it.slot
	}
	q.buckets[it.slot&q.mask].insert(it)
	q.n++
}

// seek advances cur to the day of the earliest item and returns its
// bucket. The queue must be non-empty.
//
//rexlint:noalloc
func (q *legQueue) seek() *legBucket {
	for range q.buckets {
		if b := &q.buckets[q.cur&q.mask]; b.head < len(b.items) && b.items[b.head].slot == q.cur {
			return b
		}
		q.cur++
	}
	// Every item lies a year or more ahead: jump to the earliest head.
	q.cur = math.MaxInt64
	for i := range q.buckets {
		if b := &q.buckets[i]; b.head < len(b.items) && b.items[b.head].slot < q.cur {
			q.cur = b.items[b.head].slot
		}
	}
	return &q.buckets[q.cur&q.mask]
}

// take removes the head item of b.
//
//rexlint:noalloc
func (q *legQueue) take(b *legBucket) legItem {
	it := b.items[b.head]
	b.head++
	if b.head == len(b.items) {
		b.items, b.head = b.items[:0], 0
	}
	q.n--
	return it
}

// MinAt returns the earliest completion time, +Inf when the queue is
// empty.
//
//rexlint:noalloc
func (q *legQueue) MinAt() float64 {
	if q.n == 0 {
		return math.Inf(1)
	}
	b := q.seek()
	return b.items[b.head].at
}

// Pop removes the earliest completion and returns its time and machine.
// The queue must be non-empty.
//
//rexlint:noalloc
func (q *legQueue) Pop() (float64, int32) {
	it := q.take(q.seek())
	q.pops++
	return it.at, it.m
}

// retune sizes the calendar at time now from the pops since the last
// retune: a day twice their mean gap, and a year for the items queued
// now. It rebuilds only when the width is off by more than 2× or the day
// count should change by more than 2×, and keeps the width at least
// now·2⁻⁵⁰ so that times up to 8·now map below 2⁵³.
func (q *legQueue) retune(now float64) {
	pops, span := q.pops, now-q.since
	q.pops, q.since = 0, now
	if pops < 2 || !(span > 0) {
		return
	}
	width := math.Max(2*span/float64(pops), now*0x1p-50)
	nb := yearFor(q.n)
	cur, have := 1/q.inv, len(q.buckets)
	if width > 2*cur || 2*width < cur || nb > 2*have || 2*nb < have {
		q.resize(nb, 1/width)
	}
}

// presize sets the calendar before any pop has measured it: days of the
// given width and a year for n items.
func (q *legQueue) presize(width float64, n int) { q.resize(yearFor(n), 1/width) }

// yearFor is the day count for n queued items: the smallest power of two
// at or above max(minBuckets, 2n).
func yearFor(n int) int {
	nb := minBuckets
	for nb < 2*n {
		nb *= 2
	}
	return nb
}

// resize refiles every item into nb buckets of width 1/inv, draining the
// old calendar in order so that each new bucket is filled sorted.
func (q *legQueue) resize(nb int, inv float64) {
	old := legQueue{buckets: q.buckets, mask: q.mask, cur: q.cur, n: q.n}
	q.buckets, q.mask, q.inv, q.n = make([]legBucket, nb), int64(nb-1), inv, 0
	for old.n > 0 {
		q.put(old.take(old.seek()))
	}
}
