package env

import "math/bits"

// The simulator's event queue is a two-level calendar ("ladder") queue
// indexed by time bucket, replacing a single global binary heap. Events in
// the current bucket live in a small typed min-heap; events within the near
// window are linked O(1) into their time bucket; events beyond the window
// overflow into a typed far heap and migrate into the ring as virtual time
// advances. An occupancy bitmap finds the next populated bucket with a
// handful of word scans instead of walking empty slots. Zero-delay pushes
// (unparks, delivery dispatch, spawns) skip all of that and append to a
// FIFO of the current instant.
//
// The structure pops events in exactly (at, seq) order — the same total
// order the old global heap produced — because bucket ordinals partition
// time: every event in bucket b fires strictly before any event in bucket
// b+1, and the now-heap orders events sharing a bucket. The FIFO keeps that
// order too: a zero-delay push is stamped with the current instant and the
// largest sequence number yet, so it follows every queued event of that
// instant and precedes every later one, in push order. evqueue_test.go
// checks all of this against a reference model on randomized schedules.
//
// Memory follows live events. Ring buckets are doubly linked lists of slots
// in one free-listed slab, so a bucket holds no capacity of its own, and a
// resident can be unlinked in O(1) by its slot. Nearly every RPC wait arms a
// 2 ms expiry that the reply beats by three orders of magnitude; the wait
// removes its expiry when it returns (cancel), so answered expiries neither
// pile up in the ring nor set its high-water. An expiry outside the ring
// (moved on into the now-heap, or pushed past the window into the far heap)
// stays queued, and its owner's lazy guard skips it when it fires.

// Event kinds. The tagged union avoids allocating a closure + Timer + heap
// interface box per scheduled event — the dominant allocation source of the
// previous engine.
const (
	// evTimer fires a cancellable Timer callback (After / sched).
	evTimer uint8 = iota
	// evWake makes proc p runnable; aux holds the scheduler state the proc
	// must be in (stateDispatched or stateParked).
	evWake
	// evDeliver hands message msg from node `from` to node `to`.
	evDeliver
	// evTimeout expires a Future wait for p when p's timeout generation
	// still equals aux. A wait that returns first unlinks its expiry from
	// the ring; a stale generation marks one it could no longer reach.
	evTimeout
	// evSpawn starts msg (a func(*Proc)) on node `to` when it fires: a
	// parked-to-heap continuation. Until then the pending session costs one
	// queued event — no goroutine, no stack.
	evSpawn
)

// event is one scheduled simulator action. msg multiplexes the payload —
// the delivered message for evDeliver, the *Timer for evTimer, the *Future
// for evTimeout — keeping the struct at 64 bytes; events are copied by
// value through the queue, so size is speed.
type event struct {
	at   Time
	seq  uint64
	aux  uint64
	p    *Proc
	msg  any
	from NodeID
	to   NodeID
	kind uint8
}

// before orders events by (time, schedule sequence).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap ordered by (at, seq); no interface
// boxing on push/pop.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release pointers for GC
	*h = q[:n]
	h.down(0)
	return top
}

// init establishes the heap order over arbitrary contents in O(n).
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts element i toward the leaves until the heap order holds.
func (h *eventHeap) down(i int) {
	q := *h
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].before(&q[min]) {
			min = l
		}
		if r < n && q[r].before(&q[min]) {
			min = r
		}
		if min == i {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

const (
	// bucketShift sets the bucket granularity: 512 ns per bucket, a
	// fraction of the 1.5 µs default link latency.
	bucketShift = 9
	// ringBits sets the near window: 8192 buckets ≈ 4.2 ms, covering the
	// 2 ms RPC retransmission timeout that dominates long-lived events.
	ringBits = 13
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// slotLinks chains a slab slot into its bucket's list. Links are 1-based
// slot numbers (0 is "none") and live beside the slab rather than in the
// event, which stays at 64 bytes. A free slot's next chains the free list.
type slotLinks struct{ prev, next int32 }

// eventQueue is the ladder queue.
type eventQueue struct {
	n   int
	cur int64 // bucket ordinal all popped events precede-or-share
	// now holds events of bucket ordinal `cur`.
	now eventHeap
	// fifo[fifoHead:] holds zero-delay pushes of the current instant.
	fifo     []event
	fifoHead int
	// head[o&ringMask] is the first slot of the list holding the events of
	// ordinal o, for o in (cur, cur+ringSize); 0 when the bucket is empty.
	head  [ringSize]int32
	nRing int
	// occ is the ring occupancy bitmap: bit s set ⇔ head[s] != 0.
	occ [ringSize / 64]uint64
	// slab[k-1] is the event in slot k and links[k-1] its list links.
	// free is the first free slot.
	slab  []event
	links []slotLinks
	free  int32
	// far holds events at or beyond ordinal cur+ringSize.
	far eventHeap
}

func ordinalOf(t Time) int64 { return int64(uint64(t) >> bucketShift) }

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.n }

// push enqueues ev; ev.at must be ≥ the time of the last popped event. It
// returns the ring slot ev went to, for cancel, or 0 if it went elsewhere.
func (q *eventQueue) push(ev event) int32 {
	q.n++
	o := ordinalOf(ev.at)
	switch {
	case o <= q.cur:
		q.now.push(ev)
	case o < q.cur+ringSize:
		return q.link(o&ringMask, ev)
	default:
		q.far.push(ev)
	}
	return 0
}

// pushNow enqueues ev at the current instant: ev.at must equal the time of
// the last popped event (0 before the first pop) and ev.seq must exceed
// every queued seq.
func (q *eventQueue) pushNow(ev event) {
	q.n++
	if q.fifoHead > 0 && len(q.fifo) == cap(q.fifo) {
		// Reuse the popped prefix before growing: a long chain of wakeups
		// within one instant must not grow the FIFO past its live events.
		n := copy(q.fifo, q.fifo[q.fifoHead:])
		clear(q.fifo[n:])
		q.fifo = q.fifo[:n]
		q.fifoHead = 0
	}
	q.fifo = append(q.fifo, ev)
}

// cancel removes the event pushed with sequence number seq if it is still
// queued in ring slot k (as returned by push), reporting whether it did.
// An event that has left its slot — popped, or moved into the now-heap —
// is not touched; the slot may by then hold another event, which the seq
// check tells apart.
func (q *eventQueue) cancel(k int32, seq uint64) bool {
	if k == 0 || q.slab[k-1].seq != seq {
		return false
	}
	l := q.links[k-1]
	if l.prev != 0 {
		q.links[l.prev-1].next = l.next
	} else {
		s := ordinalOf(q.slab[k-1].at) & ringMask
		q.head[s] = l.next
		if l.next == 0 {
			q.occ[s>>6] &^= 1 << uint(s&63)
			q.nRing--
		}
	}
	if l.next != 0 {
		q.links[l.next-1].prev = l.prev
	}
	q.release(k)
	q.n--
	return true
}

// pop dequeues the (at, seq)-minimal event. Call only when Len() > 0.
func (q *eventQueue) pop() event {
	if q.fifoFirst() {
		ev := q.fifo[q.fifoHead]
		q.fifo[q.fifoHead] = event{} // release pointers for GC
		q.fifoHead++
		if q.fifoHead == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.fifoHead = 0
		}
		q.n--
		return ev
	}
	if len(q.now) == 0 {
		q.advance()
	}
	q.n--
	return q.now.pop()
}

// peek returns the (at, seq)-minimal event without dequeuing it. Call only
// when Len() > 0.
func (q *eventQueue) peek() *event {
	if q.fifoFirst() {
		return &q.fifo[q.fifoHead]
	}
	if len(q.now) == 0 {
		q.advance()
	}
	return &q.now[0]
}

// fifoFirst reports whether the FIFO head is the next event. With the
// now-heap empty it is: the ring and far heap hold only later buckets.
func (q *eventQueue) fifoFirst() bool {
	return q.fifoHead < len(q.fifo) &&
		(len(q.now) == 0 || q.fifo[q.fifoHead].before(&q.now[0]))
}

// advance moves cur to the next populated bucket and loads it into the now
// heap, migrating far events that the new window reaches.
func (q *eventQueue) advance() {
	for len(q.now) == 0 {
		if q.nRing > 0 {
			o := q.nextRingOrdinal()
			q.loadBucket(o)
		} else {
			// Jump straight to the earliest far event's bucket.
			q.cur = ordinalOf(q.far[0].at)
		}
		q.migrateFar()
	}
}

// nextRingOrdinal scans the occupancy bitmap for the first populated bucket
// after cur.
func (q *eventQueue) nextRingOrdinal() int64 {
	for d := int64(1); d < ringSize; {
		s := (q.cur + d) & ringMask
		w := q.occ[s>>6] >> uint(s&63)
		if w != 0 {
			return q.cur + d + int64(bits.TrailingZeros64(w))
		}
		d += 64 - int64(s&63) // next word boundary
	}
	panic("env: event ring occupancy out of sync")
}

// loadBucket makes ordinal o current and moves its events into the (empty)
// now-heap, freeing their slots.
func (q *eventQueue) loadBucket(o int64) {
	q.cur = o
	s := o & ringMask
	k := q.head[s]
	if k == 0 {
		return
	}
	q.head[s] = 0
	q.occ[s>>6] &^= 1 << uint(s&63)
	q.nRing--
	for k != 0 {
		next := q.links[k-1].next
		q.now = append(q.now, q.slab[k-1])
		q.release(k)
		k = next
	}
	q.now.init()
}

// migrateFar pulls far events that now fall inside the ring window.
func (q *eventQueue) migrateFar() {
	limit := q.cur + ringSize
	for len(q.far) > 0 && ordinalOf(q.far[0].at) < limit {
		ev := q.far.pop()
		if o := ordinalOf(ev.at); o <= q.cur {
			q.now.push(ev)
		} else {
			q.link(o&ringMask, ev)
		}
	}
}

// link stores ev in a free slot at the front of bucket s's list.
func (q *eventQueue) link(s int64, ev event) int32 {
	k := q.free
	if k != 0 {
		q.free = q.links[k-1].next
		q.slab[k-1] = ev
	} else {
		q.slab = append(q.slab, ev)
		q.links = append(q.links, slotLinks{})
		k = int32(len(q.slab))
	}
	h := q.head[s]
	q.links[k-1] = slotLinks{next: h}
	if h != 0 {
		q.links[h-1].prev = k
	} else {
		q.occ[s>>6] |= 1 << uint(s&63)
		q.nRing++
	}
	q.head[s] = k
	return k
}

// release clears slot k (dropping its pointers for GC and its seq, so a
// stale cancel cannot match) and puts it on the free list.
func (q *eventQueue) release(k int32) {
	q.slab[k-1] = event{}
	q.links[k-1] = slotLinks{next: q.free}
	q.free = k
}
