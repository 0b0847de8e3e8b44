package env

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEventQueueOrdering drives the ladder queue with randomized interleaved
// push/pop/cancel schedules and checks every pop against a reference model
// sorted by (at, seq) — the total order the simulator's determinism rests
// on. Zero-delay pushes go through pushNow, as the simulator sends them.
// Cancellation must remove exactly the events still linked in a ring bucket
// under the slot push returned; the rest (now-heap, FIFO and far-heap
// residents, and ring residents pushed while still far) stay queued and pop
// in order, as the simulator's lazy guards expect.
func TestEventQueueOrdering(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		var ref []event
		slots := map[uint64]int32{} // seq → slot push returned
		var popped []event          // recent pops, for stale cancels
		var cur Time
		var seq uint64
		// Delay mix mirroring the simulator: immediate wakeups, link-latency
		// deliveries, retransmission timeouts beyond the ring window, and
		// occasional far-future timers.
		delays := []Duration{0, 0, 0, 1, 100, 1500, 1700, 2 * Millisecond,
			2 * Millisecond, 5 * Millisecond, 40 * Millisecond, 300 * Millisecond}
		for step := 0; step < 4000; step++ {
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len=%d want %d", trial, step, q.Len(), len(ref))
			}
			switch op := rnd.Intn(6); {
			case q.Len() == 0 || op < 3:
				d := delays[rnd.Intn(len(delays))]
				if d != 0 && rnd.Intn(8) == 0 {
					d += Duration(rnd.Int63n(int64(10 * Millisecond)))
				}
				seq++
				ev := event{at: cur + d, seq: seq, aux: seq}
				if d == 0 {
					q.pushNow(ev)
				} else {
					slots[seq] = q.push(ev)
				}
				ref = append(ref, ev)
			case op == 3:
				i := rnd.Intn(len(ref))
				ev := ref[i]
				k := slots[ev.seq]
				inRing := k != 0 && ordinalOf(ev.at) > q.cur
				if got := q.cancel(k, ev.seq); got != inRing {
					t.Fatalf("trial %d step %d: cancel(at=%d seq=%d slot=%d) = %v, want %v (cur bucket %d)",
						trial, step, ev.at, ev.seq, k, got, inRing, q.cur)
				}
				if inRing {
					ref = append(ref[:i], ref[i+1:]...)
				}
			case op == 4 && len(popped) > 0:
				// A popped event's slot may hold another event by now; its
				// cancel must not touch it.
				ev := popped[rnd.Intn(len(popped))]
				if q.cancel(slots[ev.seq], ev.seq) {
					t.Fatalf("trial %d step %d: cancelled popped event seq=%d", trial, step, ev.seq)
				}
			default:
				sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
				want := ref[0]
				ref = ref[1:]
				if pk := q.peek(); pk.seq != want.seq {
					t.Fatalf("trial %d step %d: peek seq=%d, want %d", trial, step, pk.seq, want.seq)
				}
				got := q.pop()
				if got.at != want.at || got.seq != want.seq || got.aux != want.aux {
					t.Fatalf("trial %d step %d: popped (at=%d seq=%d), want (at=%d seq=%d)",
						trial, step, got.at, got.seq, want.at, want.seq)
				}
				if got.at < cur {
					t.Fatalf("trial %d step %d: time went backwards (%d < %d)", trial, step, got.at, cur)
				}
				cur = got.at
				if popped = append(popped, got); len(popped) > 64 {
					popped = popped[1:]
				}
			}
		}
		// Drain: the remainder must come out in exact (at, seq) order.
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
		for i := 0; q.Len() > 0; i++ {
			got := q.pop()
			if got.at != ref[i].at || got.seq != ref[i].seq {
				t.Fatalf("trial %d drain %d: popped (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, got.at, got.seq, ref[i].at, ref[i].seq)
			}
			cur = got.at
		}
		// Every slot is back on the free list: the slab holds no event.
		for k := range q.slab {
			if q.slab[k] != (event{}) {
				t.Fatalf("trial %d: slot %d still holds seq=%d after drain", trial, k+1, q.slab[k].seq)
			}
		}
	}
}

// The event is copied by value through every queue operation; its comment
// and the slab layout rely on it staying one cache line.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 64 {
		t.Fatalf("event is %d bytes, want 64", sz)
	}
}

// TestEventQueueSparseJumps exercises large time gaps that skip far past the
// ring window in one hop (idle simulations with a lone recovery timer).
func TestEventQueueSparseJumps(t *testing.T) {
	var q eventQueue
	var seq uint64
	at := []Time{0, 100, 3 * Millisecond, 600 * Millisecond, 601 * Millisecond,
		10 * Second, 10*Second + 1}
	for _, a := range at {
		seq++
		q.push(event{at: a, seq: seq})
	}
	for i, want := range at {
		got := q.pop()
		if got.at != want {
			t.Fatalf("pop %d: at=%d want %d", i, got.at, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}
