package env

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestSimClockAdvancesWithSleep(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var woke Time
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	s.Run()
	if woke != 5*Microsecond {
		t.Fatalf("woke at %d, want %d", woke, 5*Microsecond)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewSim(42)
		defer s.Shutdown()
		s.Net().Jitter = 500
		var times []Time
		s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
			times = append(times, p.Now())
		}})
		s.AddNode(1, NodeConfig{})
		s.Spawn(1, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Send(2, i)
				p.Sleep(100)
			}
		})
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("deliveries: %d and %d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSimMessageLatency(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	s.Net().Latency = 1500
	s.Net().Jitter = 0
	var at Time
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { at = p.Now() }})
	s.AddNode(1, NodeConfig{})
	s.Spawn(1, func(p *Proc) { p.Send(2, "hi") })
	s.Run()
	if at != 1500 {
		t.Fatalf("delivered at %d, want 1500", at)
	}
}

func TestSimDropAndFilter(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	s.Net().Filter = func(from, to NodeID, msg any) Verdict {
		if v, ok := msg.(int); ok && v%2 == 0 {
			return Drop
		}
		return Pass
	}
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Send(2, i)
		}
	})
	s.Run()
	if got != 5 {
		t.Fatalf("delivered %d, want 5 (evens dropped)", got)
	}
}

func TestSimDuplication(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	s.Net().Filter = func(from, to NodeID, msg any) Verdict { return Dup }
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestSimDownNodeDropsTraffic(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	n2 := s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	n2.SetDown(true)
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 0 {
		t.Fatalf("crashed node received %d messages", got)
	}
	n2.SetDown(false)
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 1 {
		t.Fatalf("recovered node received %d messages, want 1", got)
	}
}

func TestFutureCompleteBeforeWait(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	f.Complete(99)
	f.Complete(100) // duplicate ignored
	var got any
	s.Spawn(1, func(p *Proc) { got = f.Wait(p) })
	s.Run()
	if got != 99 {
		t.Fatalf("got %v, want 99", got)
	}
}

func TestFutureWaitThenComplete(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var got any
	var at Time
	s.Spawn(1, func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	s.Spawn(1, func(p *Proc) {
		p.Sleep(10 * Microsecond)
		f.Complete("done")
	})
	s.Run()
	if got != "done" || at != 10*Microsecond {
		t.Fatalf("got %v at %d", got, at)
	}
}

// An expiry nobody answers fires at exactly its deadline wherever it is
// queued: the now-heap (same bucket), the ring, or the far heap. A wait
// answered just before leaves a freed slot for the expiry to reuse.
func TestFutureTimeout(t *testing.T) {
	for _, d := range []Duration{100 * Nanosecond, 3 * Microsecond, 2 * Millisecond, 10 * Millisecond} {
		s := NewSim(1)
		s.AddNode(1, NodeConfig{})
		var start, end Time
		var answered, timedOut bool
		s.Spawn(1, func(p *Proc) {
			p.Sleep(300 * Nanosecond)
			f := NewFuture()
			p.Spawn(func(r *Proc) {
				r.Sleep(Microsecond)
				f.Complete(nil)
			})
			_, answered = f.WaitTimeout(p, 2*Millisecond)
			start = p.Now()
			_, ok := NewFuture().WaitTimeout(p, d)
			timedOut = !ok
			end = p.Now()
		})
		s.Run()
		s.Shutdown()
		if !answered || !timedOut || end != start+d {
			t.Fatalf("d=%d: answered=%v timedOut=%v, expired after %d", d, answered, timedOut, end-start)
		}
	}
}

func TestFutureTimeoutBeatenByComplete(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var got any
	var ok bool
	s.Spawn(1, func(p *Proc) { got, ok = f.WaitTimeout(p, 10*Microsecond) })
	s.Spawn(1, func(p *Proc) {
		p.Sleep(2 * Microsecond)
		f.Complete(7)
	})
	s.Run()
	if !ok || got != 7 {
		t.Fatalf("got %v ok=%v, want 7 true", got, ok)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var m Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(1, func(p *Proc) {
			p.Sleep(Duration(i) * 10) // arrive in index order
			m.Lock(p)
			order = append(order, i)
			p.Sleep(Microsecond)
			m.Unlock()
		})
	}
	s.Run()
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want FIFO %v", order, want)
		}
	}
}

func TestMutexSerializesCriticalSections(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 10; i++ {
		s.Spawn(1, func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Microsecond)
			inside--
			m.Unlock()
		})
	}
	end := s.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if end < 10*Microsecond {
		t.Fatalf("10 serialized 1µs sections finished in %d", end)
	}
}

func TestSemaphoreLimitsParallelism(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{Cores: 2})
	// 8 × 1 µs of compute on 2 cores must take 4 µs of virtual time.
	for i := 0; i < 8; i++ {
		s.Spawn(1, func(p *Proc) { p.Compute(Microsecond) })
	}
	end := s.Run()
	if end != 4*Microsecond {
		t.Fatalf("8×1µs on 2 cores ended at %d, want 4µs", end)
	}
}

func TestComputeUnlimitedCores(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{}) // Cores == 0: pure delay
	for i := 0; i < 8; i++ {
		s.Spawn(1, func(p *Proc) { p.Compute(Microsecond) })
	}
	if end := s.Run(); end != Microsecond {
		t.Fatalf("parallel compute ended at %d, want 1µs", end)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var m Mutex
	var c Cond
	ready := false
	woke := 0
	for i := 0; i < 4; i++ {
		s.Spawn(1, func(p *Proc) {
			m.Lock(p)
			for !ready {
				c.Wait(p, &m)
			}
			woke++
			m.Unlock()
		})
	}
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		m.Lock(p)
		ready = true
		m.Unlock()
		c.Broadcast()
	})
	s.Run()
	if woke != 4 {
		t.Fatalf("woke %d waiters, want 4", woke)
	}
}

// A cancelled timer never fires. One still in the ring leaves the queue at
// once, so a drained Run does not end on its instant; one beyond the ring
// window stays queued and fires as a no-op.
func TestTimerCancel(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	fired := 0
	near := s.After(Millisecond, func() { fired++ })
	far := s.After(Second, func() { fired++ })
	s.After(Microsecond, func() { fired++ })
	near.Cancel()
	if s.pq.Len() != 2 {
		t.Fatalf("Len=%d after cancelling the ring timer, want 2", s.pq.Len())
	}
	far.Cancel()
	if s.pq.Len() != 2 {
		t.Fatalf("Len=%d after cancelling the far timer, want 2 (lazy)", s.pq.Len())
	}
	near.Cancel() // a second cancel is a no-op
	if end := s.Run(); end != Second || fired != 1 {
		t.Fatalf("Run ended at %d with %d fired, want %d and 1", end, fired, Second)
	}
}

// Answered RPC waits unlink their expiries, so the ring holds only live
// events however many waits run: 10^5 sequential 2 ms waits answered after
// 1.5 µs would otherwise keep ~1,300 dead expiries queued at once.
func TestAnsweredWaitsKeepQueueSmall(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	const waits = 100000
	const answer = 1500 * Nanosecond
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < waits; i++ {
			f := NewFuture()
			p.Spawn(func(r *Proc) {
				r.Sleep(answer)
				f.Complete(nil)
			})
			if _, ok := f.WaitTimeout(p, 2*Millisecond); !ok {
				t.Errorf("wait %d timed out", i)
				return
			}
		}
	})
	// The run ends with the last answer, not on a trailing dead expiry.
	if end := s.Run(); end != waits*answer {
		t.Fatalf("Run ended at %d, want %d", end, waits*answer)
	}
	if n := len(s.pq.slab); n > 4 {
		t.Fatalf("slab grew to %d slots, want a small constant", n)
	}
}

func TestRunFor(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	ticks := 0
	s.Spawn(1, func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	// RunFor stops at the scheduled horizon; the wakeup at exactly t=10µs was
	// scheduled after the stop event and does not run.
	s.RunFor(10 * Microsecond)
	if ticks != 9 {
		t.Fatalf("ticks=%d, want 9", ticks)
	}
}

// Shutdown must end every kind of worker coroutine — parked, idle in the
// pool, and dispatched but never resumed (pooled or fresh) — and leak none.
func TestShutdownKillsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSim(1)
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	for i := 0; i < 50; i++ {
		s.Spawn(1, func(p *Proc) { f.Wait(p) }) // parked forever
	}
	for i := 0; i < 4; i++ {
		s.Spawn(1, func(p *Proc) {}) // finishes: idle in the pool
	}
	s.Spawn(1, func(p *Proc) {
		p.Sleep(1)
		// Four pooled and two fresh workers, dispatched but never resumed.
		for i := 0; i < 6; i++ {
			p.Spawn(func(*Proc) { t.Error("body ran after Stop") })
		}
		s.Stop()
	})
	s.Run()
	if n := runtime.NumGoroutine(); n < before+s.WorkerCount() {
		t.Fatalf("%d goroutines with %d workers live, started from %d", n, s.WorkerCount(), before)
	}
	s.Shutdown() // must not hang
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > before; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the sim", n, before)
	}
}

// runPanic runs s and returns the value Run panicked with (nil if none).
func runPanic(s *Sim) (r any) {
	defer func() { r = recover() }()
	s.Run()
	return nil
}

func TestSimNestedRun(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var got []string
	note := func(p *Proc, what string) { got = append(got, fmt.Sprintf("%d:%s", p.Now(), what)) }
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2)
			note(p, "tick")
		}
	})
	s.Spawn(1, func(p *Proc) {
		p.Sleep(1)
		p.Spawn(func(q *Proc) {
			q.Sleep(1) // due at 2 like the first tick, but queued after it
			note(q, "inner")
		})
		if end := s.Run(); end != 6 {
			t.Errorf("nested Run ended at %d, want 6", end)
		}
		note(p, "nested-done")
	})
	if end := s.Run(); end != 6 {
		t.Fatalf("Run ended at %d, want 6", end)
	}
	want := "[2:tick 2:inner 4:tick 6:tick 6:nested-done]"
	if fmt.Sprint(got) != want {
		t.Fatalf("events %v, want %s", got, want)
	}
}

func TestSimHandlerPanicSurfaces(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	type boom struct{ n int }
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { panic(boom{msg.(int)}) }})
	s.AddNode(1, NodeConfig{})
	s.Spawn(1, func(p *Proc) { p.Send(2, 7) })
	if r := runPanic(s); r != (boom{7}) {
		t.Fatalf("Run panicked with %#v, want boom{7}", r)
	}
}

func TestSimDoubleWakePanics(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var waiter *Proc
	s.Spawn(1, func(p *Proc) {
		waiter = p
		f.Wait(p)
		s.Run() // pops the stray second wake while p is running
	})
	s.Spawn(1, func(p *Proc) {
		f.Complete(nil)
		s.unpark(waiter) // a second wake for one park
	})
	r := runPanic(s)
	if msg, _ := r.(string); !strings.Contains(msg, "scheduling a proc in state 2, want 3") {
		t.Fatalf("Run panicked with %#v, want the state assertion", r)
	}
}

func TestRealEnvBasics(t *testing.T) {
	r := NewReal()
	r.AddNode(1, NodeConfig{})
	done := make(chan Time, 1)
	r.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
		if msg != "ping" || from != 1 {
			t.Errorf("got %v from %d", msg, from)
		}
		done <- p.Now()
	}})
	r.Spawn(1, func(p *Proc) { p.Send(2, "ping") })
	<-done
}

func TestRealEnvFutureAndMutex(t *testing.T) {
	r := NewReal()
	r.AddNode(1, NodeConfig{})
	f := NewFuture()
	var m Mutex
	got := make(chan any, 1)
	r.Spawn(1, func(p *Proc) {
		m.Lock(p)
		v := f.Wait(p)
		m.Unlock()
		got <- v
	})
	r.Spawn(1, func(p *Proc) {
		p.Sleep(Millisecond)
		f.Complete(123)
	})
	if v := <-got; v != 123 {
		t.Fatalf("got %v", v)
	}
}
