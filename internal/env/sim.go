//go:build go1.23

// The build constraint lifts this file to go1.23 for iter.Pull (runtime
// coroutines) while the module stays at go 1.22.

package env

import (
	"fmt"
	"iter"
	"math/rand"
)

// Sim is the deterministic discrete-event environment. All processes are
// cooperatively scheduled: exactly one process (or event callback) executes
// at any moment, events fire in (time, insertion) order, and every random
// decision comes from a single seeded generator — identical configurations
// produce identical executions.
//
// The engine is built for throughput: events are plain values in a calendar
// queue (no allocation per message delivery, wakeup, sleep or RPC timeout),
// and the scheduler is one driver loop (Run) over pooled runtime coroutines.
// The driver pops events in order and resumes the process a wakeup names;
// the process runs until it parks or its body returns, then yields straight
// back to the driver. A coroutine switch never involves the Go scheduler,
// so no thread is woken and no goroutine is queued per handoff.
type Sim struct {
	cur   Time
	seq   uint64
	pq    eventQueue
	nodes map[NodeID]*Node
	net   NetConfig
	rnd   *rand.Rand

	stopped bool

	free []*simProcState // pooled worker coroutines
	all  []*simProcState // every live worker, for Shutdown

	// Stats observable by harnesses.
	Delivered uint64
	Dropped   uint64
	// lastBusy is the virtual time of the last real work (a process ran);
	// cancelled-timer no-ops do not advance it.
	lastBusy Time
}

type simProcState struct {
	p    *Proc
	fn   func(*Proc)
	stop func() // ends the coroutine (Shutdown)
	// Message deliveries dispatch through the node's handler with the
	// from/msg pair stored here, avoiding a closure per packet.
	hnode *Node
	hfrom NodeID
	hmsg  any
}

// NewSim creates a simulator seeded for deterministic execution.
func NewSim(seed int64) *Sim {
	s := &Sim{
		nodes: make(map[NodeID]*Node),
		rnd:   rand.New(rand.NewSource(seed)),
		net:   DefaultNetConfig(),
	}
	return s
}

// Now returns the virtual clock.
func (s *Sim) Now() Time { return s.cur }
func (s *Sim) now() Time { return s.cur }

// Net returns the mutable network configuration.
func (s *Sim) Net() *NetConfig { return &s.net }

// AddNode registers (or re-registers) a node.
func (s *Sim) AddNode(id NodeID, cfg NodeConfig) *Node {
	n := s.nodes[id]
	if n == nil {
		n = &Node{ID: id, env: s}
		s.nodes[id] = n
	}
	n.h = cfg.Handler
	if cfg.Cores > 0 {
		n.cores = NewSemaphore(cfg.Cores)
	} else {
		n.cores = nil
	}
	n.down = false
	return n
}

// Node returns a registered node or nil.
func (s *Sim) Node(id NodeID) *Node { return s.nodes[id] }

// Spawn starts a process on the given node at the current virtual time.
func (s *Sim) Spawn(node NodeID, fn func(*Proc)) {
	n := s.nodes[node]
	if n == nil {
		panic("env: Spawn on unregistered node")
	}
	s.newProc(n, fn)
}

// After schedules a callback.
func (s *Sim) After(d Duration, fn func()) *Timer { return s.sched(d, fn) }

// SpawnAfter schedules fn to start on node after d of virtual time without
// holding a coroutine in the meantime: the continuation is carried by a
// queued event and dispatches on a pooled worker when it fires. This is the
// O(1)-memory idle-session shape — a session that would otherwise sleep on a
// parked coroutine between operations re-queues its next step instead, so a
// million idle clients cost a million queued events, not a million stacks.
// The pool only ever grows to the number of *concurrently running* bodies.
// If the node is down when the event fires, the continuation is dropped
// (the session dies with its node, like a delivery to a crashed node).
func (s *Sim) SpawnAfter(node NodeID, d Duration, fn func(*Proc)) {
	if s.nodes[node] == nil {
		panic("env: SpawnAfter on unregistered node")
	}
	s.push(d, event{kind: evSpawn, to: node, msg: fn})
}

// WorkerCount reports how many pooled worker coroutines have been created so
// far: the peak concurrent-body count of the run, and the figure harnesses'
// witness that parked sessions are not holding stacks.
func (s *Sim) WorkerCount() int { return len(s.all) }

// push enqueues ev at cur+d with the next insertion sequence number (s.seq
// afterwards) and returns its ring slot for eventQueue.cancel, or 0.
func (s *Sim) push(d Duration, ev event) int32 {
	s.seq++
	ev.seq = s.seq
	if d <= 0 {
		ev.at = s.cur
		s.pq.pushNow(ev)
		return 0
	}
	ev.at = s.cur + d
	return s.pq.push(ev)
}

func (s *Sim) sched(d Duration, fn func()) *Timer {
	t := &Timer{fn: fn, q: &s.pq}
	t.slot = s.push(d, event{kind: evTimer, msg: t})
	t.seq = s.seq
	return t
}

// schedWake schedules proc p (currently transitioning to state `want`) to
// run after d, with no allocation.
func (s *Sim) schedWake(p *Proc, d Duration, want int) {
	s.push(d, event{kind: evWake, p: p, aux: uint64(want)})
}

// schedTimeout schedules a Future-wait expiry for p, recording where it is
// queued so the wait can cancel it; gen guards staleness.
func (s *Sim) schedTimeout(p *Proc, f *Future, d Duration, gen uint64) {
	p.twSlot = s.push(d, event{kind: evTimeout, p: p, msg: f, aux: gen})
	p.twSeq = s.seq
}

func (s *Sim) randFloat() float64 { return s.rnd.Float64() }

func (s *Sim) randJitter(j Duration) Duration {
	if j <= 0 {
		return 0
	}
	return Duration(s.rnd.Int63n(int64(j)))
}

// deliver sends a message through the simulated network.
func (s *Sim) deliver(from, to NodeID, msg any, extraDelay Duration) {
	src := s.nodes[from]
	if src != nil && src.down {
		return // a crashed node emits nothing
	}
	drop, dup, delay := s.net.decide(from, to, msg, s)
	if drop {
		s.Dropped++
		return
	}
	n := 1
	if dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		d := delay + extraDelay
		if i > 0 {
			d += s.randJitter(s.net.Latency) // duplicates trail the original
		}
		s.push(d, event{kind: evDeliver, from: from, to: to, msg: msg})
	}
}

// dispatchDeliver hands a delivered message to the destination's handler on
// a pooled process.
func (s *Sim) dispatchDeliver(ev *event) {
	dst := s.nodes[ev.to]
	if dst == nil || dst.down || dst.h == nil {
		s.Dropped++
		return
	}
	s.Delivered++
	st := s.takeWorker()
	st.p.node = dst
	st.p.tctx = TraceCtx{} // pooled worker: no ambient trace leaks across dispatches
	st.hnode = dst
	st.hfrom = ev.from
	st.hmsg = ev.msg
	st.p.state = stateDispatched
	s.schedWake(st.p, 0, stateDispatched)
}

// newProc dispatches fn on a pooled worker coroutine, scheduled immediately.
func (s *Sim) newProc(node *Node, fn func(*Proc)) {
	st := s.takeWorker()
	st.p.node = node
	st.p.tctx = TraceCtx{}
	st.fn = fn
	st.p.state = stateDispatched
	s.schedWake(st.p, 0, stateDispatched)
}

// takeWorker pops a pooled worker or starts a fresh one.
func (s *Sim) takeWorker() *simProcState {
	if k := len(s.free); k > 0 {
		st := s.free[k-1]
		s.free = s.free[:k-1]
		return st
	}
	st := &simProcState{p: &Proc{env: s}}
	st.p.next, st.stop = iter.Pull(s.worker(st))
	s.all = append(s.all, st)
	return st
}

// Proc lifecycle states (diagnostics for the scheduler invariants).
const (
	stateIdle = iota
	stateDispatched
	stateRunning
	stateParked
)

// worker is the body of a pooled worker coroutine: it runs one dispatched
// body per resume, returns itself to the pool, and yields back to the
// driver until the next dispatch.
func (s *Sim) worker(st *simProcState) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			// A killed worker unwinds with killSentinel; anything else is a
			// real bug and propagates to whoever resumed the coroutine.
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r)
				}
			}
		}()
		st.p.yield = yield
		for {
			switch {
			case st.hnode != nil:
				n, from, msg := st.hnode, st.hfrom, st.hmsg
				st.hnode, st.hmsg = nil, nil
				if n.h != nil {
					n.h(st.p, from, msg)
				}
			case st.fn != nil:
				fn := st.fn
				st.fn = nil
				fn(st.p)
			default:
				panic("env: worker dispatched with no function")
			}
			st.p.state = stateIdle
			s.free = append(s.free, st)
			if !yield(struct{}{}) {
				return // Shutdown
			}
		}
	}
}

type killSentinel struct{}

// pop dequeues the next event and advances the clock to it.
func (s *Sim) pop() event {
	ev := s.pq.pop()
	if ev.at > s.cur {
		s.cur = ev.at
	}
	return ev
}

// wake marks p running for a wakeup scheduled from state want. A wakeup
// must find its proc in that state; this also catches a second wake for a
// running proc (a double unpark) before it could resume a coroutine
// re-entrantly.
func (s *Sim) wake(p *Proc, want uint64) {
	s.lastBusy = s.cur
	if p.state != int(want) {
		panic(fmt.Sprintf("env: scheduling a proc in state %d, want %d", p.state, want))
	}
	p.state = stateRunning
}

// exec performs one event. A wakeup resumes the process's coroutine and
// returns when it parks or its body returns.
func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evTimer:
		ev.msg.(*Timer).fire()
	case evTimeout:
		s.fireTimeout(ev)
	case evDeliver:
		s.dispatchDeliver(ev)
	case evSpawn:
		if n := s.nodes[ev.to]; n != nil && !n.down {
			s.newProc(n, ev.msg.(func(*Proc)))
		}
	case evWake:
		s.wake(ev.p, ev.aux)
		ev.p.next()
	}
}

// fireTimeout expires a Future wait unless the wait already completed (the
// generation is stale or the future found its value).
func (s *Sim) fireTimeout(ev *event) {
	p, f := ev.p, ev.msg.(*Future)
	if p.twGen != ev.aux {
		return // the wait already ended but could not unlink this expiry
	}
	f.mu.Lock()
	if f.done || f.waiter != p {
		f.mu.Unlock()
		return
	}
	f.waiter = nil
	f.mu.Unlock()
	p.timedOut = true
	s.unpark(p)
}

// park is called from a running process to hand control back to the
// scheduler until unparked. Under Sim it yields to the loop that resumed the
// process; a false yield means Shutdown is ending the coroutine. While the
// loop's next event concerns only this process — its wakeup (an uncontended
// Compute or Sleep) or its wait expiry — park takes that step itself and
// skips the coroutine round trip.
func (p *Proc) park() {
	if p.yield == nil {
		<-p.resume // Real
		return
	}
	p.state = stateParked
	for s := p.env.(*Sim); !s.stopped && s.pq.Len() > 0 && s.pq.peek().p == p; {
		ev := s.pop()
		if ev.kind == evTimeout {
			s.fireTimeout(&ev) // may make p's wakeup the next event
			continue
		}
		s.wake(p, ev.aux)
		return
	}
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// unpark makes a parked process runnable at the current virtual time.
func (s *Sim) unpark(p *Proc) {
	s.schedWake(p, 0, stateParked)
}

// Run is the scheduler loop: it executes events in (time, insertion) order
// until the queue drains or Stop is called, and returns the virtual time
// reached. A Stop from an earlier Run does not carry over. Run may nest (a
// session body driving a nested session): the nested loop runs on the body's
// coroutine, so the processes it resumes yield back to it, and the outer
// loop continues once the body parks or returns.
func (s *Sim) Run() Time {
	s.stopped = false
	for !s.stopped && s.pq.Len() > 0 {
		ev := s.pop()
		s.exec(&ev)
	}
	return s.cur
}

// RunFor executes events for d of virtual time, then stops (leaving pending
// events queued). It returns the virtual time reached.
func (s *Sim) RunFor(d Duration) Time {
	s.sched(d, func() { s.stopped = true })
	return s.Run()
}

// Stop halts Run after the current event.
func (s *Sim) Stop() { s.stopped = true }

// LastBusy returns the virtual time of the most recent process execution —
// the drain point of background work, ignoring trailing cancelled timers.
func (s *Sim) LastBusy() Time { return s.lastBusy }

// Shutdown ends every worker coroutine: a parked process unwinds from its
// park with killSentinel, an idle or never-started one simply returns. The
// simulation must not be Run again afterwards. Benchmarks call Shutdown after
// every configuration so parked processes do not accumulate across runs.
func (s *Sim) Shutdown() {
	s.stopped = true
	for _, st := range s.all {
		st.stop()
	}
	s.free = nil
}
