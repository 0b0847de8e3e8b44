package env

import "testing"

// BenchmarkProcHandoff measures one park/wake handoff between two processes:
// each iteration is a round trip (two handoffs) through a pair of Futures,
// plus the two Future allocations that re-arm them.
func BenchmarkProcHandoff(b *testing.B) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	ping, pong := NewFuture(), NewFuture()
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			ping = NewFuture()
			pong.Complete(nil)
		}
	})
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Complete(nil)
			pong.Wait(p)
			pong = NewFuture()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkFutureWaitTimeout measures a timed Future wait, the shape of every
// RPC: "completed" is answered by a peer process 1µs later, well before the
// deadline (the answered wait unlinks its queued expiry), "expired" times
// out with no peer.
func BenchmarkFutureWaitTimeout(b *testing.B) {
	b.Run("completed", func(b *testing.B) {
		s := NewSim(1)
		defer s.Shutdown()
		s.AddNode(1, NodeConfig{})
		req, resp := NewFuture(), NewFuture()
		s.Spawn(1, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				req.Wait(p)
				req = NewFuture()
				p.Sleep(Microsecond)
				resp.Complete(nil)
			}
		})
		s.Spawn(1, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				req.Complete(nil)
				if _, ok := resp.WaitTimeout(p, 10*Microsecond); !ok {
					b.Error("wait timed out")
				}
				resp = NewFuture()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
	b.Run("expired", func(b *testing.B) {
		s := NewSim(1)
		defer s.Shutdown()
		s.AddNode(1, NodeConfig{})
		f := NewFuture()
		s.Spawn(1, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				if _, ok := f.WaitTimeout(p, Microsecond); ok {
					b.Error("wait completed with no peer")
				}
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
}

// BenchmarkRPCWait measures the event queue under the RPC load that
// dominates the simulated filesystem: 256 processes each send a request and
// wait up to 2 ms for the reply, which a handler on another node sends back
// by completing the request's Future on delivery, 1.5 µs later. One op is
// one answered wait: a Future, a delivery, a handler dispatch, a wakeup, and
// an expiry armed and then cancelled.
func BenchmarkRPCWait(b *testing.B) {
	const procs = 256
	s := NewSim(1)
	defer s.Shutdown()
	s.Net().Jitter = 0
	s.AddNode(1, NodeConfig{})
	s.AddNode(2, NodeConfig{Handler: func(_ *Proc, _ NodeID, msg any) {
		msg.(*Future).Complete(nil)
	}})
	for i := 0; i < procs; i++ {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		s.Spawn(1, func(p *Proc) {
			for j := 0; j < n; j++ {
				f := NewFuture()
				p.Send(2, f)
				if _, ok := f.WaitTimeout(p, 2*Millisecond); !ok {
					b.Error("wait timed out")
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
