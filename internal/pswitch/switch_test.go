package pswitch

import (
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// BenchmarkSwitchInsert is the host-time layer benchmark of the switch's
// insert-success path (Fig. 4 steps 6–7): Handler parses a dirty-set insert,
// inserts the fingerprint, and multicasts the client's response and the
// origin's CommitAck. One iteration is one Handler call; the two deliveries
// it causes run in the same simulation.
func BenchmarkSwitchInsert(b *testing.B) {
	const (
		swID     env.NodeID = 100
		origin   env.NodeID = 1
		clientID env.NodeID = 2
	)
	s := env.NewSim(1)
	defer s.Shutdown()
	sw := New(swID, Config{Stages: 4, IndexBits: 10, PipeDelay: 200 * env.Nanosecond})
	s.AddNode(swID, env.NodeConfig{})
	acks := 0
	s.AddNode(origin, env.NodeConfig{Handler: func(_ *env.Proc, _ env.NodeID, msg any) {
		if _, ok := msg.(*wire.Packet).Body.(*wire.CommitAck); ok {
			acks++
		}
	}})
	s.AddNode(clientID, env.NodeConfig{Handler: func(*env.Proc, env.NodeID, any) {}})
	resp := &wire.MutateResp{}
	pkts := make([]*wire.Packet, 16)
	for i := range pkts {
		f := fp(uint64(i))
		pkts[i] = &wire.Packet{
			DS:     &wire.DSHeader{Op: wire.DSInsert, FP: f, AltDst: origin},
			Dst:    swID,
			Origin: origin,
			Body:   &wire.CommitNotice{Resp: resp, Client: clientID, CommitID: uint64(i)},
		}
	}
	s.Spawn(swID, func(p *env.Proc) {
		for i := 0; i < b.N; i++ {
			sw.Handler(p, origin, pkts[i%len(pkts)])
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	if acks != b.N || sw.Stats.Overflows.Load() != 0 {
		b.Fatalf("%d acks, %d overflows for %d inserts", acks, sw.Stats.Overflows.Load(), b.N)
	}
}

// TestInsertSuccessReplies checks the carved completion multicast: the
// client gets the notice's response and the origin a CommitAck for the
// notice's commit id, each in a packet from the switch.
func TestInsertSuccessReplies(t *testing.T) {
	s := env.NewSim(1)
	defer s.Shutdown()
	sw := New(100, Config{Stages: 4, IndexBits: 10})
	s.AddNode(100, env.NodeConfig{})
	got := map[env.NodeID]*wire.Packet{}
	record := func(_ *env.Proc, _ env.NodeID, msg any) {
		pkt := msg.(*wire.Packet)
		got[pkt.Dst] = pkt
	}
	s.AddNode(1, env.NodeConfig{Handler: record})
	s.AddNode(2, env.NodeConfig{Handler: record})
	resp := &wire.MutateResp{Dir: core.DirID{7}}
	s.Spawn(100, func(p *env.Proc) {
		sw.Handler(p, 1, &wire.Packet{
			DS:     &wire.DSHeader{Op: wire.DSInsert, FP: fp(3), AltDst: 1},
			Dst:    100,
			Origin: 1,
			Body:   &wire.CommitNotice{Resp: resp, Client: 2, CommitID: 42},
		})
	})
	s.Run()
	if c := got[2]; c == nil || c.Body != resp || c.Origin != 100 {
		t.Fatalf("client packet %+v", c)
	}
	o := got[1]
	if o == nil || o.Origin != 100 {
		t.Fatalf("origin packet %+v", o)
	}
	if ack, ok := o.Body.(*wire.CommitAck); !ok || ack.CommitID != 42 || ack.Applied {
		t.Fatalf("origin body %+v", o.Body)
	}
	if !sw.pipeOf(fp(3)).Query(fp(3)) {
		t.Fatal("fingerprint not dirty after a successful insert")
	}
}
