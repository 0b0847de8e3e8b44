package pswitch

import (
	"sync/atomic"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Config parameterizes a switch instance.
type Config struct {
	// Stages and IndexBits set the dirty-set geometry (§6.3).
	Stages    int
	IndexBits uint
	// Pipes is the number of egress pipes; pipes share nothing and each
	// owns the fingerprints of one prefix range (§6.2). Packets whose
	// fingerprint lives on a different pipe than their ingress port are
	// mirrored, paying MirrorDelay.
	Pipes       int
	MirrorDelay env.Duration
	// PipeDelay is the pipeline traversal time for packets carrying a
	// dirty-set operation.
	PipeDelay env.Duration
	// Servers is the multicast domain: every metadata server's address.
	Servers []env.NodeID
	// Trace records pipeline-traversal spans (nil: tracing off).
	Trace *trace.Recorder
}

// Stats counts data-plane activity.
type Stats struct {
	Queries   atomic.Uint64
	Inserts   atomic.Uint64
	Overflows atomic.Uint64
	Removes   atomic.Uint64
	StaleRem  atomic.Uint64
	Forwarded atomic.Uint64
}

// Switch is the programmable-switch model: it parses dirty-set headers,
// executes the register operations, and routes/multicasts/rewrites packets
// (Fig. 8). Attach its Handler to an env node.
type Switch struct {
	ID    env.NodeID
	cfg   Config
	pipes []*DirtySet
	Stats Stats
	// extraDelay is added to every dirty-set pipeline traversal — the gray
	// failure of a congested or degraded switch pipe (fault injection).
	extraDelay env.Duration
}

// New builds a switch.
func New(id env.NodeID, cfg Config) *Switch {
	if cfg.Pipes <= 0 {
		cfg.Pipes = 1
	}
	s := &Switch{ID: id, cfg: cfg}
	for i := 0; i < cfg.Pipes; i++ {
		s.pipes = append(s.pipes, NewDirtySet(cfg.Stages, cfg.IndexBits))
	}
	return s
}

// SetServers replaces the multicast domain (cluster reconfiguration; the
// control plane updates the multicast group, no data-plane change — §5.5).
func (s *Switch) SetServers(ids []env.NodeID) {
	s.cfg.Servers = append([]env.NodeID(nil), ids...)
}

// SetExtraDelay adds d to every dirty-set pipeline traversal (gray failure:
// a slowed pipe). Zero restores nominal speed.
func (s *Switch) SetExtraDelay(d env.Duration) { s.extraDelay = d }

// ExtraDelay reports the current gray-failure slowdown.
func (s *Switch) ExtraDelay() env.Duration { return s.extraDelay }

// ForceOverflow makes every insert fail on all pipes (§7.3.2).
func (s *Switch) ForceOverflow(v bool) {
	for _, p := range s.pipes {
		p.ForceOverflow = v
	}
}

// Reset clears all dirty-set state (switch reboot, §5.4.2).
func (s *Switch) Reset() {
	for _, p := range s.pipes {
		p.Reset()
	}
}

// Occupied sums live fingerprints across pipes.
func (s *Switch) Occupied() int {
	n := 0
	for _, p := range s.pipes {
		n += p.Occupied()
	}
	return n
}

// pipeOf selects the egress pipe owning fp (prefix partitioning).
func (s *Switch) pipeOf(fp core.Fingerprint) *DirtySet {
	if len(s.pipes) == 1 {
		return s.pipes[0]
	}
	i := int(uint64(fp)>>(core.FingerprintBits-8)) % len(s.pipes)
	return s.pipes[i]
}

// Handler processes one packet; register it as the switch node's env
// handler. The pipeline delay models the ASIC traversal; the switch never
// queues (line rate, §2.2) — that is precisely its advantage over the
// dedicated-server tracker of §7.3.3.
func (s *Switch) Handler(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return // not a SwitchFS packet; a real switch would L2-forward it
	}
	if pkt.DS == nil || pkt.DS.Op == wire.DSNone {
		// Regular packet: route by destination MAC. The packet may be
		// retransmitted by its sender, so it is forwarded untouched — no
		// span context is grafted on.
		s.Stats.Forwarded.Add(1)
		p.Send(pkt.Dst, pkt)
		return
	}
	sp := s.cfg.Trace.StartSpan(p, pkt.Trace, dsSpanName(pkt.DS.Op), "switch")
	defer sp.End()
	p.Sleep(s.cfg.PipeDelay + s.extraDelay)
	ds := s.pipeOf(pkt.DS.FP)
	if len(s.pipes) > 1 && s.cfg.MirrorDelay > 0 {
		// Cross-pipe access mirrors the packet to the owning pipe (§6.2).
		if int(from)%len(s.pipes) != int(uint64(pkt.DS.FP)>>(core.FingerprintBits-8))%len(s.pipes) {
			p.Sleep(s.cfg.MirrorDelay)
		}
	}
	switch pkt.DS.Op {
	case wire.DSQuery:
		s.Stats.Queries.Add(1)
		ret := ds.Query(pkt.DS.FP)
		// Forward a copy: the RET field is written into the packet, and the
		// original may be retransmitted by its sender. Packet and header
		// are carved from one allocation — this runs once per directory
		// read on the hot path.
		out := &queryReply{pkt: *pkt, hdr: *pkt.DS}
		out.hdr.Ret = ret
		out.pkt.DS = &out.hdr
		out.pkt.Trace = sp.Ctx()
		p.Send(pkt.Dst, &out.pkt)

	case wire.DSInsert:
		s.Stats.Inserts.Add(1)
		cn, _ := pkt.Body.(*wire.CommitNotice)
		if ds.Insert(pkt.DS.FP) {
			// Success: multicast completion to the client and unlock signal
			// to the origin server (Fig. 4, 7a/7b).
			if cn != nil {
				out := &insertReply{ack: wire.CommitAck{CommitID: cn.CommitID}}
				out.client = wire.Packet{Dst: cn.Client, Origin: s.ID, Trace: sp.Ctx(), Body: cn.Resp}
				out.origin = wire.Packet{Dst: pkt.Origin, Origin: s.ID, Trace: sp.Ctx(), Body: &out.ack}
				p.Send(cn.Client, &out.client)
				p.Send(pkt.Origin, &out.origin)
			}
			return
		}
		// Overflow: the address rewriter sends the packet to the alternative
		// destination — the parent directory's owner — for synchronous
		// fallback (§6.2 "Address rewriter").
		s.Stats.Overflows.Add(1)
		out := *pkt
		out.Dst = pkt.DS.AltDst
		out.Trace = sp.Ctx()
		p.Send(out.Dst, &out)

	case wire.DSRemove:
		s.Stats.Removes.Add(1)
		if !ds.Remove(pkt.DS.FP, pkt.Origin, pkt.DS.Seq) {
			s.Stales(pkt)
		}
		// Multicast the aggregation fetch to every other metadata server
		// (§5.2.2 step 5). Stale removes still multicast: the owner is
		// waiting for replies, and re-fetching is idempotent.
		for _, srv := range s.cfg.Servers {
			if srv == pkt.Origin {
				continue
			}
			p.Send(srv, &wire.Packet{Dst: srv, Origin: pkt.Origin,
				Trace: sp.Ctx(), Body: pkt.Body})
		}
	}
}

// dsSpanName names the pipeline span for a dirty-set opcode.
func dsSpanName(op wire.DSOp) string {
	switch op {
	case wire.DSQuery:
		return "ds:query"
	case wire.DSInsert:
		return "ds:insert"
	case wire.DSRemove:
		return "ds:remove"
	}
	return "ds:other"
}

// queryReply bundles a forwarded query packet with its rewritten dirty-set
// header so the copy costs one allocation, not two.
type queryReply struct {
	pkt wire.Packet
	hdr wire.DSHeader
}

// insertReply bundles the completion multicast of a successful insert — the
// client's response packet, and the origin's CommitAck with its packet — so
// the pair costs one allocation, not three.
type insertReply struct {
	client, origin wire.Packet
	ack            wire.CommitAck
}

// Stales counts removes rejected by the sequence guard.
func (s *Switch) Stales(*wire.Packet) { s.Stats.StaleRem.Add(1) }
