package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Control-plane helpers used by the rename/link coordinator and recovery.

// txnSrcFlag distinguishes transaction-applied directory updates from the
// coordinator's own change-log entries in the exactly-once watermark space.
const txnSrcFlag = env.NodeID(1) << 31

// nextTxnEntryID reserves a monotonically increasing id for a TxnDirUpdate
// entry; the (txn-src, dir) watermark at the participant then applies each
// update exactly once across retransmissions.
func (s *Server) nextTxnEntryID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTxnEntry++
	return s.nextTxnEntry
}

// readRemoteInode reads a raw inode record from its owner.
func (s *Server) readRemoteInode(p *env.Proc, owner env.NodeID, key core.Key) ([]byte, error) {
	if owner == s.cfg.ID {
		p.Compute(s.cfg.Costs.KVGet)
		// Same admission as the remote path: the group may have migrated away
		// between the caller's owner computation and this read.
		if err := s.admitFP(p, key.Fingerprint()); err != nil {
			return nil, err
		}
		var kb [core.MaxKeyLen]byte
		raw, ok := s.kv.Get(key.AppendEncode(kb[:0]))
		s.fpExit(key.Fingerprint())
		if !ok {
			return nil, core.ErrNotExist
		}
		return raw, nil
	}
	v, err := s.ctlCall(p, owner, func(ctl uint64) wire.Msg {
		return &wire.ReadInodeReq{Ctl: ctl, From: s.cfg.ID, Key: key}
	})
	if err != nil {
		return nil, err
	}
	resp := v.(*wire.ReadInodeResp)
	if resp.Err != core.ErrnoOK {
		return nil, resp.Err.Err()
	}
	return resp.Raw, nil
}

func (s *Server) handleReadInode(p *env.Proc, req *wire.ReadInodeReq) {
	p.Compute(s.cfg.Costs.Parse + s.cfg.Costs.KVGet)
	resp := &wire.ReadInodeResp{Ctl: req.Ctl}
	// Admission as for client ops: a read routed under a stale ring (or
	// racing an inbound migration copy) must answer retry — answering
	// ErrNotExist from a store the group just left would fail a rename
	// against a file that exists.
	if err := s.admitFP(p, req.Key.Fingerprint()); err != nil {
		resp.Err = core.ErrnoOf(err)
		s.reply(p, req.From, resp)
		return
	}
	var kb [core.MaxKeyLen]byte
	raw, ok := s.kv.Get(req.Key.AppendEncode(kb[:0]))
	s.fpExit(req.Key.Fingerprint())
	if !ok {
		resp.Err = core.ErrnoNotExist
	} else {
		resp.Raw = raw
	}
	s.reply(p, req.From, resp)
}

// collectDentries fetches a directory's full entry list from its owner and
// converts it into dentry-put transaction ops for the new owner. fp is the
// fingerprint of the directory's own key, validated by the remote owner
// against the ring.
func (s *Server) collectDentries(p *env.Proc, owner env.NodeID, dir core.DirID,
	fp core.Fingerprint) ([]wire.TxnOp, error) {

	var entries []core.DirEntry
	if owner == s.cfg.ID {
		entries, _ = s.ListDir(dir)
	} else {
		v, err := s.ctlCall(p, owner, func(ctl uint64) wire.Msg {
			return &wire.ScanDirReq{Ctl: ctl, From: s.cfg.ID, Dir: dir, FP: fp}
		})
		if err != nil {
			return nil, err
		}
		resp := v.(*wire.ScanDirResp)
		if resp.Err != core.ErrnoOK {
			return nil, resp.Err.Err()
		}
		entries = resp.Entries
	}
	ops := make([]wire.TxnOp, 0, len(entries))
	for _, e := range entries {
		ops = append(ops, wire.TxnOp{
			Kind:  wire.TxnPutDentry,
			Dir:   core.DirRef{ID: dir},
			Entry: core.LogEntry{Name: e.Name, Type: e.Type, Perm: e.Perm},
		})
	}
	return ops, nil
}

func (s *Server) handleScanDir(p *env.Proc, req *wire.ScanDirReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	resp := &wire.ScanDirResp{Ctl: req.Ctl}
	// Fingerprint 0 is reserved — core.FingerprintOf never produces it for a
	// real group — so the zero value soundly marks control-plane scans that
	// opt out of migration admission.
	if req.FP != 0 {
		if err := s.admitFP(p, req.FP); err != nil {
			resp.Err = core.ErrnoOf(err)
			s.reply(p, req.From, resp)
			return
		}
		defer s.fpExit(req.FP)
	}
	var n int
	resp.Entries, n = s.ListDir(req.Dir)
	p.Compute(env.Duration(n) * c.KVScanEntry)
	s.reply(p, req.From, resp)
}

// remoteAggregate makes fp's owner aggregate the group now. An incomplete
// aggregation (unreachable peer) surfaces as ErrRetry: the caller's
// transaction must not serialize against state that may be missing
// acknowledged updates.
func (s *Server) remoteAggregate(p *env.Proc, owner env.NodeID, fp core.Fingerprint) error {
	if owner == s.cfg.ID {
		if !s.aggregateFP(p, fp, nil) { // the arrived-time rule gives freshness
			return core.ErrRetry
		}
		return nil
	}
	v, err := s.ctlCall(p, owner, func(ctl uint64) wire.Msg {
		return &wire.AggNowReq{Ctl: ctl, From: s.cfg.ID, FP: fp}
	})
	if err != nil {
		return err
	}
	if v.(*wire.AggNowResp).Incomplete {
		return core.ErrRetry
	}
	return nil
}

func (s *Server) handleAggNow(p *env.Proc, req *wire.AggNowReq) {
	complete := s.aggregateFP(p, req.FP, nil)
	s.reply(p, req.From, &wire.AggNowResp{Ctl: req.Ctl, Incomplete: !complete})
}

// broadcastInval plants directories in every peer's invalidation list and
// waits for acknowledgments (rmdir/rename/chmod of directories, §5.2).
func (s *Server) broadcastInval(p *env.Proc, dirs []core.DirID) {
	for _, d := range dirs {
		s.addInval(d)
	}
	for _, peer := range s.cfg.Peers {
		if peer != s.cfg.ID {
			s.reply(p, peer, &wire.InvalBroadcast{From: s.cfg.ID, Dirs: dirs})
		}
	}
}

// handleTxnVote collects a prepare vote at the coordinator.
func (s *Server) handleTxnVote(v *wire.TxnVote) {
	s.mu.Lock()
	tv := s.txnVotes[v.Txn]
	if tv == nil || !tv.expect[v.From] {
		s.mu.Unlock()
		return
	}
	delete(tv.expect, v.From)
	if v.Err != core.ErrnoOK && tv.err == nil {
		tv.err = v.Err.Err()
	}
	rest := len(tv.expect)
	s.mu.Unlock()
	if rest == 0 {
		tv.done.Complete(nil)
	}
}

// handleTxnDone collects a decision ack at the coordinator.
func (s *Server) handleTxnDone(d *wire.TxnDone) {
	s.mu.Lock()
	td := s.txnDones[d.Txn]
	if td == nil || !td.expect[d.From] {
		s.mu.Unlock()
		return
	}
	delete(td.expect, d.From)
	rest := len(td.expect)
	s.mu.Unlock()
	if rest == 0 {
		td.done.Complete(nil)
	}
}
