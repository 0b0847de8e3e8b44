package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// handleLookup resolves one path component to directory metadata — the
// client cache-miss path (§5.2.1 step 1). Lookup takes the directory's read
// lock, so a lookup racing an rmdir waits and observes the final state
// (§5.2.3 "Discussion").
//
//detlint:ignore idempotent -- lookup is a pure read; the lock-table insert lockOf may perform is idempotent
func (s *Server) handleLookup(p *env.Proc, req *wire.LookupReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	key := core.Key{PID: req.Parent, Name: req.Name}
	resp := &wire.LookupResp{}
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, key.Fingerprint())
	}
	if err == nil {
		l := s.lockOf(key)
		l.RLock(p)
		p.Compute(c.KVGet)
		raw, ok := s.getInode(key)
		if !ok {
			err = core.ErrNotExist
		} else if in, derr := core.DecodeInode(raw); derr != nil {
			err = core.ErrInvalid
		} else if in.Type != core.TypeDir {
			err = core.ErrNotDir
		} else {
			resp.Dir = in.ID
			resp.Attr = in.Attr
		}
		l.RUnlock()
		s.fpExit(key.Fingerprint())
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.reply(p, req.Client, resp)
}

// handleFile serves the synchronous read-only single-inode file operations:
// stat, open, close. They read the file inode in place, exactly as in a
// traditional DFS (§5.2 "Single-inode operations"). Chmod, the one FileReq
// that mutates, is dispatched to handleChmod instead.
//
//detlint:ignore idempotent -- stat/open/close are pure reads; the lock-table insert lockOf may perform is idempotent
func (s *Server) handleFile(p *env.Proc, req *wire.FileReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	s.Stats.Ops++
	s.tallyDir(req.Parent.ID)
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	resp := &wire.FileResp{}
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, key.Fingerprint())
	}
	if err == nil {
		s.tallyFP(key.Fingerprint())
		l := s.lockOf(key)
		l.RLock(p)
		p.Compute(c.KVGet)
		raw, ok := s.getInode(key)
		if !ok {
			err = core.ErrNotExist
		} else if in, derr := core.DecodeInode(raw); derr != nil {
			err = core.ErrInvalid
		} else {
			switch req.Op {
			case core.OpStat, core.OpOpen, core.OpClose:
				resp.Attr = in.Attr
				resp.DataLoc = in.DataLoc
			default:
				err = core.ErrInvalid
			}
		}
		l.RUnlock()
		s.fpExit(key.Fingerprint())
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.reply(p, req.Client, resp)
}

// handleChmod updates a file inode's permissions in place. Chmod is the one
// FileReq that mutates durable state, so unlike its read-only siblings it
// runs behind the retransmission dedup cache: before this split, a duplicate
// chmod arriving after the original committed re-appended the WAL record and
// rewrote the inode — so a retransmitted stale chmod could clobber a newer
// chmod's permissions and ctime (caught by detlint idempotent, PR 2/4
// re-execution class; pinned by TestDuplicateChmodNotReexecuted).
func (s *Server) handleChmod(p *env.Proc, req *wire.FileReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	if s.replayIfDuplicate(p, &req.ReqCommon) {
		return
	}
	if !s.begin(&req.ReqCommon) {
		return // in flight; the original execution will reply
	}
	s.Stats.Ops++
	s.tallyDir(req.Parent.ID)
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	resp := &wire.FileResp{}
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, key.Fingerprint())
	}
	if err == nil {
		s.tallyFP(key.Fingerprint())
		l := s.lockOf(key)
		l.Lock(p)
		p.Compute(c.KVGet)
		raw, ok := s.getInode(key)
		if !ok {
			err = core.ErrNotExist
		} else if in, derr := core.DecodeInode(raw); derr != nil {
			err = core.ErrInvalid
		} else {
			in.Perm = req.Perm
			in.Ctime = p.Now()
			p.Compute(c.WALAppend + c.KVPut)
			mustAppend(s.wal, recInode, encodeInodeRec(key, in))
			s.putInode(key, in)
			resp.Attr = in.Attr
		}
		l.Unlock()
		s.fpExit(key.Fingerprint())
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.remember(req.Client, req.RPC, resp)
	s.reply(p, req.Client, resp)
}

// handleDirRead serves statdir and readdir (§5.2.2). The packet travelled
// through the switch, which annotated the dirty-set query result; a
// scattered directory triggers (or joins) a metadata aggregation before the
// read returns.
//
//detlint:ignore idempotent -- statdir/readdir are reads; the aggregation a re-execution may re-trigger converges to the same state
func (s *Server) handleDirRead(p *env.Proc, pkt *wire.Packet, req *wire.DirReadReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	s.Stats.Ops++
	s.tallyDir(req.Dir.ID)
	resp := &wire.DirReadResp{}
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, req.Dir.FP)
	}
	if err == nil {
		s.tallyFP(req.Dir.FP)
		scattered := false
		switch s.cfg.Tracker {
		case TrackerOwner:
			s.mu.Lock()
			scattered = s.ownerDirty[req.Dir.FP]
			s.mu.Unlock()
		default:
			scattered = pkt.DS != nil && pkt.DS.Ret
		}
		if scattered {
			// Aggregation blocks directory reads of the whole fingerprint
			// group until the deferred updates are applied. An incomplete
			// aggregation (a peer stayed down past the retry budget) may
			// miss that peer's acknowledged entries — the read must retry
			// rather than serve the partial state as the directory.
			if !s.aggregateFP(p, req.Dir.FP, nil) {
				err = core.ErrRetry
			}
		} else if !s.waitAggIdle(p, req.Dir.FP) {
			// A "normal" query can also mean an aggregation is mid-flight:
			// its dirty-set remove already fired but the collected entries
			// are not applied yet. That window is sub-RTT in the fault-free
			// case, but a crashed peer stretches it to that peer's recovery
			// time — serving immediately would return the pre-aggregation
			// state long after newer updates were acknowledged. Wait for the
			// in-flight aggregation (if any) to apply; if it gave up on an
			// unreachable peer, its partial state cannot be served either.
			err = core.ErrRetry
		}
		if err == nil {
			l := s.lockOf(req.Dir.Key)
			l.RLock(p)
			p.Compute(c.KVGet)
			raw, ok := s.getInode(req.Dir.Key)
			if !ok {
				err = core.ErrNotExist
			} else if in, derr := core.DecodeInode(raw); derr != nil {
				err = core.ErrInvalid
			} else if in.Type != core.TypeDir {
				err = core.ErrNotDir
			} else {
				resp.Attr = in.Attr
				if req.Op == core.OpReadDir {
					var n int
					resp.Entries, n = s.ListDir(in.ID)
					p.Compute(env.Duration(n) * c.KVScanEntry)
				}
			}
			l.RUnlock()
		}
		s.fpExit(req.Dir.FP)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.reply(p, req.Client, resp)
}
