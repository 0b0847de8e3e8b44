package server

import (
	"encoding/binary"
	"fmt"
	"sort"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// Additional WAL kinds for dentry mutations performed outside the
// aggregation path (entry-list migration during directory rename).
const (
	recDentry      uint8 = 5 // put/delete one dentry
	recDelDentries uint8 = 6 // drop a directory's whole entry list
	// recMark persists an exactly-once watermark transferred with a
	// migrated directory (§5.5): without it, a source re-pushing entries
	// already applied at the previous owner would double-apply them here.
	recMark uint8 = 7
)

func encodeDentryRec(dir core.DirID, name string, put bool, t core.FileType, perm core.Perm) []byte {
	b := make([]byte, 0, 48+len(name))
	b = dir.AppendBinary(b)
	if put {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(t))
	b = binary.BigEndian.AppendUint16(b, uint16(perm))
	b = append(b, name...)
	return b
}

// Crash simulates a fail-stop: the node drops off the network and all
// volatile state is lost. The WAL (stable storage) survives and is reused by
// Restart. The dead flag terminates this incarnation's unbounded retry
// loops — after Restart re-registers the node id, a retransmission from the
// old incarnation would otherwise spin forever against a successor that no
// longer holds its contexts.
func (s *Server) Crash() {
	s.serving = false
	s.dead = true
	s.node.SetDown(true)
}

// Restart builds a fresh server over the surviving WAL and re-registers the
// node. The caller then runs Recover on a process to replay and re-join.
func Restart(e env.Env, cfg Config, log wal.Log) *Server {
	cfg.WAL = log
	return New(e, cfg)
}

// Recover implements §5.4.2 server recovery: (1) redo WAL records to rebuild
// the key-value store and the not-yet-applied change-log entries, (2) push
// the rebuilt change-logs and proactively aggregate every directory this
// server owns, so aggregations interrupted by the crash run to completion,
// (3) clone the invalidation list from a peer, then resume serving.
func (s *Server) Recover(p *env.Proc) error {
	s.serving = false
	s.recovering = true
	defer func() { s.recovering = false }()
	s.node.SetDown(false)

	n := s.wal.Len()
	if err := s.replayWAL(); err != nil {
		return err
	}
	// Redo cost: recovery time is proportional to the records replayed
	// (§7.7; checkpointing would shrink it, as the paper notes).
	p.Compute(env.Duration(n) * s.cfg.Costs.WALReplay)

	// Rebuild in-doubt 2PC participant state (locks, replayed votes,
	// termination monitors) before anything else can touch those keys.
	s.rearmPreparedTxns(p)

	// Re-deliver rebuilt change-logs: their fingerprints may have been
	// inserted before the crash (reads will aggregate) or may never have
	// made it to the switch — pushing them to their owners restores
	// visibility either way.
	s.mu.Lock()
	logs := sortedClogs(s.clogs)
	s.mu.Unlock()
	for _, dl := range logs {
		dl.qmu.Lock()
		snap := dl.log.Snapshot()
		dl.qmu.Unlock()
		if len(snap) == 0 {
			continue
		}
		s.pushLogFinal(p, dl, snap)
	}

	// Proactively aggregate every directory this server owns (§A.1): any
	// aggregation it had issued before the crash completes now.
	for _, fp := range s.ownedDirFingerprints() {
		s.aggregateFP(p, fp, &aggOpts{force: true})
	}

	// Re-drive un-acked 2PC commit decisions rebuilt from the WAL: in-doubt
	// participants apply and ack, already-resolved ones ack the duplicate;
	// fully-acked records retire so they stop replaying.
	s.redriveCommits(p)

	// Clone the invalidation list from the first reachable peer.
	for _, peer := range s.cfg.Peers {
		if peer == s.cfg.ID {
			continue
		}
		v, err := s.ctlCall(p, peer, func(ctl uint64) wire.Msg {
			return &wire.CloneInvalReq{Ctl: ctl, From: s.cfg.ID}
		})
		if err != nil {
			continue
		}
		resp := v.(*wire.CloneInvalResp)
		s.mu.Lock()
		for _, e := range resp.Entries {
			if _, ok := s.invalSet[e.Dir]; !ok {
				s.invalSeq++
				s.invalSet[e.Dir] = s.invalSeq
				s.inval = append(s.inval, wire.InvalEntry{Seq: s.invalSeq, Dir: e.Dir})
			}
		}
		s.mu.Unlock()
		break
	}

	s.serving = true
	return nil
}

// replayWAL redoes committed operations in commit order (§A.2.2: recovery
// reproduces the pre-crash serialization).
func (s *Server) replayWAL() error {
	s.bootstrapRoot()
	return s.wal.Replay(func(r wal.Record) error {
		switch r.Kind {
		case recCommit:
			op, key, parent, entry, in, err := decodeCommit(r.Payload)
			if err != nil {
				return err
			}
			switch op {
			case core.OpCreate, core.OpMkdir:
				s.putInode(key, in)
			case core.OpDelete, core.OpRmdir:
				s.deleteInode(key)
			}
			if entry.ID > s.nextEntry {
				s.nextEntry = entry.ID
			}
			if !r.Applied {
				dl := s.clogOf(parent)
				dl.qmu.Lock()
				dl.log.Append(entry)
				dl.walLSN[entry.ID] = r.LSN
				dl.qmu.Unlock()
			}
			if op == core.OpRmdir {
				s.addInval(in.ID)
			}
		case recAggEntry:
			src := env.NodeID(binary.BigEndian.Uint64(r.Payload))
			dir, entry, _ := decodeEntry(r.Payload[8:])
			s.redoAggEntry(src, dir, entry)
		case recInode:
			key, in, err := decodeInodeRec(r.Payload)
			if err != nil {
				return err
			}
			if in == nil {
				s.deleteInode(key)
			} else {
				s.putInode(key, in)
			}
		case recDentry:
			dir := core.DirIDFromBytes(r.Payload)
			put := r.Payload[32] == 1
			t := core.FileType(r.Payload[33])
			perm := core.Perm(binary.BigEndian.Uint16(r.Payload[34:]))
			name := string(r.Payload[36:])
			if put {
				s.putDentry(dir, core.DirEntry{Name: name, Type: t, Perm: perm})
			} else {
				s.deleteDentry(dir, name)
			}
		case recMark:
			src := env.NodeID(binary.BigEndian.Uint64(r.Payload))
			dir := core.DirIDFromBytes(r.Payload[8:])
			id := binary.BigEndian.Uint64(r.Payload[40:])
			if s.applied[appliedKey{src: src, dir: dir}] < id {
				s.applied[appliedKey{src: src, dir: dir}] = id
			}
		case recDelDentries:
			dir := core.DirIDFromBytes(r.Payload)
			prefix := core.EntryPrefix(dir)
			var keys [][]byte
			s.kv.Scan(prefix, func(k, v []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return true
			})
			for _, k := range keys {
				s.kv.Delete(k)
			}
		case recTxnCommit:
			// A commit decision some participant may not have learned yet
			// (the record is marked applied once every participant acked):
			// rebuild it so in-doubt status queries are answered with commit
			// instead of presumed-abort, and queue it for re-delivery so the
			// record can retire instead of replaying forever.
			if !r.Applied {
				txn := binary.BigEndian.Uint64(r.Payload)
				s.txnDecided[txn] = true
				s.txnWAL[txn] = r.LSN
				var parts []env.NodeID
				for off := 8; off+8 <= len(r.Payload); off += 8 {
					parts = append(parts, env.NodeID(binary.BigEndian.Uint64(r.Payload[off:])))
				}
				s.txnRedrive = append(s.txnRedrive, txnRedrive{txn: txn, parts: parts})
			}
		case recEvict:
			// The group migrated away: drop its records, or this restart
			// would resurrect inodes that live (and have advanced) on the
			// server the group moved to.
			s.evictFP(core.Fingerprint(binary.BigEndian.Uint64(r.Payload)))
		case recTxnPrepare:
			// A prepared, undecided transaction: this incarnation must hold
			// its locks and be able to apply the (possibly already-decided)
			// commit — rebuilt after replay by rearmPreparedTxns.
			if !r.Applied {
				txn, coord, ops := decodeTxnPrepare(r.Payload)
				s.txnRearm = append(s.txnRearm, txnRearm{txn: txn, coord: coord, ops: ops, lsn: r.LSN})
			}
		default:
			return fmt.Errorf("server: unknown WAL record kind %d", r.Kind)
		}
		return nil
	})
}

// redoAggEntry re-applies one owner-side change-log application during
// replay. The watermark check keeps the redo idempotent.
func (s *Server) redoAggEntry(src env.NodeID, dir core.DirRef, e core.LogEntry) {
	mark := s.applied[appliedKey{src: src, dir: dir.ID}]
	if e.ID <= mark {
		return
	}
	s.applied[appliedKey{src: src, dir: dir.ID}] = e.ID
	raw, ok := s.getInode(dir.Key)
	if ok {
		if in, err := core.DecodeInode(raw); err == nil {
			one := core.Compact([]core.LogEntry{e})
			one.ApplyToAttr(&in.Attr)
			s.putInode(dir.Key, in)
			s.applyDentry(in.ID, e)
		}
	}
	if e.ID > s.nextTxnEntry && src&txnSrcFlag != 0 {
		s.nextTxnEntry = e.ID
	}
}

// ownedDirFingerprints scans the KV store for directory inodes this server
// owns and returns their distinct fingerprints.
func (s *Server) ownedDirFingerprints() []core.Fingerprint {
	seen := make(map[core.Fingerprint]bool)
	var out []core.Fingerprint
	s.kv.Scan(nil, func(k, v []byte) bool {
		key, err := core.DecodeKey(k)
		if err != nil {
			return true
		}
		in, err := core.DecodeInode(v)
		if err != nil || in.Type != core.TypeDir {
			return true
		}
		fp := key.Fingerprint()
		if s.ownerOfFP(fp) != s.cfg.ID {
			return true // a dentry record or a migrated leftover
		}
		if !seen[fp] {
			seen[fp] = true
			out = append(out, fp)
		}
		return true
	})
	return out
}

// pushLogFinal synchronously delivers a change-log to its owner (recovery
// and flush-all); entries are marked applied on ack.
func (s *Server) pushLogFinal(p *env.Proc, dl *dirLog, snap []core.LogEntry) {
	msg := &wire.ChangePush{From: s.cfg.ID, Log: wire.DirLog{Dir: dl.ref, Entries: snap}, Final: true}
	fut := env.NewFuture()
	s.mu.Lock()
	s.pushWait[dl.ref.ID] = fut
	s.mu.Unlock()
	acked := false
	for try := 0; try < maxAggRetries; try++ {
		if s.dead {
			break // a later recovery rebuilds and re-pushes this log
		}
		// The owner is recomputed per retry: a migration may re-route the
		// group mid-push, and the old owner drops mis-routed pushes.
		s.reply(p, s.ownerOfFP(dl.ref.FP), msg)
		if v, ok := fut.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			ack := v.(*wire.ChangePushAck)
			s.ackEntries(dl, ack.MaxID)
			acked = true
			break
		}
		s.Stats.Retries++
	}
	if !acked {
		// The owner stayed unreachable: the entries stay pending here. Mark
		// the group dirty so reads aggregate them instead of trusting a
		// normal fingerprint that a dead owner's aggregation removed.
		s.markDirty(p, dl.ref.FP)
	}
	s.mu.Lock()
	delete(s.pushWait, dl.ref.ID)
	s.mu.Unlock()
}

// handleCloneInval serves a recovering peer (§5.4.2).
func (s *Server) handleCloneInval(p *env.Proc, req *wire.CloneInvalReq) {
	s.mu.Lock()
	resp := &wire.CloneInvalResp{Ctl: req.Ctl, From: s.cfg.ID, Seq: s.invalSeq,
		Entries: append([]wire.InvalEntry(nil), s.inval...)}
	s.mu.Unlock()
	s.reply(p, req.From, resp)
}

// FlushAll pushes every pending change-log entry to its owner; with the
// dirty set reset, the filesystem returns to a consistent all-normal state
// (switch recovery, §5.4.2; reconfiguration, §5.5). Serving stops during the
// flush.
func (s *Server) FlushAll(p *env.Proc) {
	s.serving = false
	s.mu.Lock()
	logs := sortedClogs(s.clogs)
	s.mu.Unlock()
	for _, dl := range logs {
		dl.qmu.Lock()
		snap := dl.log.Snapshot()
		dl.qmu.Unlock()
		if len(snap) > 0 {
			s.pushLogFinal(p, dl, snap)
		}
	}
	s.serving = true
}

// handleFlushAll runs FlushAll on a control request and confirms.
func (s *Server) handleFlushAll(p *env.Proc, from env.NodeID, req *wire.FlushAllReq) {
	s.FlushAll(p)
	s.reply(p, from, &wire.FlushAllResp{Ctl: req.Ctl, From: s.cfg.ID})
}

// InjectInode installs an inode record directly (fixture loading); when log
// is set the record is WAL-backed so it survives a simulated crash.
func (s *Server) InjectInode(key core.Key, in *core.Inode, log bool) {
	if log {
		mustAppend(s.wal, recInode, encodeInodeRec(key, in))
	}
	s.putInode(key, in)
}

// InjectDentry installs a directory-entry record directly (fixture loading).
func (s *Server) InjectDentry(dir core.DirID, e core.DirEntry, log bool) {
	if log {
		mustAppend(s.wal, recDentry, encodeDentryRec(dir, e.Name, true, e.Type, e.Perm))
	}
	s.putDentry(dir, e)
}

// AppliedMarks returns dir's per-source exactly-once watermarks, sorted by
// source id (directory migration).
func (s *Server) AppliedMarks(dir core.DirID) []AppliedMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []AppliedMark
	for k, v := range s.applied {
		if k.dir == dir {
			out = append(out, AppliedMark{Src: k.src, ID: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// AppliedMark is one (source, high-watermark) pair of a directory.
type AppliedMark struct {
	Src env.NodeID
	ID  uint64
}

// InjectAppliedMark installs a watermark transferred with a migrated
// directory, WAL-backed so it survives this server's later crashes. Entries
// a source re-pushes because the previous owner's ack was lost stay
// deduplicated at this owner.
func (s *Server) InjectAppliedMark(src env.NodeID, dir core.DirID, id uint64, log bool) {
	if log {
		b := u64(nil, uint64(src))
		b = dir.AppendBinary(b)
		b = u64(b, id)
		mustAppend(s.wal, recMark, b)
	}
	s.setAppliedMark(src, dir, id)
}

// AggsQuiescent reports that no aggregation is in flight on this server,
// neither as owner (aggs) nor as a peer holding change-log locks for one
// (peerAggs), and that no §5.4.2 recovery is mid-run (recovery issues a
// sequence of pushes and forced aggregations that must complete under one
// ring). Reconfiguration must drain both before remapping: an aggregation
// completing across the remap would apply collected entries — and let
// peers trim them — at a server that no longer owns the directory.
func (s *Server) AggsQuiescent() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering || len(s.aggs) != 0 || len(s.peerAggs) != 0 {
		return false
	}
	// aggs deregisters before the apply phase; aggActive covers an
	// aggregation end to end. The scan is a pure any-match, so map order
	// cannot leak into behavior.
	for _, st := range s.fps {
		if st.aggActive {
			return false
		}
	}
	return true
}

// SetCores resizes the server's usable core count in place (gray failure:
// core degradation). Restores with the configured count.
func (s *Server) SetCores(k int) { s.node.SetCores(k) }

// Cores reports the configured (healthy) core count.
func (s *Server) Cores() int { return s.cfg.Cores }

// Serving reports whether the server accepts normal requests.
func (s *Server) Serving() bool { return s.serving }

// SetServing toggles request serving (cluster reconfiguration).
func (s *Server) SetServing(v bool) { s.serving = v }

// PendingTxnCommitRecords counts un-retired 2PC commit-decision records in
// the WAL (diagnostics; the redrive regression tests assert recovery
// retires them instead of replaying them forever).
func (s *Server) PendingTxnCommitRecords() int {
	n := 0
	_ = s.wal.Replay(func(r wal.Record) error {
		if r.Kind == recTxnCommit && !r.Applied {
			n++
		}
		return nil
	})
	return n
}

// PendingClogEntries counts not-yet-applied change-log entries across all
// directories (diagnostics).
func (s *Server) PendingClogEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, dl := range s.clogs {
		dl.qmu.Lock()
		n += dl.log.Len()
		dl.qmu.Unlock()
	}
	return n
}

// SetPeers replaces the peer set after cluster reconfiguration (§5.5).
func (s *Server) SetPeers(peers []env.NodeID) {
	s.mu.Lock()
	s.cfg.Peers = append([]env.NodeID(nil), peers...)
	s.mu.Unlock()
}
