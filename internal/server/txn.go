package server

import (
	"encoding/binary"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// Rename and hard links are the synchronous, multi-inode operations of the
// protocol (§5.2 "Rename", §5.5 "Support of hard links"). They run as
// two-phase-commit transactions; renames (and links) are serialized through
// the centralized coordinator, which both prevents distributed deadlock and
// provides the orphaned-loop check of §5.2.

// txnState is the participant-side context of a prepared transaction.
type txnState struct {
	id    uint64
	locks []*env.RWMutex
	ops   []wire.TxnOp
	// lsn is the prepared-state WAL record, marked applied once the
	// decision resolves the transaction.
	lsn wal.LSN
}

// handleRename coordinates a rename (§5.2): up to four inodes across up to
// four servers change together. If the source is a directory, its pending
// updates are aggregated first and its entry list migrates to the
// destination owner (the directory's placement follows its key).
func (s *Server) handleRename(p *env.Proc, req *wire.RenameReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	if s.replayIfDuplicate(p, &req.ReqCommon) {
		return
	}
	if !s.begin(&req.ReqCommon) {
		return
	}
	s.Stats.Ops++
	err := s.doRename(p, req)
	resp := &wire.RenameResp{RespCommon: s.respCommon(&req.ReqCommon, err)}
	s.remember(req.Client, req.RPC, resp)
	s.reply(p, req.Client, resp)
}

func (s *Server) doRename(p *env.Proc, req *wire.RenameReq) error {
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		return err
	}
	srcKey := core.Key{PID: req.SrcParent.ID, Name: req.SrcName}
	dstKey := core.Key{PID: req.DstParent.ID, Name: req.DstName}

	// Aggregate both parents first (outside the serialized section — these
	// overlap across concurrent renames): the rename's direct directory
	// updates must serialize after every already-committed deferred update
	// to those directories, otherwise a later aggregation would re-order a
	// pending create after the rename's entry-list change.
	if err := s.remoteAggregate(p, s.ownerOfFP(req.SrcParent.FP), req.SrcParent.FP); err != nil {
		return err
	}
	if req.DstParent.FP != req.SrcParent.FP {
		if err := s.remoteAggregate(p, s.ownerOfFP(req.DstParent.FP), req.DstParent.FP); err != nil {
			return err
		}
	}

	// Read the source inode to learn its type; if it is a directory,
	// aggregate it first so the migrated state is complete (§5.2: "if the
	// source is a directory, SwitchFS initiates an aggregation at the
	// beginning of rename").
	srcOwner := s.ownerOfKey(srcKey)
	raw, err := s.readRemoteInode(p, srcOwner, srcKey)
	if err != nil {
		return err
	}
	in, derr := core.DecodeInode(raw)
	if derr != nil {
		return core.ErrInvalid
	}
	if srcKey == dstKey {
		// Renaming an existing object to itself is a no-op; the existence
		// read above already rejected the missing source (POSIX: rename of
		// a nonexistent path to itself is ENOENT, not success).
		return nil
	}
	isDir := in.Type == core.TypeDir

	// Serialize the transaction phase at the coordinator (§5.2: centralized
	// rename coordinator). Serialization both orders directory renames for
	// the loop check and excludes distributed lock-order cycles between
	// concurrent rename transactions.
	s.renameMu.Lock(p)
	defer s.renameMu.Unlock()
	var dentries []wire.TxnOp
	if isDir {
		// Orphaned-loop check: moving a directory under its own descendant
		// would disconnect the subtree (§5.2). The client supplied the
		// destination's ancestor chain during resolution.
		for _, a := range req.Ancestors {
			if a == in.ID {
				return core.ErrLoop
			}
		}
		if err := s.remoteAggregate(p, srcOwner, srcKey.Fingerprint()); err != nil {
			return err
		}
		raw, err = s.readRemoteInode(p, srcOwner, srcKey)
		if err != nil {
			return err
		}
		if in, derr = core.DecodeInode(raw); derr != nil {
			return core.ErrInvalid
		}
		// The entry list migrates with the inode: collect it for replay at
		// the destination owner.
		dentries, err = s.collectDentries(p, srcOwner, in.ID, srcKey.Fingerprint())
		if err != nil {
			return err
		}
	}

	// Participants and their prepare-phase checks/ops.
	now := p.Now()
	dstOwner := s.ownerOfKey(dstKey)
	type part struct {
		ops    []wire.TxnOp
		checks []wire.TxnCheck
	}
	parts := map[env.NodeID]*part{}
	add := func(n env.NodeID) *part {
		if parts[n] == nil {
			parts[n] = &part{}
		}
		return parts[n]
	}
	et := in.Type
	// Source owner: delete the source inode (and its dentries if a dir).
	sp := add(srcOwner)
	sp.checks = append(sp.checks, wire.TxnCheck{Key: srcKey, MustExist: true})
	sp.ops = append(sp.ops, wire.TxnOp{Kind: wire.TxnDelInode, Key: srcKey})
	if isDir {
		sp.ops = append(sp.ops, wire.TxnOp{Kind: wire.TxnDelDentries,
			Dir: core.DirRef{ID: in.ID}})
	}
	// Destination owner: create the destination inode with the same body.
	moved := *in
	dp := add(dstOwner)
	dp.checks = append(dp.checks, wire.TxnCheck{Key: dstKey, MustNotExist: true})
	dp.ops = append(dp.ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: dstKey,
		Inode: core.EncodeInode(&moved)})
	dp.ops = append(dp.ops, dentries...)
	// Parent owners: synchronous entry-list/attribute updates.
	spo := add(s.ownerOfFP(req.SrcParent.FP))
	spo.ops = append(spo.ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.SrcParent,
		Entry: core.LogEntry{ID: s.nextTxnEntryID(), Time: now, Op: core.OpDelete,
			Name: req.SrcName, Type: et}})
	dpo := add(s.ownerOfFP(req.DstParent.FP))
	dpo.ops = append(dpo.ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.DstParent,
		Entry: core.LogEntry{ID: s.nextTxnEntryID(), Time: now, Op: core.OpCreate,
			Name: req.DstName, Type: et, Perm: in.Perm}})

	ids := sortedNodeIDs(parts)
	sorted := make([][]wire.TxnOp, len(ids))
	sortedChecks := make([][]wire.TxnCheck, len(ids))
	for i, n := range ids {
		sorted[i] = parts[n].ops
		sortedChecks[i] = parts[n].checks
	}
	if err := s.runTxn(p, ids, sorted, sortedChecks, false); err != nil {
		return err
	}
	if isDir {
		// Clients may hold cached metadata for the renamed directory under
		// its old path: invalidate everywhere (§5.2).
		s.broadcastInval(p, []core.DirID{in.ID})
	}
	return nil
}

// handleLink coordinates hard-link creation (§5.5): split the source file
// into reference + attribute objects if needed, bump the link count, create
// the new reference, and update the destination parent.
func (s *Server) handleLink(p *env.Proc, req *wire.LinkReq) {
	p.Compute(s.cfg.Costs.Parse)
	if s.replayIfDuplicate(p, &req.ReqCommon) {
		return
	}
	if !s.begin(&req.ReqCommon) {
		return
	}
	s.Stats.Ops++
	err := s.doLink(p, req)
	resp := &wire.LinkResp{RespCommon: s.respCommon(&req.ReqCommon, err)}
	s.remember(req.Client, req.RPC, resp)
	s.reply(p, req.Client, resp)
}

func (s *Server) doLink(p *env.Proc, req *wire.LinkReq) error {
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		return err
	}
	srcKey := core.Key{PID: req.SrcParent.ID, Name: req.SrcName}
	dstKey := core.Key{PID: req.DstParent.ID, Name: req.DstName}
	// As in rename, the destination parent's deferred updates must apply
	// before the link's direct entry-list insertion (outside the serialized
	// section).
	if err := s.remoteAggregate(p, s.ownerOfFP(req.DstParent.FP), req.DstParent.FP); err != nil {
		return err
	}
	s.renameMu.Lock(p)
	defer s.renameMu.Unlock()

	srcOwner := s.ownerOfKey(srcKey)
	raw, err := s.readRemoteInode(p, srcOwner, srcKey)
	if err != nil {
		return err
	}
	in, derr := core.DecodeInode(raw)
	if derr != nil {
		return core.ErrInvalid
	}
	if in.Type == core.TypeDir {
		return core.ErrIsDir
	}

	now := p.Now()
	fid := in.File
	parts := map[env.NodeID]*struct {
		ops    []wire.TxnOp
		checks []wire.TxnCheck
	}{}
	add := func(n env.NodeID) *struct {
		ops    []wire.TxnOp
		checks []wire.TxnCheck
	} {
		if parts[n] == nil {
			parts[n] = &struct {
				ops    []wire.TxnOp
				checks []wire.TxnCheck
			}{}
		}
		return parts[n]
	}

	if fid == 0 {
		// First link: split the file into a reference and a shared
		// attribute object (§5.5).
		fid = core.FileID(core.Hash64(srcKey.PID, srcKey.Name) | 1)
		attrKey := fileAttrKey(fid)
		attr := *in
		attr.File = fid
		attr.Nlink = 2
		ref := *in
		ref.File = fid
		sp := add(srcOwner)
		sp.checks = append(sp.checks, wire.TxnCheck{Key: srcKey, MustExist: true})
		sp.ops = append(sp.ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: srcKey,
			Inode: core.EncodeInode(&ref)})
		ao := add(s.ownerOfKey(attrKey))
		ao.ops = append(ao.ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: attrKey,
			Inode: core.EncodeInode(&attr)})
	} else {
		attrKey := fileAttrKey(fid)
		ao := add(s.ownerOfKey(attrKey))
		ao.ops = append(ao.ops, wire.TxnOp{Kind: wire.TxnAdjustNlink, Key: attrKey,
			Entry: core.LogEntry{ID: 1}})
	}
	newRef := *in
	newRef.File = fid
	do := add(s.ownerOfKey(dstKey))
	do.checks = append(do.checks, wire.TxnCheck{Key: dstKey, MustNotExist: true})
	do.ops = append(do.ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: dstKey,
		Inode: core.EncodeInode(&newRef)})
	po := add(s.ownerOfFP(req.DstParent.FP))
	po.ops = append(po.ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.DstParent,
		Entry: core.LogEntry{ID: s.nextTxnEntryID(), Time: now, Op: core.OpCreate,
			Name: req.DstName, Type: in.Type, Perm: in.Perm}})

	ids := sortedNodeIDs(parts)
	ops := make([][]wire.TxnOp, len(ids))
	checks := make([][]wire.TxnCheck, len(ids))
	for i, n := range ids {
		ops[i] = parts[n].ops
		checks[i] = parts[n].checks
	}
	return s.runTxn(p, ids, ops, checks, false)
}

// runTxn drives two-phase commit over the participants. auto skips the
// prepare phase for commutative single-participant updates.
//
// A prepared participant holds its key locks until it learns the outcome, so
// the decision phase must terminate at every participant: giving up after a
// retry budget would leave those locks held forever — every later operation
// on the keys (including plain stats, which share the inode locks) would
// park behind them. The coordinator therefore (a) drives an explicit abort
// decision when the prepare phase gives up, and (b) retransmits the decision
// until every participant acked or this incarnation fail-stops; a
// participant that crashed meanwhile acks the duplicate from its fresh
// incarnation. Coordinator crashes are covered by the participant-side
// termination protocol (monitorTxn / handleTxnStatus): commits are persisted
// to the WAL before the first decision packet, anything else is presumed
// aborted.
//
//detlint:wal-before-send recTxnCommit via=driveDecision
func (s *Server) runTxn(p *env.Proc, parts []env.NodeID, ops [][]wire.TxnOp,
	checks [][]wire.TxnCheck, auto bool) error {

	tsp := s.cfg.Trace.Start(p, "txn:run", "server")
	defer tsp.End()
	s.mu.Lock()
	s.nextTxn++
	id := uint64(s.cfg.ID)<<40 | s.nextTxn
	if s.txnVotes == nil {
		s.txnVotes = make(map[uint64]*txnVotes)
	}
	tv := &txnVotes{expect: make(map[env.NodeID]bool)}
	for _, n := range parts {
		tv.expect[n] = true
	}
	s.txnVotes[id] = tv
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.txnVotes, id)
		s.mu.Unlock()
	}()

	// Prepare.
	prepared := true
	psp := s.cfg.Trace.Start(p, "txn:prepare", "server")
	for try := 0; ; try++ {
		if s.dead {
			psp.End()
			return core.ErrTimeout
		}
		for i, n := range parts {
			var ck []wire.TxnCheck
			if checks != nil {
				ck = checks[i]
			}
			s.reply(p, n, &wire.TxnPrepare{Txn: id, From: s.cfg.ID, Ops: ops[i], Check: ck})
		}
		if _, ok := tv.done.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			break
		}
		s.Stats.Retries++
		if try >= maxAggRetries {
			prepared = false
			break
		}
	}
	psp.End()
	if auto {
		// Auto participants apply at prepare time and take no locks — a
		// given-up prepare leaves nothing to abort.
		if !prepared {
			return core.ErrRetry
		}
		return tv.err
	}
	// Decision. A commit outcome is fixed in the WAL before the first
	// decision packet leaves (recordCommit); aborts are presumed and
	// deliberately unlogged, so the two outcomes drive the decision from
	// separate branches and walorder proves the ordering on the commit one.
	commit := prepared && tv.err == nil
	var acked bool
	if commit {
		s.recordCommit(p, id, parts)
		acked = s.driveDecision(p, id, parts, true)
	} else {
		//detlint:ignore walorder -- presumed abort: an incarnation with no record answers abort, the same outcome
		acked = s.driveDecision(p, id, parts, false)
	}
	if acked && commit {
		s.ackDecision(id)
	}
	if s.dead {
		return core.ErrTimeout
	}
	if !prepared {
		return core.ErrRetry
	}
	return tv.err
}

// recordCommit fixes a commit outcome before any decision packet leaves:
// WAL-logged with the participant set so a restarted coordinator both
// answers in-doubt status queries with commit and re-drives the decision to
// every participant. Aborts are never recorded — an incarnation with no
// record answers presumed-abort, which is the same outcome.
func (s *Server) recordCommit(p *env.Proc, id uint64, parts []env.NodeID) {
	// WAL first, in-memory flag after: the compute parks, and a status
	// query answered from the flag in that window would be a commit
	// decision a crash could then erase — one participant committed, the
	// restarted coordinator presuming abort for the rest. Until the append
	// lands, queries see txnVotes and answer Pending.
	wsp := s.cfg.Trace.Start(p, "wal:txn-commit", "server")
	p.Compute(s.cfg.Costs.WALAppend)
	payload := u64(nil, id)
	for _, n := range parts {
		payload = u64(payload, uint64(n))
	}
	lsn := mustAppend(s.wal, recTxnCommit, payload)
	wsp.End()
	s.mu.Lock()
	s.txnDecided[id] = true
	s.txnWAL[id] = lsn
	s.mu.Unlock()
}

// driveDecision retransmits a decision until every participant acked. The
// retry budget keeps a never-recovering participant from holding this
// process alive forever; on give-up the recorded commit stays, and either
// the participant's termination protocol pulls it (TxnStatusReq) or the
// next coordinator recovery re-drives it. Reports whether all acks arrived.
func (s *Server) driveDecision(p *env.Proc, id uint64, parts []env.NodeID, commit bool) bool {
	s.mu.Lock()
	td := &txnVotes{expect: make(map[env.NodeID]bool)}
	for _, n := range parts {
		td.expect[n] = true
	}
	s.txnDones[id] = td
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.txnDones, id)
		s.mu.Unlock()
	}()
	dsp := s.cfg.Trace.Start(p, "txn:decision", "server")
	defer dsp.End()
	for try := 0; ; try++ {
		if s.dead {
			return false
		}
		for _, n := range parts {
			s.reply(p, n, &wire.TxnDecision{Txn: id, Commit: commit})
		}
		if _, ok := td.done.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			return true
		}
		s.Stats.Retries++
		if try >= maxAggRetries {
			return false
		}
	}
}

// ackDecision retires a fully-acknowledged commit: every participant
// acked, so no one can be in doubt anymore — the in-memory record is
// droppable (bounding txnDecided to the in-flight set) and the WAL record
// is marked applied so replay need not rebuild or re-drive it.
func (s *Server) ackDecision(id uint64) {
	s.mu.Lock()
	delete(s.txnDecided, id)
	lsn, ok := s.txnWAL[id]
	delete(s.txnWAL, id)
	s.mu.Unlock()
	if ok {
		mustMark(s.wal, lsn)
	}
}

// handleTxnStatus answers a participant's termination-protocol query.
func (s *Server) handleTxnStatus(p *env.Proc, req *wire.TxnStatusReq) {
	p.Compute(s.cfg.Costs.Parse)
	resp := &wire.TxnStatusResp{Ctl: req.Ctl, Txn: req.Txn}
	s.mu.Lock()
	if _, ok := s.txnDecided[req.Txn]; ok {
		resp.Commit = true // only commits are recorded
	} else if s.txnVotes[req.Txn] != nil || !s.serving {
		// Still collecting votes (the decision phase will reach the
		// participant), or this incarnation has not finished recovering —
		// either way the outcome is not known *yet*.
		resp.Pending = true
	}
	// Otherwise: no record of the transaction — presumed abort (aborts are
	// never recorded; decided-but-unacked aborts resolve to the same answer
	// once the abort's decision phase ends and txnVotes is dropped).
	s.mu.Unlock()
	s.reply(p, req.From, resp)
}

// redriveCommits re-sends every replayed, still-unacknowledged commit
// decision after a coordinator restart (§5.4.2 extension): a participant
// that already applied it acks the duplicate, an in-doubt one applies and
// acks — once all participants answered, the record retires (WAL-marked)
// instead of leaking into every future replay.
func (s *Server) redriveCommits(p *env.Proc) {
	redrives := s.txnRedrive
	s.txnRedrive = nil
	for _, rd := range redrives {
		if s.driveDecision(p, rd.txn, rd.parts, true) {
			s.ackDecision(rd.txn)
		}
	}
}

// inDoubtAfter is how long a prepared participant waits for the decision
// before starting to poll the coordinator. Generous: with a live coordinator
// the decision retransmits on RetryTimeout and always wins this race.
func (s *Server) inDoubtAfter() env.Duration { return 4 * s.cfg.RetryTimeout }

// watchTxn arms the participant-side termination protocol for a prepared
// transaction: if the decision has not arrived after inDoubtAfter, a monitor
// process polls the coordinator until the outcome is known and applies it.
// Without this, a coordinator crash strands the participant's key locks
// forever (every later operation on those keys would park behind them).
func (s *Server) watchTxn(txn uint64, coord env.NodeID) {
	s.env.After(s.inDoubtAfter(), func() {
		s.mu.Lock()
		_, pending := s.txns[txn]
		s.mu.Unlock()
		if !pending || s.dead {
			return
		}
		s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.monitorTxn(p, txn, coord) })
	})
}

func (s *Server) monitorTxn(p *env.Proc, txn uint64, coord env.NodeID) {
	// Polling is bounded: against a coordinator that never comes back the
	// transaction cannot be terminated safely (2PC's blocking case —
	// unilateral abort could break atomicity against a commit some other
	// participant applied), so after the budget the monitor stops and the
	// keys stay locked. Operations on them then fail with client-side
	// timeouts — a detectable wedge — instead of the monitor keeping the
	// simulation alive forever. Validated plans always recover crashes, so
	// the budget is only reachable under hand-written scenarios.
	for try := 0; try < maxAggRetries; try++ {
		if s.dead {
			return
		}
		s.mu.Lock()
		_, pending := s.txns[txn]
		s.mu.Unlock()
		if !pending {
			return // decision arrived while we slept or polled
		}
		v, err := s.ctlCall(p, coord, func(ctl uint64) wire.Msg {
			return &wire.TxnStatusReq{Ctl: ctl, From: s.cfg.ID, Txn: txn}
		})
		if err != nil {
			// Coordinator unreachable (crashed or partitioned): keep
			// waiting — presumed abort may only be applied on a definitive
			// answer from a coordinator incarnation.
			p.Sleep(s.inDoubtAfter())
			continue
		}
		resp := v.(*wire.TxnStatusResp)
		if resp.Pending {
			p.Sleep(s.inDoubtAfter())
			continue
		}
		s.handleTxnDecision(p, &wire.TxnDecision{Txn: txn, Commit: resp.Commit})
		return
	}
}

// runRemoteTxn is the commutative single-shot variant used by adjustNlink.
func (s *Server) runRemoteTxn(p *env.Proc, parts []env.NodeID, ops [][]wire.TxnOp,
	checks [][]wire.TxnCheck) error {
	return s.runTxn(p, parts, ops, checks, true)
}

// recordVote remembers the prepare outcome for retransmission replay.
func (s *Server) recordVote(txn uint64, errno core.Errno) {
	s.mu.Lock()
	if s.txnVoted == nil {
		s.txnVoted = make(map[uint64]core.Errno)
	}
	s.txnVoted[txn] = errno
	s.mu.Unlock()
}

// txnVotes collects prepare votes (or decision acks).
type txnVotes struct {
	expect map[env.NodeID]bool
	err    error
	done   env.Future
}

// handleTxnPrepare is the participant side of phase one: lock keys in global
// order, run checks, vote.
//
//detlint:wal-before-send recTxnPrepare via=reply
func (s *Server) handleTxnPrepare(p *env.Proc, tp *wire.TxnPrepare) {
	c := &s.cfg.Costs
	p.Compute(c.Parse + c.TxnOverhead)
	// Retransmission dedup: the first prepare may block acquiring locks, so
	// a duplicate must never run a second lock acquisition — the zombie
	// would hold the keys forever after the decision released the original.
	s.mu.Lock()
	if s.txnVoted == nil {
		s.txnVoted = make(map[uint64]core.Errno)
		s.txnStarted = make(map[uint64]bool)
	}
	if errno, voted := s.txnVoted[tp.Txn]; voted {
		// Replay the recorded vote.
		s.mu.Unlock()
		//detlint:ignore walorder -- vote replay: the original execution already ordered the prepare record before this vote
		s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: errno})
		return
	}
	if s.txnStarted[tp.Txn] {
		// Original still acquiring locks; it will vote. Drop the duplicate.
		s.mu.Unlock()
		return
	}
	s.txnStarted[tp.Txn] = true
	s.txnLog = append(s.txnLog, tp.Txn)
	if len(s.txnLog) > dedupWindow {
		old := s.txnLog[0]
		s.txnLog = s.txnLog[1:]
		delete(s.txnStarted, old)
		delete(s.txnVoted, old)
	}
	s.mu.Unlock()

	// One-shot commutative application (adjustNlink).
	autoOnly := true
	for _, op := range tp.Ops {
		if op.Kind != wire.TxnAdjustNlink {
			autoOnly = false
		}
	}
	if autoOnly && len(tp.Check) == 0 {
		// Ownership + arrival-gate admission per touched group: an nlink
		// adjustment routed under a stale ring (or racing an inbound
		// migration copy) must vote retry rather than apply against a store
		// that does not — or no longer does — hold the attribute object.
		afps := txnFPs(tp.Ops, nil)
		if aerr := s.admitFPs(p, afps); aerr != nil {
			s.recordVote(tp.Txn, core.ErrnoOf(aerr))
			//detlint:ignore walorder -- retry vote: nothing was applied, nothing to log
			s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: core.ErrnoOf(aerr)})
			return
		}
		var err error
		for _, op := range tp.Ops {
			delta := int32(int64(op.Entry.ID))
			if e := s.applyNlink(p, op.Key, delta); e != nil && err == nil {
				err = e
			}
		}
		s.exitFPs(afps)
		s.recordVote(tp.Txn, core.ErrnoOf(err))
		//detlint:ignore walorder -- commutative auto-apply: durability came from recInode inside applyNlink; there is no prepared state to log
		s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: core.ErrnoOf(err)})
		return
	}

	// Ownership + arrival-gate admission over the transaction's whole
	// fingerprint footprint, before any lock is taken. The busy references
	// are held through lock acquisition, the checks, and the prepared-state
	// WAL record; once the transaction registers in s.txns the prepared-txn
	// scan (preparedTxnOnFP) keeps migration out and the references drop —
	// a group touched by a prepared-but-undecided transaction never
	// migrates, so the decision always finds the keys where they were
	// prepared.
	fps := txnFPs(tp.Ops, tp.Check)
	if aerr := s.admitFPs(p, fps); aerr != nil {
		s.recordVote(tp.Txn, core.ErrnoOf(aerr))
		//detlint:ignore walorder -- retry vote: nothing was prepared; presumed abort needs no record
		s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: core.ErrnoOf(aerr)})
		return
	}
	st := &txnState{id: tp.Txn, ops: tp.Ops}
	st.locks = s.lockTxnKeys(p, tp.Ops, tp.Check)

	var err error
	for _, ck := range tp.Check {
		p.Compute(c.KVGet)
		raw, ok := s.getInode(ck.Key)
		switch {
		case ck.MustExist && !ok:
			err = core.ErrNotExist
		case ck.MustNotExist && ok:
			err = core.ErrExist
		case ck.MustExist && ck.IsDir:
			if in, derr := core.DecodeInode(raw); derr != nil || in.Type != core.TypeDir {
				err = core.ErrNotDir
			}
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		for _, l := range st.locks {
			l.Unlock()
		}
		s.exitFPs(fps)
		s.recordVote(tp.Txn, core.ErrnoOf(err))
		//detlint:ignore walorder -- abort vote: nothing was prepared; presumed abort needs no record
		s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: core.ErrnoOf(err)})
		return
	}
	// Persist the prepared state before the vote leaves: once the
	// coordinator may commit on our vote, a restarted incarnation of this
	// participant must still be able to APPLY that commit — acking a
	// re-driven decision without the ops would retire a partially-applied
	// transaction (a rename whose delete landed but whose insert vanished
	// with the crash). Recovery rebuilds the locks, the vote, and the
	// monitor from this record; the decision marks it applied.
	wsp := s.cfg.Trace.Start(p, "wal:txn-prepare", "server")
	p.Compute(c.WALAppend)
	st.lsn = mustAppend(s.wal, recTxnPrepare, encodeTxnPrepare(tp.Txn, tp.From, tp.Ops))
	wsp.End()
	s.mu.Lock()
	s.txns[tp.Txn] = st
	s.mu.Unlock()
	// Registered: the prepared-txn scan now covers the footprint, in the same
	// event as the registration — at no instant is the group neither busy nor
	// prepared.
	s.exitFPs(fps)
	s.recordVote(tp.Txn, core.ErrnoOK)
	// Prepared and locked: arm the termination protocol in case the
	// coordinator dies before the decision reaches us.
	s.watchTxn(tp.Txn, tp.From)
	s.reply(p, tp.From, &wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID})
}

// lockTxnKeys collects, orders (global key order — defense in depth against
// lock cycles between transactions) and acquires the locks a prepared
// transaction holds until its decision.
//
//detlint:lock-escapes the acquired key locks are returned to the caller and held in the prepared-txn record until handleTxnDecision releases them
func (s *Server) lockTxnKeys(p *env.Proc, ops []wire.TxnOp, checks []wire.TxnCheck) []*env.RWMutex {
	keys := make([]core.Key, 0, len(ops)+len(checks))
	for _, op := range ops {
		switch op.Kind {
		case wire.TxnPutInode, wire.TxnDelInode, wire.TxnAdjustNlink:
			keys = append(keys, op.Key)
		case wire.TxnDirUpdate:
			keys = append(keys, op.Dir.Key)
		}
	}
	for _, ck := range checks {
		keys = append(keys, ck.Key)
	}
	slices.SortFunc(keys, core.Key.Compare)
	keys = slices.Compact(keys)
	locks := make([]*env.RWMutex, len(keys))
	for i, k := range keys {
		locks[i] = s.lockOf(k)
		locks[i].Lock(p)
	}
	return locks
}

// encodeTxnPrepare packs a prepared transaction's durable state: txn id,
// coordinator, and the op list (checks already validated — only the
// appliable ops matter to a restarted incarnation).
func encodeTxnPrepare(txn uint64, coord env.NodeID, ops []wire.TxnOp) []byte {
	b := u64(nil, txn)
	b = u64(b, uint64(coord))
	b = u64(b, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		b = u64(b, uint64(core.KeyLen(op.Key.Name)))
		b = op.Key.AppendEncode(b)
		b = u64(b, uint64(len(op.Inode)))
		b = append(b, op.Inode...)
		b = encodeEntry(b, op.Dir, op.Entry)
	}
	return b
}

func decodeTxnPrepare(b []byte) (txn uint64, coord env.NodeID, ops []wire.TxnOp) {
	txn = binary.BigEndian.Uint64(b)
	coord = env.NodeID(binary.BigEndian.Uint64(b[8:]))
	n := binary.BigEndian.Uint64(b[16:])
	b = b[24:]
	ops = make([]wire.TxnOp, 0, n)
	for i := uint64(0); i < n; i++ {
		var op wire.TxnOp
		op.Kind = wire.TxnKind(b[0])
		b = b[1:]
		kl := binary.BigEndian.Uint64(b)
		b = b[8:]
		if key, err := core.DecodeKey(b[:kl]); err == nil {
			op.Key = key
		}
		b = b[kl:]
		il := binary.BigEndian.Uint64(b)
		b = b[8:]
		if il > 0 {
			op.Inode = append([]byte(nil), b[:il]...)
		}
		b = b[il:]
		op.Dir, op.Entry, b = decodeEntry(b)
		ops = append(ops, op)
	}
	return txn, coord, ops
}

// rearmPreparedTxns rebuilds the in-doubt participant state replayed from
// the WAL (§5.4.2 extension): re-acquire the key locks, replay the recorded
// vote for retransmitted prepares, and arm the termination monitor. Runs on
// the recovery process before this incarnation serves.
func (s *Server) rearmPreparedTxns(p *env.Proc) {
	rearms := s.txnRearm
	s.txnRearm = nil
	for _, ra := range rearms {
		st := &txnState{id: ra.txn, ops: ra.ops, lsn: ra.lsn}
		st.locks = s.lockTxnKeys(p, ra.ops, nil)
		s.mu.Lock()
		if s.txnVoted == nil {
			s.txnVoted = make(map[uint64]core.Errno)
			s.txnStarted = make(map[uint64]bool)
		}
		s.txns[ra.txn] = st
		s.txnStarted[ra.txn] = true
		s.txnVoted[ra.txn] = core.ErrnoOK
		s.txnLog = append(s.txnLog, ra.txn)
		s.mu.Unlock()
		s.watchTxn(ra.txn, ra.coord)
	}
}

// handleTxnDecision is the participant side of phase two.
func (s *Server) handleTxnDecision(p *env.Proc, td *wire.TxnDecision) {
	c := &s.cfg.Costs
	s.mu.Lock()
	st := s.txns[td.Txn]
	delete(s.txns, td.Txn)
	s.mu.Unlock()
	if st == nil {
		// Duplicate decision: ack again.
		s.reply(p, s.cfg.Coordinator, &wire.TxnDone{Txn: td.Txn, From: s.cfg.ID})
		return
	}
	// Busy references re-taken in the same event as the deregistration above:
	// the apply phase below parks, and without them a migration could observe
	// the group neither busy nor prepared and copy it away mid-apply.
	fps := txnFPs(st.ops, nil)
	for _, fp := range fps {
		s.fpEnter(fp)
	}
	if td.Commit {
		for _, op := range st.ops {
			switch op.Kind {
			case wire.TxnPutInode:
				p.Compute(c.WALAppend + c.KVPut)
				in, err := core.DecodeInode(op.Inode)
				if err == nil {
					mustAppend(s.wal, recInode, encodeInodeRec(op.Key, in))
					var kb [core.MaxKeyLen]byte
					s.kv.Put(op.Key.AppendEncode(kb[:0]), op.Inode)
				}
			case wire.TxnDelInode:
				p.Compute(c.WALAppend + c.KVDel)
				mustAppend(s.wal, recInode, encodeInodeRec(op.Key, nil))
				s.deleteInode(op.Key)
			case wire.TxnDirUpdate:
				// Synchronous single-entry directory update, logged like an
				// aggregation application for recovery. The pseudo-source
				// keeps the exactly-once watermark separate from the
				// coordinator's own change-log entries.
				s.applyEntries(p, s.cfg.Coordinator|txnSrcFlag, wire.DirLog{
					Dir: op.Dir, Entries: []core.LogEntry{op.Entry}})
			case wire.TxnAdjustNlink:
				s.applyNlink(p, op.Key, int32(int64(op.Entry.ID)))
			case wire.TxnPutDentry:
				p.Compute(c.WALAppend + c.KVPut)
				mustAppend(s.wal, recDentry,
					encodeDentryRec(op.Dir.ID, op.Entry.Name, true, op.Entry.Type, op.Entry.Perm))
				s.putDentry(op.Dir.ID, core.DirEntry{
					Name: op.Entry.Name, Type: op.Entry.Type, Perm: op.Entry.Perm})
			case wire.TxnDelDentries:
				p.Compute(c.WALAppend)
				mustAppend(s.wal, recDelDentries, op.Dir.ID.AppendBinary(nil))
				prefix := core.EntryPrefix(op.Dir.ID)
				var keys [][]byte
				s.kv.Scan(prefix, func(k, v []byte) bool {
					keys = append(keys, append([]byte(nil), k...))
					return true
				})
				p.Compute(env.Duration(len(keys)) * c.KVDel)
				for _, k := range keys {
					s.kv.Delete(k)
				}
			}
		}
	}
	for _, l := range st.locks {
		l.Unlock()
	}
	// Resolved: the prepared-state record need not be rebuilt on replay.
	mustMark(s.wal, st.lsn)
	s.exitFPs(fps)
	s.reply(p, s.cfg.Coordinator, &wire.TxnDone{Txn: td.Txn, From: s.cfg.ID})
}
