package server

import (
	"fmt"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// aggOpts tunes one aggregation.
type aggOpts struct {
	// rmdir marks rmdir-triggered aggregations: peers append dir to their
	// invalidation lists before replying (§5.2.3 step 5).
	rmdir bool
	dir   core.DirID
	// force runs an aggregation even if another one completed while
	// waiting (rmdir must observe the very latest state).
	force bool
}

// maxAggRetries bounds fetch retransmissions before proceeding with the
// replies at hand (a peer that stays down re-delivers its entries during its
// own recovery, §A.1).
const maxAggRetries = 100

// peerAggState is the peer-side context of an aggregation it is serving:
// the change-logs it locked and the ack it awaits (§5.2.2 steps 6, 9a).
type peerAggState struct {
	id     uint64
	fp     core.Fingerprint
	owner  env.NodeID
	logs   []wire.DirLog
	locked []*dirLog
	done   env.Future
	// ready flips once the snapshot exists; duplicate fetches arriving
	// earlier are dropped — answering them with the (empty) placeholder
	// would let the owner complete without this peer's entries while the
	// original handler still holds the change-log locks.
	ready bool
}

// aggregateFP aggregates every directory of a fingerprint group: remove the
// fingerprint from the dirty set, collect all pending change-log entries from
// every server, apply them to the inodes, and acknowledge (§5.2.2). It
// reports whether the aggregation was complete — false when a peer stayed
// unreachable past the retry budget, in which case the state visible now
// may miss that peer's acknowledged entries and readers must not treat it
// as covering their arrival time.
func (s *Server) aggregateFP(p *env.Proc, fp core.Fingerprint, opts *aggOpts) bool {
	if opts == nil {
		opts = &aggOpts{}
	}
	// A read is only satisfied by an aggregation whose dirty-set remove was
	// issued at or after the read arrived: every insert that contributed to
	// the read's "scattered" observation precedes the read's arrival, so
	// such an aggregation's fetches are guaranteed to cover those updates
	// (§A.2, Case 2.b). Joining an aggregation that started earlier could
	// return state missing updates whose inserts followed that aggregation's
	// remove.
	arrived := p.Now()
	st := s.fpOf(fp)
	st.mu.Lock(p)
	for {
		if st.aggActive {
			st.cond.Wait(p, &st.mu)
			continue
		}
		if !opts.force && st.lastStart >= arrived {
			// A fresh-enough aggregation completed while we waited.
			st.mu.Unlock()
			return true
		}
		st.aggActive = true
		st.lastStart = p.Now()
		break
	}
	st.mu.Unlock()

	complete := s.runAggregation(p, fp, opts)

	st.mu.Lock(p)
	if !complete {
		// An incomplete aggregation (a peer stayed down) covers nobody:
		// waiters must run their own instead of taking this one as fresh.
		st.lastStart = 0
	}
	st.lastIncomplete = !complete
	st.aggActive = false
	st.cond.Broadcast()
	st.mu.Unlock()
	return complete
}

// waitAggIdle blocks until no aggregation for the fingerprint group is in
// flight on this server. Directory reads whose dirty-set query returned
// "normal" use it: the fingerprint may be absent precisely because an
// in-flight aggregation removed it and has not applied its entries yet. It
// returns false when the most recent aggregation ended incomplete (a peer
// stayed unreachable) — the state now visible may miss acknowledged
// entries, and the read must retry rather than serve it.
func (s *Server) waitAggIdle(p *env.Proc, fp core.Fingerprint) bool {
	st := s.fpOf(fp)
	st.mu.Lock(p)
	for st.aggActive {
		st.cond.Wait(p, &st.mu)
	}
	ok := !st.lastIncomplete
	st.mu.Unlock()
	return ok
}

// runAggregation drives one aggregation of a fingerprint group: lock the
// local change-logs, fetch the peers' entries, apply, and release.
//
//detlint:lock-escapes the change-log locks are held for the life of the aggregation (dl.heldBy = id) and released inline after apply; the s.dead returns abandon them with the fail-stopped incarnation, whose volatile state Restart discards
func (s *Server) runAggregation(p *env.Proc, fp core.Fingerprint, opts *aggOpts) bool {
	asp := s.cfg.Trace.Start(p, "agg:run", "server")
	defer asp.End()
	s.Stats.Aggregations++
	s.mu.Lock()
	s.nextAgg++
	id := uint64(s.cfg.ID)<<40 | s.nextAgg
	ctx := &aggCtx{id: id, fp: fp, expect: make(map[env.NodeID]bool)}
	for _, peer := range s.cfg.Peers {
		if peer != s.cfg.ID {
			ctx.expect[peer] = true
		}
	}
	s.aggs[id] = ctx
	s.aggByFP[fp] = ctx
	if s.ownerOfFP(fp) != s.cfg.ID {
		// The group migrated away between the trigger (a read, a quiesce
		// timer) and this registration. Aggregating a group this server no
		// longer owns would collect peers' entries into a store the ring no
		// longer routes reads to. Deregister and report incomplete — the
		// caller retries and re-resolves to the new owner. Runs in the same
		// event as the registration above, so FPQuiescent never observes a
		// half-registered aggregation.
		delete(s.aggs, id)
		delete(s.aggByFP, fp)
		s.mu.Unlock()
		return false
	}
	if s.cfg.Tracker == TrackerOwner {
		delete(s.ownerDirty, fp)
	}
	// Cancel a pending quiesce timer; this aggregation supersedes it.
	if t := s.quiesce[fp]; t != nil {
		t.Cancel()
		delete(s.quiesce, fp)
	}
	locals := sortedClogs(s.clogsByFP[fp])
	s.mu.Unlock()

	// Collect the local change-logs of the group under their exclusive
	// protocol locks (this server may itself have logged updates to
	// directories it owns).
	var localLogs []wire.DirLog
	for _, dl := range locals {
		if debugApply {
			fmt.Printf("AGG srv=%d id=%d acquiring local clog-Lock dir=%s\n", s.cfg.ID, id, dl.ref.ID.String()[:8])
		}
		dl.lock.Lock(p)
		dl.qmu.Lock()
		if dl.log.Len() > 0 {
			localLogs = append(localLogs, wire.DirLog{Dir: dl.ref, Entries: dl.log.Snapshot()})
		}
		dl.heldBy = id
		dl.qmu.Unlock()
	}

	// Fetch from peers: remove the fingerprint and multicast (steps 5–6).
	fetch := &wire.AggFetch{AggID: id, FP: fp, Owner: s.cfg.ID, Rmdir: opts.rmdir, Dir: opts.dir}
	if len(ctx.expect) == 0 {
		ctx.done.Complete(nil)
	}
	complete := true
	// One remove sequence number per aggregation: a RETRANSMITTED remove must
	// look stale to the switch's sequence guard (§5.4.1) so it cannot erase
	// fingerprints inserted after the aggregation began — the guard rejects
	// it while the piggybacked fetch still re-multicasts. Allocating a fresh
	// seq per retry used to wipe newer inserts, leaving their change-log
	// entries pending behind a "normal" directory until a proactive timer
	// healed the staleness (caught by the chaos checker).
	s.mu.Lock()
	s.nextRemove++
	seq := s.nextRemove
	s.mu.Unlock()
	for {
		if s.cfg.Tracker == TrackerOwner {
			// Sorted snapshot: each send draws latency/jitter from the
			// seeded RNG, so emitting in map order would make two runs with
			// the same seed diverge (caught by detlint maprange).
			for _, peer := range sortedNodeIDs(ctx.expect) {
				s.reply(p, peer, fetch)
			}
		} else {
			out := &dsPacket{ds: wire.DSHeader{Op: wire.DSRemove, FP: fp, Seq: seq}}
			out.pkt = wire.Packet{
				DS:     &out.ds,
				Dst:    s.cfg.SwitchFor(fp),
				Origin: s.cfg.ID,
				Trace:  p.TraceCtx(),
				Body:   fetch,
			}
			p.Send(out.pkt.Dst, &out.pkt)
		}
		if _, ok := ctx.done.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			break
		}
		ctx.retries++
		s.Stats.Retries++
		if s.dead {
			// Fail-stopped mid-aggregation: abandon without applying or
			// acking. Peers time out, release their locks and KEEP their
			// entries, which re-surface through this server's recovery or
			// the next aggregation — applying them to this dead
			// incarnation's store (and letting peers trim) would lose them.
			s.mu.Lock()
			delete(s.aggs, id)
			if s.aggByFP[fp] == ctx {
				delete(s.aggByFP, fp)
			}
			s.mu.Unlock()
			return false
		}
		if ctx.retries >= maxAggRetries {
			// Proceed with what we have so responsive peers can trim, but
			// report the aggregation incomplete: the unreachable peer's
			// acknowledged entries re-surface only via its recovery, and
			// until then the group must read as dirty again (below) so no
			// read mistakes the partial state for the full directory.
			complete = false
			s.mu.Lock()
			for peer := range ctx.expect {
				delete(ctx.expect, peer)
			}
			s.mu.Unlock()
			break
		}
	}

	// Apply (steps 7–8): group the collected logs by directory and apply
	// under the inode locks. Per-peer acks let each sender trim exactly the
	// entries it contributed.
	s.mu.Lock()
	collected := ctx.logs
	delete(s.aggs, id)
	if s.aggByFP[fp] == ctx {
		delete(s.aggByFP, fp)
	}
	s.mu.Unlock()
	if s.dead {
		return false // fail-stopped: do not apply to this incarnation or ack peers
	}

	type srcLog struct {
		src env.NodeID
		log wire.DirLog
	}
	var all []srcLog
	for _, l := range localLogs {
		all = append(all, srcLog{src: s.cfg.ID, log: l})
	}
	for _, e := range collected {
		all = append(all, srcLog{src: e.from, log: e.log})
	}
	acks := make(map[env.NodeID]*wire.AggAck)
	for _, sl := range all {
		l := s.lockOf(sl.log.Dir.Key)
		l.Lock(p)
		maxID := s.applyEntries(p, sl.src, sl.log)
		l.Unlock()
		if sl.src == s.cfg.ID {
			continue // local trim happens below
		}
		a := acks[sl.src]
		if a == nil {
			a = &wire.AggAck{AggID: id, FP: fp, MaxIDs: make(map[core.DirID]uint64)}
			acks[sl.src] = a
		}
		if a.MaxIDs[sl.log.Dir.ID] < maxID {
			a.MaxIDs[sl.log.Dir.ID] = maxID
		}
	}

	// Acknowledge every peer (steps 9–10); peers with no entries get an
	// empty ack so their (unlocked) state stays clean, and peers whose
	// entries we applied trim and unlock.
	for _, peer := range s.cfg.Peers {
		if peer == s.cfg.ID {
			continue
		}
		a := acks[peer]
		if a == nil {
			a = &wire.AggAck{AggID: id, FP: fp}
		}
		s.reply(p, peer, a)
	}
	s.rememberAggAcks(id, acks)

	// Trim and unlock the local logs.
	for _, dl := range locals {
		var maxID uint64
		dl.qmu.Lock()
		for _, l := range localLogs {
			if l.Dir.ID == dl.ref.ID {
				for _, e := range l.Entries {
					if e.ID > maxID {
						maxID = e.ID
					}
				}
			}
		}
		dl.qmu.Unlock()
		if maxID > 0 {
			s.ackEntries(dl, maxID)
		}
		dl.qmu.Lock()
		dl.heldBy = 0
		dl.qmu.Unlock()
		dl.lock.Unlock()
	}

	if !complete {
		// Mark the group dirty again: the remove above erased the
		// fingerprint, but the unreachable peer may hold acknowledged
		// entries this aggregation never collected. Reads must keep
		// treating the group as scattered (and re-aggregating) until that
		// peer's recovery re-delivers them — serving "normal" state now
		// would silently drop acknowledged writes from view.
		s.markDirty(p, fp)
	}
	return complete
}

// markDirty (re-)inserts a fingerprint group's dirty marker so reads
// aggregate. Called whenever acknowledged change-log entries remain pending
// behind a possibly-normal fingerprint: an aggregation that gave up on an
// unreachable peer, or a push whose target owner stayed unreachable — in
// both cases a "normal" read would silently miss the pending entries.
func (s *Server) markDirty(p *env.Proc, fp core.Fingerprint) {
	if s.dead {
		return
	}
	if s.cfg.Tracker == TrackerOwner {
		s.mu.Lock()
		s.ownerDirty[fp] = true
		s.mu.Unlock()
		return
	}
	out := &dsPacket{ds: wire.DSHeader{Op: wire.DSInsert, FP: fp, AltDst: s.ownerOfFP(fp)}}
	out.pkt = wire.Packet{
		DS:     &out.ds,
		Dst:    s.cfg.SwitchFor(fp),
		Origin: s.cfg.ID,
		Trace:  p.TraceCtx(),
	}
	p.Send(out.pkt.Dst, &out.pkt)
}

// completedAggCache bounds the re-ack cache.
const completedAggCache = 256

func (s *Server) rememberAggAcks(id uint64, acks map[env.NodeID]*wire.AggAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doneAggs == nil {
		s.doneAggs = make(map[uint64]map[env.NodeID]*wire.AggAck)
	}
	s.doneAggs[id] = acks
	s.doneAggLog = append(s.doneAggLog, id)
	if len(s.doneAggLog) > completedAggCache {
		old := s.doneAggLog[0]
		s.doneAggLog = s.doneAggLog[1:]
		delete(s.doneAggs, old)
	}
}

// handleAggFetch runs on every non-owner server: lock the group's
// change-logs, snapshot, and stream the entries to the owner, retrying until
// acknowledged (§5.2.2 step 6).
//
//detlint:lock-escapes the snapshotted change-log locks transfer to peerAggState.locked (dl.heldBy = f.AggID) and are released by finishPeerAgg on ack or give-up
func (s *Server) handleAggFetch(p *env.Proc, f *wire.AggFetch) {
	p.Compute(s.cfg.Costs.Parse)
	if f.Rmdir {
		s.addInval(f.Dir)
	}
	s.mu.Lock()
	if st := s.peerAggs[f.AggID]; st != nil {
		if !st.ready {
			// The original handler is still acquiring locks; it will send.
			s.mu.Unlock()
			return
		}
		// Duplicate fetch (owner retried): resend the same snapshot.
		logs := st.logs
		s.mu.Unlock()
		s.reply(p, f.Owner, &wire.AggEntries{AggID: f.AggID, FP: f.FP, From: s.cfg.ID, Logs: logs})
		return
	}
	st := &peerAggState{id: f.AggID, fp: f.FP, owner: f.Owner}
	if s.peerAggs == nil {
		s.peerAggs = make(map[uint64]*peerAggState)
	}
	s.peerAggs[f.AggID] = st
	dls := sortedClogs(s.clogsByFP[f.FP])
	s.mu.Unlock()

	for _, dl := range dls {
		if debugApply {
			fmt.Printf("FETCH srv=%d agg=%d acquiring clog-Lock dir=%s\n", s.cfg.ID, f.AggID, dl.ref.ID.String()[:8])
		}
		dl.lock.Lock(p) // exclusive: blocks appenders while entries travel
		dl.qmu.Lock()
		if dl.log.Len() > 0 {
			st.logs = append(st.logs, wire.DirLog{Dir: dl.ref, Entries: dl.log.Snapshot()})
			st.locked = append(st.locked, dl)
			dl.heldBy = f.AggID
			dl.qmu.Unlock()
		} else {
			dl.qmu.Unlock()
			dl.lock.Unlock()
		}
	}

	s.mu.Lock()
	st.ready = true
	s.mu.Unlock()
	msg := &wire.AggEntries{AggID: f.AggID, FP: f.FP, From: s.cfg.ID, Logs: st.logs}
	for try := 0; ; try++ {
		s.reply(p, f.Owner, msg)
		if v, ok := st.done.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			// This handler owns the locks: trim per the owner's ack and
			// release (§5.2.2 steps 9a/9b).
			ack := v.(*wire.AggAck)
			s.finishPeerAgg(st, ack)
			return
		}
		s.Stats.Retries++
		if try >= maxAggRetries {
			// Owner unreachable: keep the entries (no trim) and release the
			// locks so the system can make progress; the owner's recovery
			// re-aggregates (§A.1).
			s.mu.Lock()
			delete(s.peerAggs, f.AggID)
			s.mu.Unlock()
			s.finishPeerAgg(st, &wire.AggAck{AggID: f.AggID, FP: f.FP})
			return
		}
	}
}

// finishPeerAgg trims acknowledged entries and releases the change-log locks
// held on behalf of one aggregation. Only the fetch handler calls it, so
// lock release has a single owner.
func (s *Server) finishPeerAgg(st *peerAggState, a *wire.AggAck) {
	for _, dl := range st.locked {
		if maxID, ok := a.MaxIDs[dl.ref.ID]; ok && maxID > 0 {
			s.ackEntries(dl, maxID)
		}
		dl.qmu.Lock()
		dl.heldBy = 0
		dl.qmu.Unlock()
		dl.lock.Unlock()
		if debugApply {
			fmt.Printf("FETCH srv=%d agg=%d released dir=%s\n", s.cfg.ID, a.AggID, dl.ref.ID.String()[:8])
		}
	}
}

// handleAggEntries collects one peer's reply at the aggregation owner.
func (s *Server) handleAggEntries(p *env.Proc, e *wire.AggEntries) {
	s.mu.Lock()
	ctx := s.aggs[e.AggID]
	if ctx == nil {
		// Late or duplicate reply to a completed aggregation: re-ack so the
		// peer can trim and unlock.
		acks := s.doneAggs[e.AggID]
		s.mu.Unlock()
		if acks != nil {
			a := acks[e.From]
			if a == nil {
				a = &wire.AggAck{AggID: e.AggID, FP: e.FP}
			}
			s.reply(p, e.From, a)
		}
		return
	}
	if !ctx.expect[e.From] {
		s.mu.Unlock()
		return // duplicate within the active aggregation
	}
	delete(ctx.expect, e.From)
	for _, l := range e.Logs {
		ctx.logs = append(ctx.logs, aggLog{from: e.From, log: l})
	}
	rest := len(ctx.expect)
	s.mu.Unlock()
	if rest == 0 {
		ctx.done.Complete(nil)
	}
}

// handleAggAck finishes the peer side: it hands the ack to the waiting
// fetch handler, which owns the trim-and-unlock (§5.2.2 steps 9a/9b).
func (s *Server) handleAggAck(p *env.Proc, a *wire.AggAck) {
	s.mu.Lock()
	st := s.peerAggs[a.AggID]
	if st != nil {
		delete(s.peerAggs, a.AggID)
	}
	s.mu.Unlock()
	if st == nil {
		return
	}
	st.done.Complete(a)
}

// applyEntries applies one source's pending entries of one directory to the
// inode and entry list. The caller holds the directory inode's exclusive
// lock. Returns the largest entry ID seen (applied or deduplicated), so the
// source can trim. With compaction disabled, each entry pays its own
// attribute read-modify-write — the "+Async" configuration of Fig. 14; with
// compaction, attribute deltas merge into one update (§5.3).
func (s *Server) applyEntries(p *env.Proc, src env.NodeID, log wire.DirLog) uint64 {
	c := &s.cfg.Costs
	mark := s.appliedMark(src, log.Dir.ID)
	fresh := log.Entries[:0:0]
	var maxID uint64
	for _, e := range log.Entries {
		if e.ID > maxID {
			maxID = e.ID
		}
		if e.ID > mark {
			fresh = append(fresh, e)
		}
	}
	if len(fresh) == 0 {
		return maxID
	}
	s.Stats.AggEntries += uint64(len(fresh))
	if debugApply {
		for _, e := range fresh {
			fmt.Printf("APPLY srv=%d src=%d dir=%s op=%v name=%s id=%d\n",
				s.cfg.ID, src, log.Dir.ID.String()[:8], e.Op, e.Name, e.ID)
		}
	}

	// Persist before applying: the owner's WAL now holds the entries, so
	// the source may mark them applied (§A.1 "no change-log entry is lost").
	// With compaction the batch group-commits: one synchronous WAL write
	// covers the batch, with a small per-record marshaling cost.
	wsp := s.cfg.Trace.Start(p, "wal:entries", "server")
	if s.cfg.Compaction {
		p.Compute(c.WALAppend + env.Duration(len(fresh))*c.LogAppend)
	}
	longest := 0
	for _, e := range fresh {
		longest = max(longest, entryLen(log.Dir, e))
	}
	payload := make([]byte, 0, 8+longest) // reused: Append copies it
	for _, e := range fresh {
		payload = u64(payload[:0], uint64(src))
		payload = encodeEntry(payload, log.Dir, e)
		if !s.cfg.Compaction {
			p.Compute(c.WALAppend)
		}
		mustAppend(s.wal, recAggEntry, payload)
	}
	wsp.End()

	raw, ok := s.getInode(log.Dir.Key)
	p.Compute(c.KVGet)
	if !ok {
		// The directory vanished (rmdir raced a straggling update); the
		// entries are orphans — consume them so logs drain (§5.2.3).
		s.Stats.Orphans += uint64(len(fresh))
		s.setAppliedMark(src, log.Dir.ID, maxID)
		return maxID
	}
	in, err := core.DecodeInode(raw)
	if err != nil {
		s.setAppliedMark(src, log.Dir.ID, maxID)
		return maxID
	}

	if s.cfg.Compaction {
		comp := core.Compact(fresh)
		comp.ApplyToAttr(&in.Attr)
		p.Compute(c.KVGet + c.KVPut) // one attribute read-modify-write
		s.putInode(log.Dir.Key, in)
		for _, op := range comp.Ops {
			if op.Put {
				s.putDentry(in.ID, core.DirEntry{Name: op.Name, Type: op.Type, Perm: op.Perm})
			} else {
				s.deleteDentry(in.ID, op.Name)
			}
		}
		// Compacted entry-list operations touch distinct names, so they
		// apply in parallel across the server's cores — the intra-server
		// parallelism +Compaction restores (§5.3, Fig. 14).
		s.parallelCompute(p, len(comp.Ops), c.LogApplyEntry)
	} else {
		for _, e := range fresh {
			one := core.Compact([]core.LogEntry{e})
			one.ApplyToAttr(&in.Attr)
			p.Compute(c.KVGet + c.KVPut + c.LogApplyEntry)
			s.putInode(log.Dir.Key, in)
			s.applyDentry(in.ID, e)
		}
	}
	s.setAppliedMark(src, log.Dir.ID, maxID)
	return maxID
}

// parallelCompute spreads n units of per-item service time over the node's
// cores: worker processes each burn a share concurrently.
func (s *Server) parallelCompute(p *env.Proc, n int, each env.Duration) {
	if n <= 0 || each <= 0 {
		return
	}
	lanes := s.cfg.Cores
	if lanes > n {
		lanes = n
	}
	if lanes <= 1 {
		p.Compute(env.Duration(n) * each)
		return
	}
	doneCh := make([]*env.Future, 0, lanes-1)
	per := n / lanes
	rem := n % lanes
	for i := 1; i < lanes; i++ {
		k := per
		if i < rem {
			k++
		}
		fut := env.NewFuture()
		doneCh = append(doneCh, fut)
		p.Spawn(func(wp *env.Proc) {
			wp.Compute(env.Duration(k) * each)
			fut.Complete(nil)
		})
	}
	k0 := per
	if rem > 0 {
		k0++
	}
	p.Compute(env.Duration(k0) * each)
	for _, fut := range doneCh {
		fut.Wait(p)
	}
}

// --- Proactive aggregation (§5.3) -------------------------------------------

// maybePush ships a change-log to its directory's owner when it filled an
// MTU or went idle. A server that stopped serving (FlushAll, recovery)
// skips: the flush path ships the backlog itself, and re-triggering here
// would spin — pushLog's early return plus its own re-trigger used to
// respawn each other at the same virtual instant, freezing the simulation.
func (s *Server) maybePush(dl *dirLog) {
	if !s.serving {
		return
	}
	dl.qmu.Lock()
	if dl.pushing || dl.log.Len() == 0 || dl.heldBy != 0 {
		dl.qmu.Unlock()
		return
	}
	dl.pushing = true
	snap := dl.log.Snapshot()
	dl.qmu.Unlock()
	s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.pushLog(p, dl, snap) })
}

func (s *Server) pushLog(p *env.Proc, dl *dirLog, snap []core.LogEntry) {
	defer func() {
		dl.qmu.Lock()
		dl.pushing = false
		again := s.serving && dl.log.Len() >= s.cfg.PushEntries
		dl.qmu.Unlock()
		if again {
			s.maybePush(dl)
		}
	}()
	if !s.serving {
		return
	}
	s.Stats.Pushes++
	msg := &wire.ChangePush{From: s.cfg.ID, Log: wire.DirLog{Dir: dl.ref, Entries: snap}}
	fut := env.NewFuture()
	s.mu.Lock()
	if s.pushWait == nil {
		s.pushWait = make(map[core.DirID]*env.Future)
	}
	s.pushWait[dl.ref.ID] = fut
	s.mu.Unlock()
	acked := false
	for try := 0; try < 8; try++ {
		if s.dead {
			break // recovery re-pushes from the WAL-rebuilt log
		}
		// Owner recomputed per retry: a migration can move the directory's
		// group mid-push, and the entries must chase the current owner.
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
		// The owner stayed unreachable: the entries remain pending here,
		// possibly behind a normal fingerprint. Keep the group scattered so
		// reads aggregate (and collect them) instead of serving stale state.
		s.markDirty(p, dl.ref.FP)
	}
	s.mu.Lock()
	if s.pushWait[dl.ref.ID] == fut {
		delete(s.pushWait, dl.ref.ID)
	}
	s.mu.Unlock()
}

// resetIdleTimer (re)arms the idle push trigger after an append.
func (s *Server) resetIdleTimer(dl *dirLog) {
	dl.qmu.Lock()
	if dl.idle != nil {
		dl.idle.Cancel()
	}
	if dl.onIdle == nil {
		dl.onIdle = func() { s.maybePush(dl) }
	}
	dl.idle = s.env.After(s.cfg.PushIdle, dl.onIdle)
	dl.qmu.Unlock()
}

// handleChangePush applies a proactively pushed change-log at the owner and
// (re)starts the quiesce timer; when pushes stop arriving the owner
// aggregates on its own so the next read finds the directory normal (§5.3).
func (s *Server) handleChangePush(p *env.Proc, from env.NodeID, cp *wire.ChangePush) {
	p.Compute(s.cfg.Costs.Parse)
	fp := cp.Log.Dir.FP
	// A push routed here under a stale ring is dropped without an ack: the
	// pusher recomputes the owner from the ring on every retry, so the entries
	// chase the current owner (or stay pending behind a dirty mark). Applying
	// them here would strand acknowledged entries on a server reads no longer
	// reach.
	if s.checkOwnership(fp) != nil {
		return
	}
	if s.gateWait(p, fp) != nil {
		return
	}
	if s.checkOwnership(fp) != nil {
		return
	}
	s.fpEnter(fp)
	defer s.fpExit(fp)
	l := s.lockOf(cp.Log.Dir.Key)
	l.Lock(p)
	maxID := s.applyEntries(p, cp.From, cp.Log)
	l.Unlock()
	s.reply(p, cp.From, &wire.ChangePushAck{Dir: cp.Log.Dir.ID, MaxID: maxID})
	if cp.Final {
		return
	}
	s.mu.Lock()
	if t := s.quiesce[fp]; t != nil {
		t.Cancel()
	}
	s.quiesce[fp] = s.env.After(s.cfg.OwnerQuiesce, func() {
		if !s.serving {
			return
		}
		s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.aggregateFP(p, fp, nil) })
	})
	s.mu.Unlock()
}

// handleChangePushAck completes a pending push.
func (s *Server) handleChangePushAck(p *env.Proc, a *wire.ChangePushAck) {
	s.mu.Lock()
	fut := s.pushWait[a.Dir]
	s.mu.Unlock()
	if fut != nil {
		fut.Complete(a)
	}
}

// --- Invalidation (§5.2) -----------------------------------------------------

// addInval appends a directory to the invalidation list. Re-invalidating a
// directory bumps its sequence so clients that consumed the earlier entry
// still observe the new one.
func (s *Server) addInval(dir core.DirID) {
	if dir.IsZero() {
		return
	}
	s.mu.Lock()
	s.invalSeq++
	s.invalSet[dir] = s.invalSeq
	s.inval = append(s.inval, wire.InvalEntry{Seq: s.invalSeq, Dir: dir})
	s.mu.Unlock()
}

// handleInvalBroadcast appends directories announced by a peer.
func (s *Server) handleInvalBroadcast(p *env.Proc, from env.NodeID, b *wire.InvalBroadcast) {
	for _, d := range b.Dirs {
		s.addInval(d)
	}
	s.reply(p, from, &wire.InvalAck{From: s.cfg.ID})
}

// --- rmdir (§5.2.3) -----------------------------------------------------------

// doRmdir removes an empty directory: aggregate its pending updates first to
// decide emptiness against the latest state, broadcast invalidation, then
// commit the removal as an asynchronous update to the parent.
func (s *Server) doRmdir(p *env.Proc, req *wire.MutateReq) {
	c := &s.cfg.Costs
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	parentLog := s.clogOf(req.Parent)

	p.Compute(c.LockOp)
	if err := s.admitFP(p, key.Fingerprint()); err != nil {
		// Routed here under a stale ring (migration or reconfiguration in
		// flight): the record may live on the new owner — retry, don't
		// report ENOENT.
		resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, err)}
		s.remember(req.Client, req.RPC, resp)
		s.reply(p, req.Client, resp)
		return
	}
	s.tallyFP(key.Fingerprint())
	// Pre-check existence and type without locks to learn the target id.
	p.Compute(c.KVGet)
	raw, ok := s.getInode(key)
	if !ok {
		s.fpExit(key.Fingerprint())
		resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, core.ErrNotExist)}
		s.remember(req.Client, req.RPC, resp)
		s.reply(p, req.Client, resp)
		return
	}
	in, derr := core.DecodeInode(raw)
	if derr != nil || in.Type != core.TypeDir {
		s.fpExit(key.Fingerprint())
		resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, core.ErrNotDir)}
		s.remember(req.Client, req.RPC, resp)
		s.reply(p, req.Client, resp)
		return
	}
	target := core.DirRef{ID: in.ID, Key: key, FP: key.Fingerprint()}

	// Aggregate the target's fingerprint group BEFORE locking the target's
	// inode: collects every pending update to the directory and plants it in
	// every peer's invalidation list (Fig. 6 steps 4–7). Taking the inode
	// lock first could deadlock against a concurrent aggregation's apply
	// phase, which needs that lock.
	s.addInval(target.ID)
	if !s.aggregateFP(p, target.FP, &aggOpts{rmdir: true, dir: target.ID, force: true}) {
		// Emptiness cannot be decided against state that may be missing an
		// unreachable peer's acknowledged entries.
		s.fpExit(key.Fingerprint())
		resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, core.ErrRetry)}
		s.remember(req.Client, req.RPC, resp)
		s.reply(p, req.Client, resp)
		return
	}

	parentLog.lock.RLock(p)
	kl := s.lockOf(key)
	kl.Lock(p)
	fail := func(err error) {
		s.fpExit(key.Fingerprint())
		kl.Unlock()
		parentLog.lock.RUnlock()
		resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, err)}
		s.remember(req.Client, req.RPC, resp)
		s.reply(p, req.Client, resp)
	}
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		fail(err)
		return
	}
	// Parent ref is current (stale caches rejected above): re-key the
	// change-log if the parent was renamed since it was created.
	s.rekeyClog(parentLog, req.Parent)
	// Re-validate under the lock: the directory may have raced away.
	if !s.hasInode(key) {
		fail(core.ErrNotExist)
		return
	}

	// Emptiness check against the aggregated entry list.
	p.Compute(c.KVScanEntry)
	if s.kv.CountPrefix(core.EntryPrefix(target.ID)) != 0 {
		fail(core.ErrNotEmpty)
		return
	}

	// Commit the removal (step 8) and defer the parent update.
	entry := core.LogEntry{Time: p.Now(), Op: core.OpRmdir, Name: req.Name, Type: core.TypeDir}
	s.mu.Lock()
	s.nextEntry++
	entry.ID = s.nextEntry
	s.mu.Unlock()
	walRec := s.encodeCommit(core.OpRmdir, key, req.Parent, entry, in)
	p.Compute(c.WALAppend + c.KVDel)
	lsn := mustAppend(s.wal, recCommit, walRec)
	s.deleteInode(key)

	if !s.cfg.Async {
		s.syncCommit(p, req, parentLog, entry, lsn, kl, core.DirID{})
		s.fpExit(key.Fingerprint())
		return
	}

	p.Compute(c.LogAppend)
	parentLog.qmu.Lock()
	parentLog.log.Append(entry)
	parentLog.walLSN[entry.ID] = lsn
	parentLog.qmu.Unlock()

	// As in doMutate, the dedup cache learns the response only after the
	// commit ack — replaying it earlier would acknowledge the rmdir before
	// its dirty-set insert is visible to reads.
	resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, nil)}
	s.asyncCommit(p, req.Parent, parentLog, entry, resp, req.Client)
	s.remember(req.Client, req.RPC, resp)
	kl.Unlock()
	parentLog.lock.RUnlock()
	s.fpExit(key.Fingerprint())
	s.resetIdleTimer(parentLog)
}

// debugApply traces every applied change-log entry (development only).
var debugApply = false
