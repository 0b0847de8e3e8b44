package server

import (
	"encoding/binary"
	"fmt"
	"sort"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
)

// mustAppend wraps WAL appends: in-memory logs cannot fail, and a file log
// that cannot persist leaves the server unable to honor its durability
// contract — crash loudly rather than acknowledge unlogged operations.
func mustAppend(l wal.Log, kind uint8, payload []byte) wal.LSN {
	lsn, err := l.Append(kind, payload)
	if err != nil {
		panic(fmt.Sprintf("server: WAL append failed: %v", err))
	}
	return lsn
}

// mustMark wraps applied-marking, same contract as mustAppend.
func mustMark(l wal.Log, lsn wal.LSN) {
	if err := l.MarkApplied(lsn); err != nil {
		panic(fmt.Sprintf("server: WAL mark failed: %v", err))
	}
}

// inodeBufLen sizes the stack buffer an inode is encoded into: the 89-byte
// fixed part plus a stripe of up to maxStripeWidth data slots fits; a longer
// encoding spills to the heap.
const inodeBufLen = 96 + 4*maxStripeWidth

// getInode returns a view of key's stored inode (the kv.GetView contract:
// decode it before the next Put/Delete of key). The key is encoded into a
// stack buffer.
func (s *Server) getInode(key core.Key) ([]byte, bool) {
	var kb [core.MaxKeyLen]byte
	return s.kv.GetView(key.AppendEncode(kb[:0]))
}

// hasInode reports whether key has a stored inode.
func (s *Server) hasInode(key core.Key) bool {
	var kb [core.MaxKeyLen]byte
	return s.kv.Has(key.AppendEncode(kb[:0]))
}

// putInode stores in under key. Key and inode are encoded into stack
// buffers; the store keeps its own copy.
func (s *Server) putInode(key core.Key, in *core.Inode) {
	var kb [core.MaxKeyLen]byte
	var ib [inodeBufLen]byte
	s.kv.Put(key.AppendEncode(kb[:0]), core.AppendInode(ib[:0], in))
}

// deleteInode removes key's stored inode.
func (s *Server) deleteInode(key core.Key) {
	var kb [core.MaxKeyLen]byte
	s.kv.Delete(key.AppendEncode(kb[:0]))
}

// putDentry stores a dentry in dir's entry list, its key encoded into a
// stack buffer.
func (s *Server) putDentry(dir core.DirID, de core.DirEntry) {
	var kb [core.MaxKeyLen]byte
	s.kv.Put(append(core.AppendEntryPrefix(kb[:0], dir), de.Name...), core.EncodeDirEntry(de))
}

// deleteDentry removes name from dir's entry list.
func (s *Server) deleteDentry(dir core.DirID, name string) {
	var kb [core.MaxKeyLen]byte
	s.kv.Delete(append(core.AppendEntryPrefix(kb[:0], dir), name...))
}

// applyDentry applies one change-log entry's effect on the entry list of
// directory dir.
func (s *Server) applyDentry(dir core.DirID, e core.LogEntry) {
	switch e.Op {
	case core.OpCreate, core.OpMkdir:
		s.putDentry(dir, core.DirEntry{Name: e.Name, Type: e.Type, Perm: e.Perm})
	case core.OpDelete, core.OpRmdir:
		s.deleteDentry(dir, e.Name)
	}
}

// sortedNodeIDs snapshots a node-keyed map's keys in ascending id order: the
// peer-set counterpart of sortedClogs. Any map iteration whose order can
// reach the network (sends, RNG draws, lock acquisitions) must go through a
// sorted snapshot, or cross-run byte determinism breaks (maprange enforces
// this).
func sortedNodeIDs[V any](m map[env.NodeID]V) []env.NodeID {
	out := make([]env.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxStripeWidth caps how many data slots one file stripes over: wide
// enough to spread a multi-chunk file, narrow enough that small files keep
// locality (§7.6 files are mostly under 256 KB).
const maxStripeWidth = 4

// assignDataLoc picks a file's content placement at create time: a ring
// window of data slots starting at a fingerprint-derived base. The client
// stripes chunk s to DataLoc[s mod len] (returned at Open); deployments
// without data nodes get none (metadata-only runs).
func (s *Server) assignDataLoc(key core.Key) []uint32 {
	n := s.cfg.DataNodes
	if n <= 0 {
		return nil
	}
	w := n
	if w > maxStripeWidth {
		w = maxStripeWidth
	}
	base := uint32(uint64(key.Fingerprint()) % uint64(n))
	loc := make([]uint32, w)
	for j := range loc {
		loc[j] = (base + uint32(j)) % uint32(n)
	}
	return loc
}

// fileAttrKey derives the storage key of a hard-linked file's shared
// attribute object (§5.5): a reserved parent id namespace keyed by FileID.
func fileAttrKey(id core.FileID) core.Key {
	return core.Key{
		PID:  core.DirID{^uint64(0), ^uint64(0), 0, uint64(id)},
		Name: "#attr",
	}
}

// applyNlink atomically adjusts a local attribute object's link count,
// deleting the object when it reaches zero. Link-count deltas commute, so no
// cross-server locking is needed (the same argument as §5.3's type (a)
// actions).
func (s *Server) applyNlink(p *env.Proc, key core.Key, delta int32) error {
	c := &s.cfg.Costs
	l := s.lockOf(key)
	l.Lock(p)
	defer l.Unlock()
	p.Compute(c.KVGet)
	raw, ok := s.getInode(key)
	if !ok {
		return core.ErrNotExist
	}
	in, err := core.DecodeInode(raw)
	if err != nil {
		return core.ErrInvalid
	}
	n := int64(in.Nlink) + int64(delta)
	p.Compute(c.WALAppend + c.KVPut)
	if n <= 0 {
		mustAppend(s.wal, recInode, encodeInodeRec(key, nil))
		s.deleteInode(key)
		return nil
	}
	in.Nlink = uint32(n)
	mustAppend(s.wal, recInode, encodeInodeRec(key, in))
	s.putInode(key, in)
	return nil
}

// ListDir returns dir's entry list in name order and the number of records
// visited (what a scan is charged for; a record that fails to decode is
// visited but not listed). The names are the store's interned strings and
// the slice is presized from the group's O(1) count.
func (s *Server) ListDir(dir core.DirID) (entries []core.DirEntry, visited int) {
	prefix := core.EntryPrefix(dir)
	if n := s.kv.CountPrefix(prefix); n > 0 {
		entries = make([]core.DirEntry, 0, n)
	}
	s.kv.ScanGroup(prefix, func(name string, v []byte) bool {
		if de, err := core.DecodeDirEntry(name, v); err == nil {
			entries = append(entries, de)
		}
		visited++
		return true
	})
	return entries, visited
}

// encodeCommit serializes a recCommit WAL record: the committed double-inode
// operation, its inode image, and the deferred parent update (§5.2.1 step 4).
// The record is one exactly-sized allocation; the inode is encoded in place.
func (s *Server) encodeCommit(op core.Op, key core.Key, parent core.DirRef,
	entry core.LogEntry, in *core.Inode) []byte {

	n := core.InodeLen(in)
	b := make([]byte, 0, 1+32+8+len(key.Name)+8+n+entryLen(parent, entry))
	b = append(b, byte(op))
	b = key.PID.AppendBinary(b)
	b = u64(b, uint64(len(key.Name)))
	b = append(b, key.Name...)
	b = u64(b, uint64(n))
	b = core.AppendInode(b, in)
	b = encodeEntry(b, parent, entry)
	return b
}

// decodeCommit parses a recCommit record.
func decodeCommit(b []byte) (op core.Op, key core.Key, parent core.DirRef,
	entry core.LogEntry, in *core.Inode, err error) {

	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: corrupt commit record: %v", r)
		}
	}()
	op = core.Op(b[0])
	b = b[1:]
	key.PID = core.DirIDFromBytes(b)
	b = b[32:]
	n := binary.BigEndian.Uint64(b)
	b = b[8:]
	key.Name = string(b[:n])
	b = b[n:]
	n = binary.BigEndian.Uint64(b)
	b = b[8:]
	in, err = core.DecodeInode(b[:n])
	if err != nil {
		return
	}
	b = b[n:]
	parent, entry, _ = decodeEntry(b)
	return
}

// encodeInodeRec serializes a recInode record: a direct inode put (nil inode
// means delete).
func encodeInodeRec(key core.Key, in *core.Inode) []byte {
	n, put := 1+32+8+len(key.Name), byte(0)
	if in != nil {
		n, put = n+core.InodeLen(in), 1
	}
	b := append(make([]byte, 0, n), put)
	b = key.PID.AppendBinary(b)
	b = u64(b, uint64(len(key.Name)))
	b = append(b, key.Name...)
	if in != nil {
		b = core.AppendInode(b, in)
	}
	return b
}

// decodeInodeRec parses a recInode record.
func decodeInodeRec(b []byte) (key core.Key, in *core.Inode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: corrupt inode record: %v", r)
		}
	}()
	put := b[0] == 1
	b = b[1:]
	key.PID = core.DirIDFromBytes(b)
	b = b[32:]
	n := binary.BigEndian.Uint64(b)
	b = b[8:]
	key.Name = string(b[:n])
	b = b[n:]
	if put {
		in, err = core.DecodeInode(b)
	}
	return
}
