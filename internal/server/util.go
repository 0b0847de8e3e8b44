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
	raw, ok := s.kv.GetView(key.Encode())
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
		s.kv.Delete(key.Encode())
		return nil
	}
	in.Nlink = uint32(n)
	mustAppend(s.wal, recInode, encodeInodeRec(key, in))
	s.kv.Put(key.Encode(), core.EncodeInode(in))
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
func (s *Server) encodeCommit(op core.Op, key core.Key, parent core.DirRef,
	entry core.LogEntry, in *core.Inode) []byte {

	enc := core.EncodeInode(in)
	b := make([]byte, 0, 1+32+8+len(key.Name)+8+len(enc)+entryLen(parent, entry))
	b = append(b, byte(op))
	b = key.PID.AppendBinary(b)
	b = u64(b, uint64(len(key.Name)))
	b = append(b, key.Name...)
	b = u64(b, uint64(len(enc)))
	b = append(b, enc...)
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
	var b []byte
	if in == nil {
		b = []byte{0}
	} else {
		b = []byte{1}
	}
	b = key.PID.AppendBinary(b)
	b = u64(b, uint64(len(key.Name)))
	b = append(b, key.Name...)
	if in != nil {
		b = append(b, core.EncodeInode(in)...)
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
