package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIDGenUniqueness(t *testing.T) {
	g1 := NewIDGen(1)
	g2 := NewIDGen(2)
	seen := map[DirID]bool{}
	for i := 0; i < 10000; i++ {
		for _, g := range []*IDGen{g1, g2} {
			id := g.Next()
			if seen[id] {
				t.Fatalf("duplicate id %v", id)
			}
			seen[id] = true
		}
	}
}

func TestDirIDRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		id := DirID{a, b, c, d}
		return DirIDFromBytes(id.AppendBinary(nil)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintWidth(t *testing.T) {
	g := NewIDGen(7)
	for i := 0; i < 1000; i++ {
		fp := FingerprintOf(g.Next(), fmt.Sprintf("n%d", i))
		if uint64(fp) >= 1<<FingerprintBits {
			t.Fatalf("fingerprint %x exceeds %d bits", uint64(fp), FingerprintBits)
		}
	}
}

func TestFingerprintZeroReserved(t *testing.T) {
	// Fingerprint 0 is the protocol's "no group" sentinel: a hash landing on
	// it (any multiple of 2^49) must fold away rather than mint a real group
	// that would silently skip migration admission.
	if fp := fingerprintOfHash(0); fp != 1 {
		t.Fatalf("fingerprintOfHash(0) = %d, want 1", fp)
	}
	if fp := fingerprintOfHash(1 << FingerprintBits); fp != 1 {
		t.Fatalf("hash with all-zero low bits folded to %d, want 1", fp)
	}
	if fp := fingerprintOfHash(42); fp != 42 {
		t.Fatalf("fingerprintOfHash(42) = %d, want 42", fp)
	}
}

func TestFingerprintIndexTagRoundTrip(t *testing.T) {
	// index and tag partition the fingerprint bits (modulo the zero-tag
	// reservation).
	f := func(raw uint64) bool {
		fp := Fingerprint(raw & (1<<FingerprintBits - 1))
		idx := fp.Index(17)
		tag := fp.Tag(17)
		if idx >= 1<<17 {
			return false
		}
		if tag == 0 {
			return false // zero is reserved
		}
		want := uint32(uint64(fp) & (1<<32 - 1))
		if want == 0 {
			want = 1
		}
		return tag == want && idx == uint32(uint64(fp)>>32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintDistribution(t *testing.T) {
	// Set indexes must spread uniformly: with 64k fingerprints over 2^10
	// buckets no bucket should be more than 3× the mean.
	g := NewIDGen(3)
	counts := make([]int, 1<<10)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		fp := FingerprintOf(g.Next(), "x")
		counts[fp.Index(10)]++
	}
	mean := n / len(counts)
	for b, c := range counts {
		if c > 3*mean {
			t.Fatalf("bucket %d holds %d (mean %d)", b, c, mean)
		}
	}
}

func TestKeyEncodeDecode(t *testing.T) {
	f := func(a, b uint64, name string) bool {
		if len(name) > 64 {
			name = name[:64]
		}
		k := Key{PID: DirID{a, b, a ^ b, 1}, Name: name}
		got, err := DecodeKey(k.Encode())
		return err == nil && got == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyCompareMatchesEncoding checks that Key.Compare is the byte order
// of Key.Encode, on random keys and on the edge cases: equal PIDs, a name
// that prefixes another, and the empty name.
func TestKeyCompareMatchesEncoding(t *testing.T) {
	sign := func(n int) int {
		switch {
		case n < 0:
			return -1
		case n > 0:
			return 1
		}
		return 0
	}
	check := func(a, b Key) {
		t.Helper()
		if got, want := a.Compare(b), bytes.Compare(a.Encode(), b.Encode()); sign(got) != want {
			t.Fatalf("Compare(%v, %v) = %d, bytes.Compare of encodings = %d", a, b, got, want)
		}
	}
	p, q := DirID{1, 2, 3, 4}, DirID{1, 2, 3, 5}
	edge := []Key{
		{PID: p}, {PID: p, Name: "a"}, {PID: p, Name: "ab"}, {PID: p, Name: "b"},
		{PID: q}, {PID: q, Name: "a"}, {PID: DirID{0, ^uint64(0), 0, 0}, Name: "z"},
		{PID: DirID{1, 0, 0, 0}}, {PID: DirID{}, Name: "\xff"},
	}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	word := func() uint64 { return uint64(rng.Intn(3)) << (8 * uint(rng.Intn(8))) }
	name := func() string {
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = "ab\x00\xff"[rng.Intn(4)]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		a := Key{PID: DirID{word(), word(), word(), word()}, Name: name()}
		b := a
		switch rng.Intn(3) {
		case 0:
			b.Name = name()
		case 1:
			b.PID[rng.Intn(4)] = word()
		default:
			b = Key{PID: DirID{word(), word(), word(), word()}, Name: name()}
		}
		check(a, b)
	}
}

// TestAppendEncodings checks that the append forms write exactly the bytes
// of Encode / EncodeInode after whatever the buffer already holds.
func TestAppendEncodings(t *testing.T) {
	k := Key{PID: DirID{9, 8, 7, 6}, Name: "name"}
	if got := k.AppendEncode([]byte("xy")); !bytes.Equal(got, append([]byte("xy"), k.Encode()...)) {
		t.Fatalf("AppendEncode = %x", got)
	}
	if n := len(k.Encode()); n != KeyLen(k.Name) || KeyLen(string(make([]byte, MaxNameLen))) != MaxKeyLen {
		t.Fatalf("KeyLen(%q) = %d, encoding %d bytes", k.Name, KeyLen(k.Name), n)
	}
	in := &Inode{Attr: Attr{Type: TypeRegular, Perm: 0o600, Size: 5}, File: 3, DataLoc: []uint32{4, 2}}
	if got := AppendInode([]byte("xy"), in); !bytes.Equal(got, append([]byte("xy"), EncodeInode(in)...)) {
		t.Fatalf("AppendInode = %x", got)
	}
	if n := len(EncodeInode(in)); n != InodeLen(in) {
		t.Fatalf("InodeLen = %d, encoding %d bytes", InodeLen(in), n)
	}
}

func TestKeyAndEntryTablesDisjoint(t *testing.T) {
	// The regression this guards: the inode of (pid, name) and a dentry of
	// directory pid with the same name must never share a storage key.
	id := DirID{1, 2, 3, 4}
	inodeKey := Key{PID: id, Name: "child"}.Encode()
	dentryKey := append(EntryPrefix(id), "child"...)
	if bytes.Equal(inodeKey, dentryKey) {
		t.Fatal("inode and dentry keys collide")
	}
	if _, err := DecodeKey(dentryKey); err == nil {
		t.Fatal("dentry key decoded as an inode key")
	}
}

func TestEntryPrefixCoversOnlyChildren(t *testing.T) {
	a := DirID{1, 0, 0, 1}
	b := DirID{1, 0, 0, 2}
	ka := append(EntryPrefix(a), "x"...)
	if bytes.HasPrefix(ka, EntryPrefix(b)) {
		t.Fatal("entry prefixes of different directories overlap")
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"/", "[]", false},
		{"/a/b/c", "[a b c]", false},
		{"/a//b/", "[a b]", false},
		{"/a/./b", "[a b]", false},
		{"/a/b/../c", "[a c]", false},
		{"/..", "", true},
		{"relative", "", true},
		{"", "", true},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitPath(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q): %v", c.in, err)
			continue
		}
		if fmt.Sprint(got) != c.want {
			t.Errorf("SplitPath(%q) = %v, want %s", c.in, got, c.want)
		}
	}
}

// TestSplitPathAllocs pins SplitPath to one allocation: the component list,
// whose strings are substrings of the path.
func TestSplitPathAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := SplitPath("/a/./bb//ccc/../d"); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("SplitPath made %v allocations, want 1", n)
	}
}

func TestValidateName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", string(make([]byte, 300))} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"a", "file.txt", "x y", "ünïcode"} {
		if err := ValidateName(good); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
}

func TestInodeRoundTrip(t *testing.T) {
	in := &Inode{
		Attr: Attr{Type: TypeDir, Perm: 0o751, UID: 3, GID: 9, Size: 42,
			Atime: 1, Mtime: 2, Ctime: 3, Nlink: 2},
		ID:      DirID{9, 8, 7, 6},
		File:    FileID(77),
		DataLoc: []uint32{1, 2, 3},
	}
	got, err := DecodeInode(EncodeInode(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attr != in.Attr || got.ID != in.ID || got.File != in.File {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
	if len(got.DataLoc) != 3 || got.DataLoc[2] != 3 {
		t.Fatalf("data locations %v", got.DataLoc)
	}
}

func TestInodeDecodeRejectsShort(t *testing.T) {
	if _, err := DecodeInode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestDirEntryRoundTrip(t *testing.T) {
	e := DirEntry{Name: "f", Type: TypeRegular, Perm: 0o640}
	got, err := DecodeDirEntry("f", EncodeDirEntry(e))
	if err != nil || got != e {
		t.Fatalf("got %+v err=%v", got, err)
	}
}

func TestErrnoRoundTrip(t *testing.T) {
	for _, e := range []error{ErrExist, ErrNotExist, ErrNotEmpty, ErrNotDir,
		ErrIsDir, ErrInvalid, ErrStaleCache, ErrRetry, ErrUnavailable, ErrLoop} {
		if got := ErrnoOf(e).Err(); !errors.Is(got, e) {
			t.Errorf("errno round trip of %v gave %v", e, got)
		}
	}
	if ErrnoOf(nil) != ErrnoOK || ErrnoOK.Err() != nil {
		t.Error("nil error round trip failed")
	}
}

func TestPlacementDeterministicAndComplete(t *testing.T) {
	p1 := NewPlacement([]uint32{0, 1, 2, 3}, 0)
	p2 := NewPlacement([]uint32{3, 2, 1, 0}, 0) // order-insensitive
	g := NewIDGen(5)
	for i := 0; i < 2000; i++ {
		k := Key{PID: g.Next(), Name: "f"}
		if p1.OwnerOfKey(k, false) != p2.OwnerOfKey(k, false) {
			t.Fatal("placement depends on server-list order")
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	p := NewPlacement([]uint32{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	counts := map[uint32]int{}
	g := NewIDGen(6)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.OwnerOfFile(g.Next(), "f")]++
	}
	for s, c := range counts {
		if c < n/8/3 || c > n/8*3 {
			t.Fatalf("server %d owns %d of %d (poor balance)", s, c, n)
		}
	}
}

func TestPlacementFingerprintGroupInvariant(t *testing.T) {
	// Every directory in a fingerprint group must land on one server: the
	// file and fingerprint routes must agree.
	p := NewPlacement([]uint32{0, 1, 2, 3}, 0)
	g := NewIDGen(7)
	for i := 0; i < 2000; i++ {
		pid := g.Next()
		name := fmt.Sprintf("d%d", i)
		fp := FingerprintOf(pid, name)
		if p.OwnerOfDir(pid, name) != p.OwnerOfFingerprint(fp) {
			t.Fatal("directory placement disagrees with fingerprint placement")
		}
		if p.OwnerOfFile(pid, name) != p.OwnerOfFingerprint(fp) {
			t.Fatal("file placement disagrees with fingerprint placement")
		}
	}
}

func TestPlacementMinimalMovementOnReset(t *testing.T) {
	p := NewPlacement([]uint32{0, 1, 2, 3}, 0)
	g := NewIDGen(8)
	type obj struct{ k Key }
	var objs []obj
	before := map[int]uint32{}
	for i := 0; i < 5000; i++ {
		k := Key{PID: g.Next(), Name: "f"}
		objs = append(objs, obj{k})
		before[i] = p.OwnerOfKey(k, false)
	}
	p.Reset([]uint32{0, 1, 2, 3, 4}) // add one server
	moved := 0
	for i, o := range objs {
		if p.OwnerOfKey(o.k, false) != before[i] {
			moved++
		}
	}
	// Consistent hashing: roughly 1/5 of keys move; far less than 1/2.
	if moved > len(objs)/2 {
		t.Fatalf("%d of %d keys moved after adding one server", moved, len(objs))
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new server")
	}
}

// --- change-log and compaction ------------------------------------------------

func TestChangeLogAppendAckThrough(t *testing.T) {
	var l ChangeLog
	for i := 1; i <= 5; i++ {
		l.Append(LogEntry{ID: uint64(i), Op: OpCreate, Name: fmt.Sprintf("f%d", i)})
	}
	if l.Len() != 5 || l.Bytes() == 0 {
		t.Fatalf("len=%d bytes=%d", l.Len(), l.Bytes())
	}
	l.AckThrough(3)
	if l.Len() != 2 {
		t.Fatalf("after ack len=%d", l.Len())
	}
	snap := l.Snapshot()
	if snap[0].ID != 4 || snap[1].ID != 5 {
		t.Fatalf("snapshot %v", snap)
	}
	l.AckThrough(100)
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Fatalf("after full ack len=%d bytes=%d", l.Len(), l.Bytes())
	}
}

func TestAckThroughOutOfOrderIDs(t *testing.T) {
	var l ChangeLog
	// Concurrent appenders can interleave id assignment and queue order.
	for _, id := range []uint64{2, 1, 4, 3} {
		l.Append(LogEntry{ID: id, Op: OpCreate, Name: fmt.Sprintf("n%d", id)})
	}
	l.AckThrough(2)
	for _, e := range l.Snapshot() {
		if e.ID <= 2 {
			t.Fatalf("entry %d survived AckThrough(2)", e.ID)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("len=%d", l.Len())
	}
}

// TestSnapshotSurvivesLogMutation pins the append-only invariant behind the
// copy-free Snapshot: no later Append or AckThrough may change what an
// earlier snapshot holds, whether the append fits the backing array or
// regrows it, and whether the ack drops a prefix or out-of-order IDs.
func TestSnapshotSurvivesLogMutation(t *testing.T) {
	fill := func(ids ...uint64) *ChangeLog {
		l := &ChangeLog{}
		for _, id := range ids {
			l.Append(LogEntry{ID: id, Op: OpCreate, Name: fmt.Sprintf("n%d", id)})
		}
		return l
	}
	cases := []struct {
		name   string
		ids    []uint64
		roomy  bool // the fixture must leave spare capacity
		mutate func(l *ChangeLog)
	}{
		{"append within capacity", []uint64{1, 2, 3}, true, func(l *ChangeLog) {
			l.Append(LogEntry{ID: 9, Op: OpDelete, Name: "x"})
		}},
		{"append past capacity", []uint64{1, 2, 3, 4}, false, func(l *ChangeLog) {
			for id := uint64(10); id < 30; id++ {
				l.Append(LogEntry{ID: id, Op: OpCreate, Name: "y"})
			}
		}},
		{"ack a prefix", []uint64{1, 2, 3, 4, 5}, false, func(l *ChangeLog) {
			l.AckThrough(2)
			l.Append(LogEntry{ID: 6, Op: OpCreate, Name: "z"})
		}},
		{"ack out-of-order ids", []uint64{2, 1, 4, 3}, false, func(l *ChangeLog) {
			l.AckThrough(2)
			l.Append(LogEntry{ID: 5, Op: OpCreate, Name: "w"})
			l.AckThrough(4)
			l.Append(LogEntry{ID: 6, Op: OpCreate, Name: "v"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := fill(tc.ids...)
			if tc.roomy && cap(l.entries) == len(l.entries) {
				t.Fatalf("fixture has no spare capacity (len=cap=%d)", len(l.entries))
			}
			snap := l.Snapshot()
			want := append([]LogEntry(nil), snap...)
			tc.mutate(l)
			if !reflect.DeepEqual(snap, want) {
				t.Fatalf("snapshot changed under %s:\n got %v\nwant %v", tc.name, snap, want)
			}
			// A holder appending to its snapshot must not reach the log.
			before := append([]LogEntry(nil), l.Snapshot()...)
			_ = append(snap, LogEntry{ID: 99, Name: "holder"})
			if !reflect.DeepEqual(l.Snapshot(), before) {
				t.Fatal("append to a snapshot wrote into the log")
			}
		})
	}
}

func TestSnapshotAllocatesNothing(t *testing.T) {
	l := &ChangeLog{}
	for i := 1; i <= 1000; i++ {
		l.Append(LogEntry{ID: uint64(i), Op: OpCreate, Name: "f"})
	}
	var snap []LogEntry
	if n := testing.AllocsPerRun(100, func() { snap = l.Snapshot() }); n != 0 {
		t.Fatalf("Snapshot made %v allocations, want 0", n)
	}
	if len(snap) != 1000 {
		t.Fatalf("snapshot len=%d", len(snap))
	}
}

// snapSink keeps the benchmarked Snapshot calls from being optimized away.
var snapSink []LogEntry

// BenchmarkChangeLogSnapshot measures one snapshot of a log holding n
// pending entries: constant time and zero allocations at any backlog.
func BenchmarkChangeLogSnapshot(b *testing.B) {
	for _, n := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			l := &ChangeLog{}
			for i := 1; i <= n; i++ {
				l.Append(LogEntry{ID: uint64(i), Op: OpCreate, Name: "f"})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapSink = l.Snapshot()
			}
			if len(snapSink) != n {
				b.Fatalf("snapshot len=%d, want %d", len(snapSink), n)
			}
		})
	}
}

func TestCompactNetAndMax(t *testing.T) {
	entries := []LogEntry{
		{ID: 1, Time: 10, Op: OpCreate, Name: "a", Type: TypeRegular},
		{ID: 2, Time: 30, Op: OpCreate, Name: "b", Type: TypeRegular},
		{ID: 3, Time: 20, Op: OpDelete, Name: "a"},
		{ID: 4, Time: 25, Op: OpMkdir, Name: "d", Type: TypeDir},
	}
	c := Compact(entries)
	// a cancels (create+delete), b and d remain: net +2.
	if c.NetEntries != 2 {
		t.Errorf("NetEntries=%d, want 2", c.NetEntries)
	}
	if c.MaxTime != 30 || c.MaxID != 4 || c.Count != 4 {
		t.Errorf("MaxTime=%d MaxID=%d Count=%d", c.MaxTime, c.MaxID, c.Count)
	}
	// Final ops: a→removed, b→put, d→put.
	final := map[string]bool{}
	for _, op := range c.Ops {
		final[op.Name] = op.Put
	}
	if final["a"] || !final["b"] || !final["d"] {
		t.Errorf("ops %v", c.Ops)
	}
}

// TestCompactEquivalence is the core §5.3 property: applying the compacted
// update yields the same directory state as applying the raw entries in FIFO
// order, for any FIFO-legal entry sequence.
func TestCompactEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		// Generate a FIFO-legal sequence: per name, create/delete alternate
		// starting from "absent".
		names := []string{"a", "b", "c", "d"}
		present := map[string]bool{}
		var entries []LogEntry
		for i := 0; i < 20; i++ {
			n := names[rnd.Intn(len(names))]
			var op Op
			if present[n] {
				op = OpDelete
				present[n] = false
			} else {
				op = OpCreate
				present[n] = true
			}
			entries = append(entries, LogEntry{
				ID: uint64(i + 1), Time: int64(rnd.Intn(100)), Op: op, Name: n,
				Type: TypeRegular,
			})
		}

		// Reference: apply raw entries in order.
		refList := map[string]bool{}
		refSize := int64(0)
		refTime := int64(0)
		for _, e := range entries {
			switch e.Op {
			case OpCreate:
				refList[e.Name] = true
				refSize++
			case OpDelete:
				delete(refList, e.Name)
				refSize--
			}
			if e.Time > refTime {
				refTime = e.Time
			}
		}

		// Compacted: attribute merge + final op per name.
		c := Compact(entries)
		gotList := map[string]bool{}
		for _, op := range c.Ops {
			if op.Put {
				gotList[op.Name] = true
			} else {
				delete(gotList, op.Name)
			}
		}
		var attr Attr
		c.ApplyToAttr(&attr)
		if attr.Size != refSize && !(refSize < 0 && attr.Size == 0) {
			t.Fatalf("trial %d: size %d, want %d", trial, attr.Size, refSize)
		}
		if attr.Mtime != refTime {
			t.Fatalf("trial %d: mtime %d, want %d", trial, attr.Mtime, refTime)
		}
		if fmt.Sprint(gotList) != fmt.Sprint(refList) {
			t.Fatalf("trial %d: list %v, want %v", trial, gotList, refList)
		}
	}
}

func TestApplyToAttrClampsSize(t *testing.T) {
	c := Compacted{NetEntries: -5}
	a := Attr{Size: 2}
	c.ApplyToAttr(&a)
	if a.Size != 0 {
		t.Fatalf("size=%d, want clamped 0", a.Size)
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{OpCreate, OpDelete, OpMkdir, OpRmdir} {
		if !op.DoubleInode() || !op.UpdatesDir() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []Op{OpStat, OpOpen, OpClose, OpStatDir, OpReadDir} {
		if op.DoubleInode() {
			t.Errorf("%v wrongly double-inode", op)
		}
	}
	if !OpStatDir.DirRead() || !OpReadDir.DirRead() || OpStat.DirRead() {
		t.Error("DirRead misclassification")
	}
	if !OpRename.UpdatesDir() {
		t.Error("rename must update directories")
	}
}
