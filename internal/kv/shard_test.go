package kv_test

// Tests for the sharded + interned representation behind the Store API:
// group-shard routing, name/value interning, ordered merges across the
// conforming/fallback split, and the O(1) group CountPrefix.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/kv"
)

// dirID returns a distinct 32-byte directory id.
func dirID(i byte) core.DirID {
	var id core.DirID
	id[0] = uint64(i)
	return id
}

// schemaKey builds a conforming tag+id+'/'+name key.
func schemaKey(tag byte, id core.DirID, name string) []byte {
	k := make([]byte, 0, 34+len(name))
	k = append(k, tag)
	k = id.AppendBinary(k)
	k = append(k, '/')
	return append(k, name...)
}

// TestShardedOrdering interleaves conforming keys from several groups with
// non-conforming fallback keys and checks that full scans and ranges still
// come back in global byte order.
func TestShardedOrdering(t *testing.T) {
	s := kv.New()
	var want [][]byte
	// Fallback keys that sort before ('A'...), between ('e'-tag groups vs
	// 'i'-tag groups), and after ('z'...) the schema groups. One is exactly
	// 34 bytes without the '/' so it exercises the near-conforming shape.
	fallback := [][]byte{
		[]byte("A-first"),
		[]byte("f-between-tags"),
		[]byte("z-last"),
		bytes.Repeat([]byte{'f'}, 34),
	}
	for _, k := range fallback {
		s.Put(k, []byte("fb"))
		want = append(want, k)
	}
	for _, tag := range []byte{'e', 'i'} {
		for _, d := range []byte{1, 3, 2} {
			for _, name := range []string{"b", "a", "c/nested", ""} {
				k := schemaKey(tag, dirID(d), name)
				s.Put(k, []byte{tag, d})
				want = append(want, k)
			}
		}
	}
	sortByteSlices(want)

	var got [][]byte
	s.Scan(nil, func(k, _ []byte) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("key %d: got %q want %q", i, got[i], want[i])
		}
	}

	// Range over a window that starts inside one group and ends inside
	// another must honor the same global order.
	lo, hi := want[3], want[len(want)-3]
	var ranged [][]byte
	s.Range(lo, hi, func(k, _ []byte) bool {
		ranged = append(ranged, append([]byte(nil), k...))
		return true
	})
	wantRange := want[3 : len(want)-3]
	if len(ranged) != len(wantRange) {
		t.Fatalf("range returned %d keys, want %d", len(ranged), len(wantRange))
	}
	for i := range wantRange {
		if !bytes.Equal(ranged[i], wantRange[i]) {
			t.Fatalf("range key %d: got %q want %q", i, ranged[i], wantRange[i])
		}
	}
}

// TestSameNameAcrossGroups stores the same component name under many
// directories — the interned-name case — and checks the values stay
// distinct per key.
func TestSameNameAcrossGroups(t *testing.T) {
	s := kv.New()
	const groups = 64
	for d := 0; d < groups; d++ {
		k := schemaKey('i', dirID(byte(d)), "shared-name")
		s.Put(k, []byte(fmt.Sprintf("val-%d", d)))
	}
	if s.Len() != groups {
		t.Fatalf("Len = %d, want %d", s.Len(), groups)
	}
	for d := 0; d < groups; d++ {
		v, ok := s.Get(schemaKey('i', dirID(byte(d)), "shared-name"))
		if !ok || string(v) != fmt.Sprintf("val-%d", d) {
			t.Fatalf("group %d: got %q ok=%v", d, v, ok)
		}
	}
}

// TestValueInterningShares checks that equal small values stored under
// different keys alias the same backing array through GetView, and that
// overwriting one key does not disturb the other.
func TestValueInterningShares(t *testing.T) {
	s := kv.New()
	val := []byte("identical-small-record")
	k1 := schemaKey('i', dirID(1), "a")
	k2 := schemaKey('i', dirID(2), "b")
	s.Put(k1, val)
	s.Put(k2, val)

	v1, ok1 := s.GetView(k1)
	v2, ok2 := s.GetView(k2)
	if !ok1 || !ok2 {
		t.Fatal("missing keys")
	}
	if &v1[0] != &v2[0] {
		t.Error("equal small values should share one backing array")
	}
	// The stored value must be a copy, not an alias of the caller's slice.
	val[0] = 'X'
	if v, _ := s.Get(k1); v[0] == 'X' {
		t.Error("store aliases the caller's value slice")
	}

	// Overwriting k1 must leave k2 intact (values are replaced, never
	// mutated in place).
	s.Put(k1, []byte("changed"))
	if v, _ := s.Get(k2); string(v) != "identical-small-record" {
		t.Errorf("overwrite of k1 disturbed k2: %q", v)
	}
}

// TestNewValueOneAllocation pins the interning cost of a value the table has
// not seen: one copy serves as both the stored value and the table's key.
// The key already exists, so no name or shard is created.
func TestNewValueOneAllocation(t *testing.T) {
	s := kv.New()
	k := schemaKey('i', dirID(3), "f")
	s.Put(k, []byte("first"))
	val := make([]byte, 16)
	i := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		i++
		for j := range 8 {
			val[j] = byte(i >> (8 * j))
		}
		s.Put(k, val)
	}); n > 1 {
		t.Fatalf("Put of a new small value made %v allocations, want <= 1", n)
	}
	// The table keys by the stored copy: changing the caller's buffer must
	// not disturb the stored value or the table.
	want := append([]byte(nil), val...)
	val[0]++
	if v, _ := s.Get(k); !bytes.Equal(v, want) {
		t.Fatalf("stored value %x, want %x", v, want)
	}
	k2 := schemaKey('i', dirID(4), "g")
	s.Put(k2, want)
	v1, _ := s.GetView(k)
	v2, _ := s.GetView(k2)
	if &v1[0] != &v2[0] {
		t.Error("an equal value put later should share the interned copy")
	}
}

// TestLargeValuesNotShared checks values above the interning bound are
// independent copies.
func TestLargeValuesNotShared(t *testing.T) {
	s := kv.New()
	val := bytes.Repeat([]byte{7}, 4096)
	k1, k2 := []byte("big/one"), []byte("big/two")
	s.Put(k1, val)
	s.Put(k2, val)
	v1, _ := s.GetView(k1)
	v2, _ := s.GetView(k2)
	if &v1[0] == &v2[0] {
		t.Error("large values must not be interned")
	}
}

// TestGetViewNoCopy pins the GetView contract on the sharded store: the view
// aliases store memory (same backing array across two calls) while Get
// returns a fresh copy each time.
func TestGetViewNoCopy(t *testing.T) {
	s := kv.New()
	k := schemaKey('i', dirID(9), "node")
	s.Put(k, []byte("payload"))
	v1, _ := s.GetView(k)
	v2, _ := s.GetView(k)
	if &v1[0] != &v2[0] {
		t.Error("GetView should return the stored slice, not a copy")
	}
	c1, _ := s.Get(k)
	c2, _ := s.Get(k)
	if &c1[0] == &c2[0] {
		t.Error("Get should return a fresh copy")
	}
}

// TestGroupCountPrefix checks the O(1) whole-group count agrees with a
// counting scan as entries come and go.
func TestGroupCountPrefix(t *testing.T) {
	s := kv.New()
	id := dirID(5)
	prefix := core.EntryPrefix(id)
	if got := s.CountPrefix(prefix); got != 0 {
		t.Fatalf("empty group count = %d", got)
	}
	for i := 0; i < 10; i++ {
		s.Put(schemaKey('e', id, fmt.Sprintf("f%d", i)), []byte{1})
	}
	// Same names in another group must not leak into the count.
	for i := 0; i < 7; i++ {
		s.Put(schemaKey('e', dirID(6), fmt.Sprintf("f%d", i)), []byte{1})
	}
	if got := s.CountPrefix(prefix); got != 10 {
		t.Fatalf("group count = %d, want 10", got)
	}
	scanned := 0
	s.Scan(prefix, func(_, _ []byte) bool { scanned++; return true })
	if scanned != 10 {
		t.Fatalf("scan count = %d, want 10", scanned)
	}
	for i := 0; i < 10; i++ {
		s.Delete(schemaKey('e', id, fmt.Sprintf("f%d", i)))
	}
	if got := s.CountPrefix(prefix); got != 0 {
		t.Fatalf("drained group count = %d", got)
	}
}

// TestScanAfterDeleteAndReinsert mutates a group between ordered reads so
// the lazily rebuilt suffix index is exercised.
func TestScanAfterDeleteAndReinsert(t *testing.T) {
	s := kv.New()
	id := dirID(8)
	for _, n := range []string{"a", "b", "c", "d"} {
		s.Put(schemaKey('e', id, n), []byte(n))
	}
	collect := func() string {
		out := ""
		s.Scan(core.EntryPrefix(id), func(k, _ []byte) bool {
			out += string(k[34:]) + ","
			return true
		})
		return out
	}
	if got := collect(); got != "a,b,c,d," {
		t.Fatalf("initial order %q", got)
	}
	s.Delete(schemaKey('e', id, "b"))
	if got := collect(); got != "a,c,d," {
		t.Fatalf("after delete %q", got)
	}
	s.Put(schemaKey('e', id, "ba"), []byte("x"))
	if got := collect(); got != "a,ba,c,d," {
		t.Fatalf("after reinsert %q", got)
	}
}

// TestScanPrefixInsideGroup scans with a prefix longer than the group prefix
// (group + name prefix) and checks only matching suffixes come back.
func TestScanPrefixInsideGroup(t *testing.T) {
	s := kv.New()
	id := dirID(2)
	for _, n := range []string{"ab", "abc", "abd", "b", "aa"} {
		s.Put(schemaKey('e', id, n), []byte(n))
	}
	var got []string
	s.Scan(schemaKey('e', id, "ab"), func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	})
	want := []string{"ab", "abc", "abd"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func sortByteSlices(b [][]byte) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && bytes.Compare(b[j], b[j-1]) < 0; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// groupNames lists a group the way directory listings do: one slice
// presized from the O(1) count, filled with the store's interned names.
func groupNames(s *kv.Store, prefix []byte) []string {
	var names []string
	if n := s.CountPrefix(prefix); n > 0 {
		names = make([]string, 0, n)
	}
	s.ScanGroup(prefix, func(name string, _ []byte) bool {
		names = append(names, name)
		return true
	})
	return names
}

// TestScanGroupMatchesScan checks the group iterator against the byte-key
// Scan it replaces for listings, across creates, deletes and reinserts that
// invalidate the shard's sorted-name cache between reads.
func TestScanGroupMatchesScan(t *testing.T) {
	s := kv.New()
	id := dirID(9)
	prefix := core.EntryPrefix(id)
	// Neighbours that must not leak in: the same names in another group and
	// under another tag, and a fallback key.
	for _, n := range []string{"a", "m", "z"} {
		s.Put(schemaKey('e', dirID(10), n), []byte{1})
		s.Put(schemaKey('i', id, n), []byte{2})
	}
	s.Put([]byte("e-not-a-group"), []byte{3})
	scanNames := func() []string {
		var names []string
		s.Scan(prefix, func(k, _ []byte) bool {
			names = append(names, string(k[len(prefix):]))
			return true
		})
		return names
	}
	rnd := rand.New(rand.NewSource(3))
	for step := 0; step < 400; step++ {
		k := schemaKey('e', id, fmt.Sprintf("f%02d", rnd.Intn(40)))
		if rnd.Intn(3) == 0 {
			s.Delete(k)
		} else {
			s.Put(k, []byte{byte(step)})
		}
		if step%7 != 0 {
			continue
		}
		got, want := groupNames(s, prefix), scanNames()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ScanGroup %v, Scan %v", step, got, want)
		}
	}
	// Values come back with their names.
	s.ScanGroup(prefix, func(name string, v []byte) bool {
		if want, _ := s.GetView(append(core.EntryPrefix(id), name...)); !bytes.Equal(v, want) {
			t.Fatalf("%s: value %v, want %v", name, v, want)
		}
		return true
	})
	// Stopping early stops.
	calls := 0
	s.ScanGroup(prefix, func(string, []byte) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("fn ran %d times after returning false", calls)
	}
}

func TestScanGroupEmptyAndMissing(t *testing.T) {
	s := kv.New()
	emptied := core.EntryPrefix(dirID(1))
	s.Put(schemaKey('e', dirID(1), "gone"), []byte{1})
	s.Delete(schemaKey('e', dirID(1), "gone"))
	for _, prefix := range [][]byte{emptied, core.EntryPrefix(dirID(2))} {
		if names := groupNames(s, prefix); names != nil {
			t.Fatalf("listing of %x = %v, want nil", prefix, names)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScanGroup accepted a non-group prefix")
		}
	}()
	s.ScanGroup(schemaKey('e', dirID(1), "name"), func(string, []byte) bool { return true })
}

// TestGroupListingAllocsConstant: a listing allocates its one slice, not a
// name copy per entry nor a regrowth per doubling.
func TestGroupListingAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		s := kv.New()
		id := dirID(4)
		for i := 0; i < n; i++ {
			s.Put(schemaKey('e', id, fmt.Sprintf("file-%06d", i)), []byte{1, 0, 0})
		}
		prefix := core.EntryPrefix(id)
		return testing.AllocsPerRun(20, func() {
			if got := len(groupNames(s, prefix)); got != n {
				t.Fatalf("listed %d of %d", got, n)
			}
		})
	}
	small, large := allocs(10), allocs(10000)
	if small != large {
		t.Fatalf("listing allocations grow with size: %v at 10, %v at 10000", small, large)
	}
}
