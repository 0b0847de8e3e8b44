package wal

import (
	"os"
	"path/filepath"
	"testing"
)

func testLog(t *testing.T, l Log) {
	t.Helper()
	lsn1, err := l.Append(1, []byte("op-1"))
	if err != nil || lsn1 != 1 {
		t.Fatalf("Append: lsn=%d err=%v", lsn1, err)
	}
	lsn2, _ := l.Append(2, []byte("op-2"))
	lsn3, _ := l.Append(1, []byte("op-3"))
	if lsn2 != 2 || lsn3 != 3 {
		t.Fatalf("lsns %d %d", lsn2, lsn3)
	}
	if err := l.MarkApplied(lsn2); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	if string(got[0].Payload) != "op-1" || got[0].Kind != 1 || got[0].Applied {
		t.Fatalf("record 1: %+v", got[0])
	}
	if !got[1].Applied {
		t.Fatal("record 2 not marked applied")
	}
	if got[2].Applied {
		t.Fatal("record 3 wrongly applied")
	}
	if l.Len() != 3 {
		t.Fatalf("Len=%d", l.Len())
	}
}

func TestMemLog(t *testing.T) { testLog(t, NewMem()) }

func TestFileLog(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	testLog(t, l)
}

func TestFileLogReopenContinuesLSNs(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(1, []byte("a"))
	l.Append(1, []byte("b"))
	l.MarkApplied(1)
	l.Close()

	l2, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Fatalf("reopened Len=%d", l2.Len())
	}
	lsn, _ := l2.Append(1, []byte("c"))
	if lsn != 3 {
		t.Fatalf("lsn after reopen = %d, want 3", lsn)
	}
	var applied []bool
	l2.Replay(func(r Record) error {
		applied = append(applied, r.Applied)
		return nil
	})
	if len(applied) != 3 || !applied[0] || applied[1] || applied[2] {
		t.Fatalf("applied flags %v", applied)
	}
}

func TestFileLogTornTailIgnored(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(1, []byte("good"))
	l.Close()
	// Simulate a torn final write: append garbage that is not a full frame.
	f, _ := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0, 0, 0, 9, 1, 2})
	f.Close()

	l2, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(r Record) error { n++; return nil })
	if n != 1 || l2.Len() != 1 {
		t.Fatalf("replayed %d records (Len=%d), want 1", n, l2.Len())
	}
}

func TestFileLogCorruptTailIgnored(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wal")
	l, _ := OpenFile(p)
	l.Append(1, []byte("good"))
	l.Append(1, []byte("will-corrupt"))
	l.Close()
	// Flip a byte in the last frame's payload.
	data, _ := os.ReadFile(p)
	data[len(data)-6] ^= 0xFF
	os.WriteFile(p, data, 0o644)

	l2, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(r Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (corrupt tail dropped)", n)
	}
}

func TestMarkAppliedOutOfRange(t *testing.T) {
	m := NewMem()
	if err := m.MarkApplied(5); err == nil {
		t.Fatal("expected error for out-of-range LSN")
	}
}

func TestReservedKindRejected(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wal")
	l, _ := OpenFile(p)
	defer l.Close()
	if _, err := l.Append(0xFF, nil); err == nil {
		t.Fatal("reserved kind accepted")
	}
}

// TestMemPayloadsSurviveReuseAndChunkSpill checks the chunked copy contract:
// a payload Replay returns stays intact after the caller rewrites the buffer
// it appended from, after later appends fill its chunk and spill into a new
// one, and after a reader appends to an earlier payload. Oversized payloads,
// which are copied on their own, keep the same contract.
func TestMemPayloadsSurviveReuseAndChunkSpill(t *testing.T) {
	m := NewMem()
	buf := make([]byte, 0, maxChunked)
	var want [][]byte
	appendRec := func(n int, fill byte) {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, fill+byte(i))
		}
		want = append(want, append([]byte(nil), buf...))
		if _, err := m.Append(1, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE // the caller reuses its buffer
		}
	}
	check := func(stage string) {
		t.Helper()
		i := 0
		if err := m.Replay(func(r Record) error {
			if string(r.Payload) != string(want[i]) {
				t.Fatalf("%s: record %d payload %x, want %x", stage, r.LSN, r.Payload, want[i])
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("%s: replayed %d records, want %d", stage, i, len(want))
		}
	}
	appendRec(100, 1)
	appendRec(200, 2)
	check("same chunk")
	if cap(m.chunk) != firstChunk {
		t.Fatalf("a log of two small records holds a %d-byte chunk, want %d", cap(m.chunk), firstChunk)
	}
	// Fill past one chunk so later records live in a fresh chunk.
	for k := 0; k < 2*memChunk/maxChunked; k++ {
		appendRec(maxChunked-k, byte(k))
	}
	appendRec(maxChunked+1, 9) // oversized: its own allocation
	appendRec(7, 3)
	check("after spill")
	// A reader appending to a replayed payload must not clobber the next one.
	if err := m.Replay(func(r Record) error {
		if r.LSN == 1 {
			_ = append(r.Payload, 0xAA, 0xAA, 0xAA)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("after reader append")
}

// TestMemAppendAllocs pins Mem.Append's amortized cost for record-sized
// payloads: one chunk per 64 KiB of payload (after the first doublings) plus
// the record slice's growth.
func TestMemAppendAllocs(t *testing.T) {
	m := NewMem()
	payload := make([]byte, 200)
	if n := testing.AllocsPerRun(10000, func() {
		if _, err := m.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}); n >= 1 {
		t.Fatalf("Mem.Append made %v allocations per record, want < 1 amortized", n)
	}
}

// BenchmarkWALAppend is the host-time layer benchmark of the in-memory WAL:
// one commit-record-sized append per iteration. A fresh log every 4,096
// records keeps memory bounded and charges each record its share of the
// record list's growth.
func BenchmarkWALAppend(b *testing.B) {
	var m *Mem
	payload := make([]byte, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			m = NewMem()
		}
		if _, err := m.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}
