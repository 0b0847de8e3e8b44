// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// Two backends exist: an in-memory log (crash simulation under Sim, where
// "persistence" means surviving a modeled crash) and a file-backed log with
// length+CRC framing for the real daemons.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// LSN is a log sequence number: the position of a record, starting at 1.
type LSN uint64

// Record is one log entry.
type Record struct {
	LSN     LSN
	Kind    uint8
	Payload []byte
	// Applied marks asynchronous updates whose remote application has been
	// acknowledged; recovery skips them (§5.4.2).
	Applied bool
}

// Log is the interface both backends implement.
type Log interface {
	// Append durably adds a record and returns its LSN. The log keeps no
	// reference to payload, so the caller may reuse it.
	Append(kind uint8, payload []byte) (LSN, error)
	// MarkApplied durably marks the record at lsn as applied.
	MarkApplied(lsn LSN) error
	// Replay streams every record in order.
	Replay(fn func(r Record) error) error
	// Len returns the number of records.
	Len() int
	// Close releases resources.
	Close() error
}

// --- In-memory backend ---------------------------------------------------

// Mem is the in-memory log. It survives simulated crashes (the server's
// volatile structures are cleared; the Mem log is handed back to the
// restarted server), which models stable storage.
type Mem struct {
	mu      sync.Mutex
	records []Record
}

// NewMem creates an empty in-memory log.
func NewMem() *Mem { return &Mem{} }

// Append implements Log.
func (m *Mem) Append(kind uint8, payload []byte) (LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lsn := LSN(len(m.records) + 1)
	m.records = append(m.records, Record{
		LSN:     lsn,
		Kind:    kind,
		Payload: append([]byte(nil), payload...),
	})
	return lsn, nil
}

// MarkApplied implements Log.
func (m *Mem) MarkApplied(lsn LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn == 0 || int(lsn) > len(m.records) {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, len(m.records))
	}
	m.records[lsn-1].Applied = true
	return nil
}

// Replay implements Log.
func (m *Mem) Replay(fn func(r Record) error) error {
	m.mu.Lock()
	recs := make([]Record, len(m.records))
	copy(recs, m.records)
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Log.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Close implements Log.
func (m *Mem) Close() error { return nil }

// --- File backend ---------------------------------------------------------

// File is the file-backed log used by the UDP daemons. Records are framed as
//
//	u32 length | u8 kind | payload | u32 crc32(kind+payload)
//
// and applied-markers are separate marker frames (kind = markKind) carrying
// the LSN they mark, so marking needs no in-place rewrites.
type File struct {
	mu   sync.Mutex
	f    *os.File
	n    int
	path string
}

// markKind is reserved for applied markers; user kinds must stay below it.
const markKind = 0xFF

// MaxUserKind is the largest record kind callers may use.
const MaxUserKind = 0xFE

// OpenFile opens (creating if needed) a file-backed log.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &File{f: f, path: path}
	// Count existing records so new LSNs continue the sequence.
	err = w.replayRaw(func(kind uint8, payload []byte) error {
		if kind != markKind {
			w.n++
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append implements Log.
func (w *File) Append(kind uint8, payload []byte) (LSN, error) {
	if kind >= markKind {
		return 0, fmt.Errorf("wal: record kind %#x is reserved", kind)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeFrame(kind, payload); err != nil {
		return 0, err
	}
	w.n++
	return LSN(w.n), nil
}

// MarkApplied implements Log.
func (w *File) MarkApplied(lsn LSN) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(lsn))
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeFrame(markKind, buf[:])
}

func (w *File) writeFrame(kind uint8, payload []byte) error {
	frame := make([]byte, 0, 9+len(payload))
	frame = binary.BigEndian.AppendUint32(frame, uint32(1+len(payload)))
	frame = append(frame, kind)
	frame = append(frame, payload...)
	crc := crc32.ChecksumIEEE(frame[4:])
	frame = binary.BigEndian.AppendUint32(frame, crc)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	return w.f.Sync()
}

// Replay implements Log: it reconstructs records and their applied flags.
func (w *File) Replay(fn func(r Record) error) error {
	var recs []Record
	err := w.replayRaw(func(kind uint8, payload []byte) error {
		if kind == markKind {
			if len(payload) != 8 {
				return fmt.Errorf("wal: malformed applied marker")
			}
			lsn := LSN(binary.BigEndian.Uint64(payload))
			if lsn >= 1 && int(lsn) <= len(recs) {
				recs[lsn-1].Applied = true
			}
			return nil
		}
		recs = append(recs, Record{
			LSN:     LSN(len(recs) + 1),
			Kind:    kind,
			Payload: append([]byte(nil), payload...),
		})
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// replayRaw scans frames from the start of the file. A truncated or corrupt
// tail frame ends the scan cleanly (torn final write after a crash).
func (w *File) replayRaw(fn func(kind uint8, payload []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	defer w.f.Seek(0, io.SeekEnd)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return nil // torn tail
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > 1<<24 {
			return nil // corrupt tail
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(w.f, body); err != nil {
			return nil // torn tail
		}
		want := binary.BigEndian.Uint32(body[n:])
		if crc32.ChecksumIEEE(body[:n]) != want {
			return nil // corrupt tail
		}
		if err := fn(body[0], body[1:n]); err != nil {
			return err
		}
	}
}

// Len implements Log.
func (w *File) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Close implements Log.
func (w *File) Close() error { return w.f.Close() }

var _ Log = (*Mem)(nil)
var _ Log = (*File)(nil)
