package main

import (
	"strings"
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/trace"
)

// sp builds a span of trace 1.
func sp(id, parent uint64, cat, name string, start, end env.Time) trace.Span {
	return trace.Span{Trace: 1, ID: id, Parent: parent, Cat: cat, Name: name, Start: start, End: end}
}

// attributeOne runs the attribution over one trace and checks the identity
// against the root's own duration.
func attributeOne(t *testing.T, spans []trace.Span) critPath {
	t.Helper()
	var cp critPath
	if err := cp.attribute(spans); err != nil {
		t.Fatal(err)
	}
	var root trace.Span
	for _, s := range spans {
		if s.Parent == 0 {
			root = s
		}
	}
	if err := cp.check(1, int64(root.Dur())); err != nil {
		t.Fatal(err)
	}
	return cp
}

func wantLayers(t *testing.T, cp critPath, want map[layer]int64, offPath int64) {
	t.Helper()
	for l := layer(0); l < numLayers; l++ {
		if cp.onPath[l] != want[l] {
			t.Errorf("%s = %d ns, want %d", layerMetrics[l], cp.onPath[l], want[l])
		}
	}
	if cp.offPath != offPath {
		t.Errorf("off-path = %d ns, want %d", cp.offPath, offPath)
	}
}

// The client stamps requests with the op span, so the server handler is a
// sibling of the attempt span that waits for its reply. The overlap must be
// charged once, to the handler and what runs beneath it.
func TestCritPathOverlappingSiblings(t *testing.T) {
	cp := attributeOne(t, []trace.Span{
		sp(1, 0, "client", "op:create", 0, 100),
		sp(2, 1, "client", "attempt", 0, 100),
		sp(3, 1, "server", "mutate", 30, 70),
		sp(4, 3, "server", "commit:async", 40, 60),
		sp(5, 4, "server", "wal:commit", 45, 50),
		sp(6, 4, "switch", "switch:insert", 55, 58),
	})
	wantLayers(t, cp, map[layer]int64{
		layerWire:   60, // 0-30 and 70-100
		layerMutate: 20, // 30-40 and 60-70
		layerCommit: 12, // 40-45, 50-55 and 58-60
		layerWAL:    5,
		layerSwitch: 3,
	}, 0)
	if cp.attempts != 1 {
		t.Errorf("attempts = %d, want 1", cp.attempts)
	}
}

// Work that outlives the reply is off the critical path; only its part
// inside the root interval is charged.
func TestCritPathChildOutlivesRoot(t *testing.T) {
	cp := attributeOne(t, []trace.Span{
		sp(1, 0, "client", "op:create", 0, 50),
		sp(2, 1, "client", "attempt", 0, 50),
		sp(3, 1, "server", "mutate", 10, 40),
		sp(4, 3, "server", "commit:async", 20, 80),
		sp(5, 4, "server", "wal:commit", 60, 70),
		sp(6, 4, "server", "push", 90, 95),
	})
	wantLayers(t, cp, map[layer]int64{
		layerWire:   10, // 0-10
		layerMutate: 10, // 10-20
		layerCommit: 30, // 20-50, deeper than the attempt after mutate ends
	}, 30+5) // 50-80 under the commit and 90-95 under the push; 80-90 is idle
}

// Zero-length spans take no time, and a zero-length root charges nothing.
func TestCritPathZeroLength(t *testing.T) {
	cp := attributeOne(t, []trace.Span{
		sp(1, 0, "client", "op:stat", 0, 20),
		sp(2, 1, "client", "attempt", 0, 20),
		sp(3, 1, "switch", "switch:query", 5, 5),
		sp(4, 1, "server", "file", 10, 10),
	})
	wantLayers(t, cp, map[layer]int64{layerWire: 20}, 0)

	cp = attributeOne(t, []trace.Span{sp(1, 0, "client", "op:stat", 7, 7)})
	wantLayers(t, cp, nil, 0)
}

// Path resolution claims the lookup span and everything beneath it, and a
// server control message belongs to the server span that sent it.
func TestCritPathLookupAndCtl(t *testing.T) {
	cp := attributeOne(t, []trace.Span{
		sp(1, 0, "client", "op:rename", 0, 100),
		sp(2, 1, "client", "lookup", 0, 20),
		sp(3, 2, "client", "attempt", 0, 20),
		sp(4, 2, "server", "lookup", 5, 15),
		sp(5, 1, "client", "attempt", 20, 100),
		sp(6, 1, "server", "rename", 30, 90),
		sp(7, 6, "server", "ctl", 40, 50),
		sp(8, 7, "server", "wal:txn-prepare", 42, 44),
	})
	wantLayers(t, cp, map[layer]int64{
		layerLookup: 20,
		layerWire:   20, // 20-30 and 90-100
		layerTxn:    58, // rename 30-90 less the WAL append
		layerWAL:    2,
	}, 0)
}

func TestCritPathErrors(t *testing.T) {
	cases := map[string][]trace.Span{
		"no layer": {
			sp(1, 0, "client", "op:create", 0, 10),
			sp(2, 1, "server", "mystery", 2, 4),
		},
		"parent 9 missing": {
			sp(1, 0, "client", "op:create", 0, 10),
			sp(2, 9, "server", "mutate", 2, 4),
		},
		"no root span": {
			sp(2, 3, "server", "mutate", 2, 4),
			sp(3, 2, "server", "mutate", 2, 4),
		},
	}
	for want, spans := range cases {
		var cp critPath
		err := cp.attribute(spans)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got error %v", want, err)
		}
	}
}

// The identity check compares layers, root spans and timed latencies.
func TestCritPathCheck(t *testing.T) {
	var cp critPath
	spans := []trace.Span{
		sp(1, 0, "client", "op:stat", 0, 10),
		sp(2, 1, "server", "file", 2, 6),
	}
	other := sp(3, 0, "client", "op:stat", 5, 12)
	other.Trace = 2
	if err := cp.attribute(append(spans, other)); err != nil {
		t.Fatal(err)
	}
	if err := cp.check(2, 17); err != nil {
		t.Fatal(err)
	}
	if err := cp.check(2, 18); err == nil {
		t.Error("check accepted a latency sum the root spans do not match")
	}
	if err := cp.check(3, 17); err == nil {
		t.Error("check accepted a wrong op count")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "switchfs/internal/core.(*ChangeLog).Snapshot", "switchfs/internal/server.(*Server).handle"}, "core"},
		{[]string{"switchfs/internal/server.(*Server).handle.func1"}, "server"},
		{[]string{"switchfs/internal/stats.(*Hist).Add"}, "other"},
		{[]string{"sort.Slice", "main.pct"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime.other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
