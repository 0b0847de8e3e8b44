package main

import (
	"fmt"
	"sort"
	"strings"

	"switchfs/internal/env"
	"switchfs/internal/trace"
)

// layer is one critical-path bucket of an operation's virtual latency.
type layer int

const (
	layerWire   layer = iota // client span self time: wire and queueing before a handler
	layerLookup              // path resolution: a client lookup and everything beneath it
	layerSwitch              // switch pipe traversals
	layerMutate              // server mutate handler, including the core-queue wait
	layerCommit              // async/sync commit and its acks and fallbacks
	layerWAL                 // WAL appends
	layerRead                // server lookup, file and dirread handlers
	layerAgg                 // aggregation and change-log pushes
	layerTxn                 // rename/link coordination and 2PC rounds
	numLayers
)

// layerMetrics names each layer's per-op metric.
var layerMetrics = [numLayers]string{
	layerWire:   "client.cp_wire_us",
	layerLookup: "client.cp_lookup_us",
	layerSwitch: "pswitch.cp_us",
	layerMutate: "server.cp_mutate_us",
	layerCommit: "server.cp_commit_us",
	layerWAL:    "wal.cp_us",
	layerRead:   "server.cp_read_us",
	layerAgg:    "server.cp_agg_us",
	layerTxn:    "server.cp_txn_us",
}

// serverLayers maps server span names (handler message names and in-handler
// annotations) to layers.
var serverLayers = map[string]layer{
	"mutate":       layerMutate,
	"commit:async": layerCommit,
	"commit:sync":  layerCommit,
	"commit-ack":   layerCommit,
	"fallback":     layerCommit,
	"lookup":       layerRead,
	"file":         layerRead,
	"dirread":      layerRead,
	"agg:run":      layerAgg,
	"agg:fetch":    layerAgg,
	"agg:entries":  layerAgg,
	"agg:ack":      layerAgg,
	"push":         layerAgg,
	"push-ack":     layerAgg,
	"rename":       layerTxn,
	"link":         layerTxn,
	"txn:run":      layerTxn,
	"txn:prepare":  layerTxn,
	"txn:decision": layerTxn,
	"txn:vote":     layerTxn,
	"txn:done":     layerTxn,
}

// critPath accumulates the attribution of many operations, in integer
// virtual nanoseconds.
type critPath struct {
	ops int
	// total sums the root spans' durations; onPath sums to it exactly.
	total  int64
	onPath [numLayers]int64
	// offPath sums the time an op's spans keep running after its root ended.
	offPath  int64
	attempts int
}

// attribute folds every trace in spans into cp. Each instant of an op's root
// interval is charged to exactly one span — the innermost active one: the
// deepest in the span tree, ties going to the latest start, then the higher
// span id. That resolves the shape the client emits, where a server handler
// runs as a sibling of the client's attempt span that is still waiting for
// its reply, without counting the overlap twice. Instants after the root
// ends that some span still covers count as off-path.
func (cp *critPath) attribute(spans []trace.Span) error {
	byTrace := map[uint64][]trace.Span{}
	var ids []uint64
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			ids = append(ids, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := cp.attributeTrace(byTrace[id]); err != nil {
			return fmt.Errorf("trace %d: %w", id, err)
		}
	}
	return nil
}

func (cp *critPath) attributeTrace(spans []trace.Span) error {
	root := -1
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent == 0 {
			if root >= 0 {
				return fmt.Errorf("two root spans")
			}
			root = i
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if root < 0 {
		return fmt.Errorf("no root span")
	}
	depth := make([]int, len(spans))
	layers := make([]layer, len(spans))
	for i, s := range spans {
		l, d, err := classify(spans, byID, i)
		if err != nil {
			return fmt.Errorf("%w (ancestors: %s)", err, ancestry(spans, byID, i))
		}
		depth[i], layers[i] = d, l
		if s.Cat == "client" && s.Name == "attempt" {
			cp.attempts++
		}
	}

	r := spans[root]
	points := make([]env.Time, 0, 2*len(spans))
	for _, s := range spans {
		points = append(points, max(s.Start, r.Start), max(s.End, r.Start))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for k := 0; k+1 < len(points); k++ {
		a, b := points[k], points[k+1]
		if a == b {
			continue
		}
		best := -1
		for i, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			if best < 0 || inner(spans, depth, i, best) {
				best = i
			}
		}
		switch {
		case best < 0:
		case b <= r.End:
			cp.onPath[layers[best]] += int64(b - a)
		default:
			cp.offPath += int64(b - a)
		}
	}
	cp.ops++
	cp.total += int64(r.End - r.Start)
	return nil
}

// ancestry names span i's ancestors, innermost first, for error messages.
func ancestry(spans []trace.Span, byID map[uint64]int, i int) string {
	var names []string
	for p, ok := byID[spans[i].Parent]; ok && len(names) <= len(spans); p, ok = byID[spans[p].Parent] {
		names = append(names, spans[p].Cat+":"+spans[p].Name)
	}
	return strings.Join(names, " < ")
}

// inner reports whether span i is more inner than span j.
func inner(spans []trace.Span, depth []int, i, j int) bool {
	if depth[i] != depth[j] {
		return depth[i] > depth[j]
	}
	if spans[i].Start != spans[j].Start {
		return spans[i].Start > spans[j].Start
	}
	return spans[i].ID > spans[j].ID
}

// classify returns span i's layer and its depth in the span tree. Path
// resolution claims a client lookup span and everything beneath it. A server
// "ctl" handler (the name the server gives its control messages: inode
// reads, directory scans, invalidations) belongs to the server span that
// sent it. A span no layer claims is an error: dropping it would break the
// sum.
func classify(spans []trace.Span, byID map[uint64]int, i int) (layer, int, error) {
	var chain []int // i and its ancestors, innermost first
	for j := i; ; {
		chain = append(chain, j)
		if spans[j].Parent == 0 {
			break
		}
		p, ok := byID[spans[j].Parent]
		if !ok {
			return 0, 0, fmt.Errorf("span %d (%s): parent %d missing", spans[j].ID, spans[j].Name, spans[j].Parent)
		}
		if len(chain) > len(spans) {
			return 0, 0, fmt.Errorf("span %d (%s): parent cycle", spans[i].ID, spans[i].Name)
		}
		j = p
	}
	depth := len(chain) - 1
	for _, j := range chain {
		if spans[j].Cat == "client" && spans[j].Name == "lookup" {
			return layerLookup, depth, nil
		}
	}
	for _, j := range chain {
		s := spans[j]
		switch {
		case s.Cat == "client":
			return layerWire, depth, nil
		case s.Cat == "switch":
			return layerSwitch, depth, nil
		case s.Cat == "server" && strings.HasPrefix(s.Name, "wal:"):
			return layerWAL, depth, nil
		case s.Cat == "server" && s.Name == "ctl":
			continue
		case s.Cat == "server":
			if l, ok := serverLayers[s.Name]; ok {
				return l, depth, nil
			}
		}
		return 0, 0, fmt.Errorf("span %d: no layer for %s:%s", spans[i].ID, s.Cat, s.Name)
	}
	return 0, 0, fmt.Errorf("span %d: no layer for %s:%s", spans[i].ID, spans[i].Cat, spans[i].Name)
}

// check asserts the identity the layer metrics rest on: the layers add up to
// the summed root durations, which equal the summed benchmark-timed
// latencies of the same ops.
func (cp *critPath) check(ops int, latSum int64) error {
	var sum int64
	for _, v := range cp.onPath {
		sum += v
	}
	switch {
	case cp.ops != ops:
		return fmt.Errorf("critical path: %d traced ops, want %d", cp.ops, ops)
	case cp.total != latSum:
		return fmt.Errorf("critical path: root spans sum to %d ns, timed latencies to %d ns", cp.total, latSum)
	case sum != cp.total:
		return fmt.Errorf("critical path: layers sum to %d ns, root spans to %d ns", sum, cp.total)
	}
	return nil
}
