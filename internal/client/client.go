// Package client implements LibFS, the SwitchFS user-space client library
// (paper §4.2): path resolution over a directory-metadata cache with lazy
// invalidation, request routing by consistent hashing, switch-mediated
// directory reads, and UDP-style retransmission.
package client

import (
	"errors"
	"strings"
	"sync"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/server"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Config parameterizes a client.
type Config struct {
	ID env.NodeID
	// Ring is the shared versioned placement ring; a control-plane override
	// (directory migration) re-routes this client's next attempt without any
	// client-side notification — the ErrRetry from the old owner re-resolves
	// against the updated ring.
	Ring      *ring.Ring
	SwitchFor func(core.Fingerprint) env.NodeID
	// Coordinator handles rename and link.
	Coordinator env.NodeID
	Tracker     server.TrackerMode
	Costs       env.Costs
	// RetryTimeout and MaxRetries bound request retransmission.
	RetryTimeout env.Duration
	MaxRetries   int
	// DataRetryTimeout and DataMaxRetries bound data-node retransmission.
	// Zero values derive from RetryTimeout: data accesses queue behind
	// hundreds of microseconds of I/O plus a replication round, so the
	// data timeout scales the configured metadata timeout up rather than
	// ignoring it.
	DataRetryTimeout env.Duration
	DataMaxRetries   int
	// Trace records causal spans for this client's operations (nil: off).
	// Each op entry point opens a root span; retransmission rounds and
	// lookups nest under it, and the op's TraceCtx travels in every packet
	// the op sends. Ops that fail or exhaust their retries are flagged so
	// tail sampling always keeps them.
	Trace *trace.Recorder
}

// Client is one LibFS instance bound to an env node.
type Client struct {
	cfg  Config
	env  env.Env
	node *env.Node

	mu        sync.Mutex //detlint:ignore rawgo -- Real-mode guard for the name cache; leaf section, never held across a park
	cache     map[string]cachedDir
	byID      map[core.DirID][]string
	invalSeen map[env.NodeID]uint64
	rpcSeq    uint64
	pending   map[uint64]*env.Future

	// Stats observable by harnesses.
	Lookups    uint64
	CacheHits  uint64
	Retries    uint64
	StaleRetry uint64
}

type cachedDir struct {
	ref  core.DirRef
	attr core.Attr
}

// New builds a client and registers its node. Clients have unlimited cores:
// client CPU is never the bottleneck in the paper's evaluation.
func New(e env.Env, cfg Config) *Client {
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 2 * env.Millisecond
	}
	if cfg.MaxRetries == 0 {
		// Must outlast the worst-case server-side stall: an aggregation
		// participant holds a change-log lock for up to 100 retransmission
		// rounds before giving up (§5.4.1 recovery interplay).
		cfg.MaxRetries = 250
	}
	if cfg.DataRetryTimeout == 0 {
		cfg.DataRetryTimeout = 20 * cfg.RetryTimeout
	}
	if cfg.DataMaxRetries == 0 {
		cfg.DataMaxRetries = 8
	}
	// Maps are allocated lazily at their first write: nil-map reads are
	// valid Go, and at million-client scale an idle session's four empty
	// maps (cache, byID, invalSeen, pending) would dominate its footprint.
	c := &Client{cfg: cfg, env: e}
	c.node = e.AddNode(cfg.ID, env.NodeConfig{Handler: c.handle})
	return c
}

// ID returns the client's node id.
func (c *Client) ID() env.NodeID { return c.cfg.ID }

// handle completes pending calls with arriving responses.
func (c *Client) handle(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	rpc, rc := respInfo(pkt.Body)
	if rc != nil {
		c.applyInval(from, rc)
	}
	c.mu.Lock()
	fut := c.pending[rpc]
	c.mu.Unlock()
	if fut != nil {
		fut.Complete(pkt.Body)
	}
}

// respInfo extracts the rpc id and common fields from any response body.
func respInfo(m wire.Msg) (uint64, *wire.RespCommon) {
	switch b := m.(type) {
	case *wire.LookupResp:
		return b.RPC, &b.RespCommon
	case *wire.MutateResp:
		return b.RPC, &b.RespCommon
	case *wire.FileResp:
		return b.RPC, &b.RespCommon
	case *wire.DirReadResp:
		return b.RPC, &b.RespCommon
	case *wire.RenameResp:
		return b.RPC, &b.RespCommon
	case *wire.LinkResp:
		return b.RPC, &b.RespCommon
	case *wire.DataResp:
		return b.RPC, &b.RespCommon
	default:
		return 0, nil
	}
}

// applyInval drops cache entries named by piggybacked invalidation records
// (lazy invalidation, §5.2).
func (c *Client) applyInval(from env.NodeID, rc *wire.RespCommon) {
	if len(rc.Inval) == 0 {
		c.mu.Lock()
		c.noteInvalSeq(from, rc.InvalSeqHigh)
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	for _, e := range rc.Inval {
		for _, path := range c.byID[e.Dir] {
			delete(c.cache, path)
		}
		delete(c.byID, e.Dir)
	}
	c.noteInvalSeq(from, rc.InvalSeqHigh)
	c.mu.Unlock()
}

// noteInvalSeq records the highest invalidation sequence seen from a server,
// allocating the map on first write (callers hold c.mu).
func (c *Client) noteInvalSeq(from env.NodeID, seq uint64) {
	if seq > c.invalSeen[from] {
		if c.invalSeen == nil {
			c.invalSeen = make(map[env.NodeID]uint64)
		}
		c.invalSeen[from] = seq
	}
}

// invalidatePrefix drops every cached path at or under the given path
// (stale-cache retry). Matching is component-wise: invalidating /a drops
// /a and /a/b but not /ab — a raw string-prefix match would erase an
// unrelated sibling's cache entries.
func (c *Client) invalidatePrefix(prefix string) {
	c.mu.Lock()
	for path, e := range c.cache {
		if !underPath(path, prefix) {
			continue
		}
		delete(c.cache, path)
		paths := c.byID[e.ref.ID]
		for i, q := range paths {
			if q == path {
				c.byID[e.ref.ID] = append(paths[:i], paths[i+1:]...)
				break
			}
		}
		if len(c.byID[e.ref.ID]) == 0 {
			delete(c.byID, e.ref.ID)
		}
	}
	c.mu.Unlock()
}

// underPath reports whether path equals prefix or lies beneath it as a
// directory component (prefix "/" covers everything).
func underPath(path, prefix string) bool {
	for len(prefix) > 1 && prefix[len(prefix)-1] == '/' {
		prefix = prefix[:len(prefix)-1]
	}
	if prefix == "/" || path == prefix {
		return true
	}
	return len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/'
}

// ownerOfFP maps a fingerprint to its owner server node under the current
// ring (migration overrides included).
func (c *Client) ownerOfFP(fp core.Fingerprint) env.NodeID {
	return c.cfg.Ring.OwnerNode(fp)
}

// rpcCall is one request in flight: its body, the packet that carries it,
// and the Future its response completes, carved from one allocation.
type rpcCall[R any, PR interface {
	*R
	wire.Msg
}] struct {
	req R
	pkt wire.Packet
	fut env.Future
}

// newCall carves a call carrying req to dst, the packet's destination (its
// first hop, given to call, may be the switch).
func newCall[R any, PR interface {
	*R
	wire.Msg
}](c *Client, dst env.NodeID, req R) *rpcCall[R, PR] {
	rc := &rpcCall[R, PR]{req: req}
	rc.pkt = wire.Packet{Dst: dst, Origin: c.cfg.ID, Body: PR(&rc.req)}
	return rc
}

// call sends one request to hop and waits on fut for its response,
// retransmitting on timeout. resent reports whether any retransmission
// happened (at-least-once semantics for mutations).
func (c *Client) call(p *env.Proc, hop env.NodeID, pkt *wire.Packet, fut *env.Future, rpc uint64) (wire.Msg, bool, error) {
	c.mu.Lock()
	if c.pending == nil {
		c.pending = make(map[uint64]*env.Future)
	}
	c.pending[rpc] = fut
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, rpc)
		c.mu.Unlock()
	}()
	// Every (re)transmission carries the SAME context — the op span that is
	// ambient here — so a resent RPC joins its original trace and the
	// server-side spans of every delivery parent into one tree.
	pkt.Trace = p.TraceCtx()
	resent := false
	for try := 0; try < c.cfg.MaxRetries; try++ {
		att := c.cfg.Trace.Start(p, "attempt", "client")
		p.Send(hop, pkt)
		v, ok := fut.WaitTimeout(p, c.cfg.RetryTimeout)
		att.End()
		if ok {
			return v.(wire.Msg), resent, nil
		}
		resent = true
		c.Retries++
	}
	c.cfg.Trace.Flag(pkt.Trace.TraceID, "rpc-timeout")
	return nil, resent, core.ErrTimeout
}

// op opens a client root span for one operation entry point. With tracing
// off it returns nil (which every Handle method accepts) without building
// the span name.
func (c *Client) op(p *env.Proc, name string) *trace.Handle {
	if c.cfg.Trace == nil {
		return nil
	}
	return c.cfg.Trace.StartAuto(p, "op:"+name, "client")
}

// endOp closes an op span, flagging the trace when the op failed so tail
// sampling always keeps errored ops for forensics.
func (c *Client) endOp(sp *trace.Handle, err error) {
	if err != nil {
		c.cfg.Trace.Flag(sp.TraceID(), "client-error")
	}
	sp.End()
}

// nextRPC allocates a request id.
func (c *Client) nextRPC() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rpcSeq++
	return c.rpcSeq
}

// reqCommon stamps the shared request fields.
func (c *Client) reqCommon(rpc uint64, dst env.NodeID, ancestors []core.DirID) wire.ReqCommon {
	c.mu.Lock()
	seen := c.invalSeen[dst]
	c.mu.Unlock()
	return wire.ReqCommon{RPC: rpc, Client: c.cfg.ID, InvalSeq: seen, Ancestors: ancestors}
}

// resolved is the output of path resolution for one target.
type resolved struct {
	parent    core.DirRef
	name      string
	ancestors []core.DirID
	path      string
}

// resolve walks the path's directories through the cache (§5.2.1 step 1),
// issuing lookups on misses. It returns the parent DirRef and the leaf name.
func (c *Client) resolve(p *env.Proc, path string) (resolved, error) {
	comps, err := core.SplitPath(path)
	if err != nil {
		return resolved{}, err
	}
	if len(comps) == 0 {
		return resolved{}, core.ErrInvalid
	}
	cur := core.RootRef()
	ancestors := append(make([]core.DirID, 0, len(comps)), cur.ID)
	// A canonical path (no empty, "." or ".." components) is exactly its
	// components joined by slashes, so each walked prefix is a substring of
	// it; any other path builds its prefixes.
	n := 0
	for _, comp := range comps {
		n += 1 + len(comp)
	}
	canonical := n == len(path)
	walked := ""
	for _, comp := range comps[:len(comps)-1] {
		if canonical {
			walked = path[:len(walked)+1+len(comp)]
		} else {
			walked += "/" + comp
		}
		p.Compute(c.cfg.Costs.CacheLookup)
		c.mu.Lock()
		e, hit := c.cache[walked]
		c.mu.Unlock()
		if hit {
			c.CacheHits++
			cur = e.ref
			ancestors = append(ancestors, cur.ID)
			continue
		}
		ref, attr, err := c.lookupOne(p, cur, comp, ancestors)
		if err != nil {
			return resolved{}, err
		}
		c.mu.Lock()
		if c.cache == nil {
			c.cache = make(map[string]cachedDir)
			c.byID = make(map[core.DirID][]string)
		}
		// A substring key would pin the whole path it was cut from.
		key := strings.Clone(walked)
		c.cache[key] = cachedDir{ref: ref, attr: attr}
		c.byID[ref.ID] = append(c.byID[ref.ID], key)
		c.mu.Unlock()
		cur = ref
		ancestors = append(ancestors, cur.ID)
	}
	return resolved{parent: cur, name: comps[len(comps)-1], ancestors: ancestors, path: path}, nil
}

// lookupOne fetches one directory's metadata from its owner.
func (c *Client) lookupOne(p *env.Proc, parent core.DirRef, name string, ancestors []core.DirID) (core.DirRef, core.Attr, error) {
	c.Lookups++
	sp := c.cfg.Trace.Start(p, "lookup", "client")
	defer sp.End()
	key := core.Key{PID: parent.ID, Name: name}
	fp := key.Fingerprint()
	dst := c.ownerOfFP(fp)
	rpc := c.nextRPC()
	rc := newCall(c, dst, wire.LookupReq{ReqCommon: c.reqCommon(rpc, dst, ancestors), Parent: parent.ID, Name: name})
	v, _, err := c.call(p, dst, &rc.pkt, &rc.fut, rpc)
	if err != nil {
		return core.DirRef{}, core.Attr{}, err
	}
	resp := v.(*wire.LookupResp)
	if resp.Err != core.ErrnoOK {
		return core.DirRef{}, core.Attr{}, resp.Err.Err()
	}
	return core.DirRef{ID: resp.Dir, Key: key, FP: fp}, resp.Attr, nil
}

// withResolution runs fn with a resolved path, transparently refreshing the
// cache and retrying when a server reports the client's cached components
// stale (§5.2.1 "If invalid, ... invalidate stale cache entries and retry").
func (c *Client) withResolution(p *env.Proc, path string, fn func(r resolved) error) error {
	for attempt := 0; ; attempt++ {
		r, err := c.resolve(p, path)
		if err == nil {
			err = fn(r)
		}
		if errors.Is(err, core.ErrStaleCache) || errors.Is(err, core.ErrRetry) {
			if attempt >= 16 {
				return core.ErrTimeout
			}
			c.StaleRetry++
			c.invalidatePrefix("/")
			continue
		}
		return err
	}
}
