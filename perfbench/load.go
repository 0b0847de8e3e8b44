package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/metrics"
	"switchfs/internal/trace"
	"switchfs/internal/wal"
	"switchfs/internal/workload"
)

// deployment is one freshly set-up cluster with its namespace preloaded.
type deployment struct {
	sim *env.Sim
	c   *cluster.Cluster
	rec *trace.Recorder
	// setup is the host time deploy and preload took.
	setup time.Duration
	// kvEntries counts the preloaded keys over all servers; preloadHeap is
	// the live-heap growth across the preload (measured only when asked, as
	// the forced collections it takes slow the set-up down).
	kvEntries   int
	preloadHeap int64
	// cpu, when non-nil, receives a CPU profile of the load window.
	cpu *bytes.Buffer
}

// deploy builds the paper's evaluation deployment (§7.1: eight four-core
// servers, one switch) with eight client nodes, and preloads the workload's
// namespace. rec, when non-nil, records every operation's spans.
func deploy(s *spec, simSeed int64, rec *trace.Recorder, measureHeap bool) *deployment {
	runtime.GC()
	t0 := time.Now()
	sim := env.NewSim(simSeed)
	c := cluster.New(sim, cluster.Options{
		Servers:        servers,
		CoresPerServer: cores,
		Clients:        clients,
		Costs:          env.DefaultCosts(),
		Trace:          rec,
	})
	var before int64
	if measureHeap {
		before = liveHeap()
	}
	s.ns.Preload(c)
	d := &deployment{sim: sim, c: c, rec: rec, setup: time.Since(t0)}
	if measureHeap {
		d.preloadHeap = liveHeap() - before
	}
	for _, srv := range c.Servers {
		d.kvEntries += srv.KV().Len()
	}
	return d
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// outcome is everything a load produces on the virtual clock. It is a pure
// function of the seed, so two same-seed loads must yield equal outcomes.
type outcome struct {
	ops, failed int
	// lat and class hold every load op's virtual latency (ns) and class,
	// worker-major.
	lat   []int64
	class []core.Op
	// dirRead holds the virtual latencies of the statdir and readdir calls
	// that count towards vlat_dirread_p99_us.
	dirRead []int64
	// drained is the virtual time from the first request until the drain
	// applied every deferred update.
	drained env.Duration
	// counters are the program's own counters after the drain.
	counters map[string]float64
	// lastLoadTrace is the highest trace id of a load op (traced loads
	// only); the probe's traces come after it.
	lastLoadTrace uint64
}

// hostCost is what one load cost on the host clock.
type hostCost struct {
	wall           time.Duration
	mallocs, bytes uint64
	liveHeap       int64
}

// runLoad drives the closed loop: every worker sends its program's ops one
// after another, each waiting for the previous reply. After the last reply
// the change-log backlog is sampled, the optional dir-read probe runs, and
// the cluster is drained. Output checks that can be made per op fail the
// load on the first mismatch.
func runLoad(d *deployment, s *spec, prog [][]workload.OpCall, want map[string]int64) (outcome, hostCost, error) {
	var out outcome
	n := 0
	for _, ops := range prog {
		n += len(ops)
	}
	out.lat = make([]int64, n)
	out.class = make([]core.Op, n)
	var checkErr, firstFail error
	done := 0
	allDone := env.NewFuture()
	start := d.sim.Now()
	var drainedAt env.Time
	var pending int
	var lastLoadTrace uint64
	off := 0
	for w, ops := range prog {
		ops, base := ops, off
		off += len(ops)
		fs := d.c.ClientFS(w % clients)
		d.c.SpawnClient(w%clients, func(p *env.Proc) {
			for i, call := range ops {
				t0 := p.Now()
				res, err := apply(p, fs, call)
				out.lat[base+i] = int64(p.Now() - t0)
				out.class[base+i] = call.Op
				if err != nil {
					if out.failed++; firstFail == nil {
						firstFail = fmt.Errorf("%s %s: %w", call.Op, call.Path, err)
					}
				} else if s.check != nil && checkErr == nil {
					checkErr = s.check(call, res)
				}
				if call.Op.DirRead() {
					out.dirRead = append(out.dirRead, out.lat[base+i])
				}
			}
			if done++; done == len(prog) {
				allDone.Complete(nil)
			}
		})
	}
	d.c.SpawnClient(0, func(p *env.Proc) {
		allDone.Wait(p)
		for _, srv := range d.c.Servers {
			pending += srv.PendingClogEntries()
		}
		if ids := d.rec.KeptTraces(); len(ids) > 0 {
			lastLoadTrace = ids[len(ids)-1]
		}
		if s.probe {
			lat, err := probe(p, d.c, s, want)
			out.dirRead = lat
			if err != nil && checkErr == nil {
				checkErr = err
			}
		}
		d.c.Drain(p)
		drainedAt = p.Now()
	})

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if d.cpu != nil {
		if err := pprof.StartCPUProfile(d.cpu); err != nil {
			return out, hostCost{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	d.sim.Run()
	wall := time.Since(t0)
	if d.cpu != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	host := hostCost{wall: wall, mallocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc}
	host.liveHeap = liveHeap()

	if done != len(prog) || drainedAt == 0 {
		return out, host, fmt.Errorf("%s: %d/%d workers finished before the simulation went idle", s.name, done, len(prog))
	}
	out.ops = n
	if firstFail != nil {
		return out, host, fmt.Errorf("%s: %d ops failed, first %w", s.name, out.failed, firstFail)
	}
	if checkErr != nil {
		return out, host, fmt.Errorf("%s: %w", s.name, checkErr)
	}
	out.drained = drainedAt - start
	out.counters = counters(d, pending)
	out.lastLoadTrace = lastLoadTrace
	return out, host, nil
}

// apply performs one operation through the fsapi surface the workload package
// and the figures use.
func apply(p *env.Proc, fs fsapi.FS, call workload.OpCall) (opOutput, error) {
	var out opOutput
	var err error
	switch call.Op {
	case core.OpCreate:
		err = fs.Create(p, call.Path)
	case core.OpDelete:
		err = fs.Delete(p, call.Path)
	case core.OpMkdir:
		err = fs.Mkdir(p, call.Path)
	case core.OpRmdir:
		err = fs.Rmdir(p, call.Path)
	case core.OpStat:
		out.attr, err = fs.Stat(p, call.Path)
	case core.OpOpen:
		out.attr, err = fs.Open(p, call.Path)
	case core.OpClose:
		err = fs.Close(p, call.Path)
	case core.OpChmod:
		err = fs.Chmod(p, call.Path, core.DefaultFilePerm)
	case core.OpStatDir:
		out.attr, err = fs.StatDir(p, call.Path)
	case core.OpReadDir:
		var es []core.DirEntry
		es, err = fs.ReadDir(p, call.Path)
		out.entries = len(es)
	case core.OpRename:
		err = fs.Rename(p, call.Path, call.Path2)
	default:
		err = fmt.Errorf("op %s is not part of any benchmark workload", call.Op)
	}
	return out, err
}

// probe reads every namespace directory from every client node at once
// while the load's updates are still deferred: each read must already
// reflect every acknowledged update.
func probe(p *env.Proc, c *cluster.Cluster, s *spec, want map[string]int64) ([]int64, error) {
	var lat []int64
	var firstErr error
	futs := make([]*env.Future, clients)
	for i := range futs {
		fut := env.NewFuture()
		futs[i] = fut
		fs := c.ClientFS(i)
		c.SpawnClient(i, func(p *env.Proc) {
			l, err := readDirs(p, fs, s.ns.Dirs, want)
			lat = append(lat, l...)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("probe: %w", err)
			}
			fut.Complete(nil)
		})
	}
	for _, fut := range futs {
		fut.Wait(p)
	}
	return lat, firstErr
}

// readDirs makes a statdir and a readdir of each directory, checks the
// size and entry count against want, and returns the reads' latencies. It
// stops at the first mismatch or failure.
func readDirs(p *env.Proc, fs fsapi.FS, dirs []string, want map[string]int64) ([]int64, error) {
	var lat []int64
	for _, dir := range dirs {
		for _, op := range []core.Op{core.OpStatDir, core.OpReadDir} {
			t0 := p.Now()
			out, err := apply(p, fs, workload.OpCall{Op: op, Path: dir})
			lat = append(lat, int64(p.Now()-t0))
			got := out.attr.Size
			if op == core.OpReadDir {
				got = int64(out.entries)
			}
			if err == nil && got != want[dir] {
				err = fmt.Errorf("%d entries, want %d", got, want[dir])
			}
			if err != nil {
				return lat, fmt.Errorf("%s %s: %w", op, dir, err)
			}
		}
	}
	return lat, nil
}

// expectedEntries returns each namespace directory's entry count once every
// operation of prog is acknowledged: its preload plus the net of the
// program's creates, deletes, mkdirs and renames.
func expectedEntries(s *spec, prog [][]workload.OpCall) map[string]int64 {
	want := make(map[string]int64, len(s.ns.Dirs))
	for _, dir := range s.ns.Dirs {
		want[dir] = int64(s.ns.FilesPerDir)
	}
	for _, ops := range prog {
		for _, call := range ops {
			netEntries(want, call)
		}
	}
	return want
}

// verify checks, after the drain, that every namespace directory's statdir
// size and readdir length equal the expected entry count.
func verify(d *deployment, s *spec, want map[string]int64) error {
	var err error
	d.c.Run(0, func(p *env.Proc, _ *client.Client) {
		_, err = readDirs(p, d.c.ClientFS(0), s.ns.Dirs, want)
	})
	if err != nil {
		return fmt.Errorf("%s after drain: %w", s.name, err)
	}
	return nil
}

// counters reads the program's public counters after a drained load.
func counters(d *deployment, pending int) map[string]float64 {
	reg := metrics.New()
	d.c.FillMetrics(reg)
	sum := map[string]float64{}
	var maxOps float64
	for key, v := range reg.Snapshot() {
		// Sum "<plane>.<index>.<counter>" over the index; skip the
		// per-directory tallies ("server.<i>.dir.<rank>.ops").
		parts := strings.SplitN(key, ".", 3)
		if len(parts) != 3 || strings.Contains(parts[2], ".") {
			continue
		}
		if _, err := strconv.Atoi(parts[1]); err != nil {
			continue
		}
		sum[parts[0]+"."+parts[2]] += float64(v)
		if parts[0] == "server" && parts[2] == "ops" {
			maxOps = max(maxOps, float64(v))
		}
	}
	if ops := sum["server.ops"]; ops > 0 {
		sum["server.load_imbalance"] = maxOps / (ops / float64(len(d.c.Servers)))
	}
	var records, bytes int
	for _, srv := range d.c.Servers {
		records += srv.WAL().Len()
		// The callback never fails, so neither can Replay.
		_ = srv.WAL().Replay(func(r wal.Record) error {
			bytes += len(r.Payload)
			return nil
		})
	}
	sum["wal.records"] = float64(records)
	sum["wal.bytes"] = float64(bytes)
	sum["env.delivered"] = float64(d.sim.Delivered)
	sum["env.dropped"] = float64(d.sim.Dropped)
	sum["env.workers"] = float64(d.sim.WorkerCount())
	sum["core.clog_pending"] = float64(pending)
	sum["kv.entries"] = float64(d.kvEntries)
	return sum
}
