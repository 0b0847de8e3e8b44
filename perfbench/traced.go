package main

import (
	"bytes"
	"fmt"

	"switchfs/internal/core"
	"switchfs/internal/trace"
)

// clientOps are the op classes with per-class client metrics; a class a
// workload sends fewer than minClassOps times reports zero percentiles.
var clientOps = []core.Op{
	core.OpCreate, core.OpDelete, core.OpRename, core.OpStat,
	core.OpOpen, core.OpClose, core.OpStatDir, core.OpReadDir,
}

const minClassOps = 1000

// tracedRun makes one more run of the first load with every op traced and
// the host CPU and allocation profiles on, and reports the per-layer metrics
// of that load. The traced load must reproduce the untraced outcome exactly.
func tracedRun(s *spec, l load, reps []rep, res *result) error {
	o := reps[0].out
	ops := float64(o.ops)

	// Keep every trace of the load, the probe and the check, so tail
	// sampling never discards one.
	rec := trace.New(trace.Config{Keep: o.ops + len(o.dirRead) + 2*len(s.ns.Dirs)})
	d := deploy(s, l.simSeed, rec, true)
	defer d.sim.Shutdown()
	d.cpu = &bytes.Buffer{}
	before := takeAllocSnapshot()
	tout, thost, err := runLoad(d, s, l.prog, l.want)
	after := takeAllocSnapshot()
	var load []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Trace <= tout.lastLoadTrace {
			load = append(load, sp)
		}
	}
	if err == nil {
		err = verify(d, s, l.want)
	}
	if err != nil {
		return fmt.Errorf("traced load: %w", err)
	}
	if !sameOutcome(o, tout) {
		return fmt.Errorf("%s: tracing changed the virtual-time outcome", s.name)
	}
	if rec.DroppedTraces > 0 {
		return fmt.Errorf("%s: recorder refused %d traces", s.name, rec.DroppedTraces)
	}

	var cp critPath
	if err := cp.attribute(load); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	var latSum int64
	for _, l := range o.lat {
		latSum += l
	}
	if err := cp.check(o.ops, latSum); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	p := pool(reps)
	put("client.vlat_samples", "count", float64(len(p.lat)))
	put("client.vlat_p99_us", "us", pct(p.lat, 0.99)/1e3)
	for _, op := range clientOps {
		var lat []int64
		for i, c := range p.class {
			if c == op {
				lat = append(lat, p.lat[i])
			}
		}
		p50, p99 := 0.0, 0.0
		if len(lat) >= minClassOps {
			p50, p99 = pct(lat, 0.50)/1e3, pct(lat, 0.99)/1e3
		}
		put("client."+op.String()+".vlat_p50_us", "us", p50)
		put("client."+op.String()+".vlat_p99_us", "us", p99)
	}
	put("client.attempts_per_op", "count", float64(cp.attempts)/ops)
	put("client.op_error_ratio", "ratio", float64(p.failed)/float64(p.ops))
	put("client.vlat_mean_us", "us", float64(latSum)/ops/1e3)
	for l, name := range layerMetrics {
		put(name, "us", float64(cp.onPath[l])/ops/1e3)
	}
	put("server.offpath_us", "us", float64(cp.offPath)/ops/1e3)

	c := o.counters
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put("env.packets_per_op", "count", c["env.delivered"]/ops)
	put("env.dropped_per_op", "count", c["env.dropped"]/ops)
	put("env.workers_peak", "count", c["env.workers"])
	put("pswitch.inserts_per_op", "count", c["switch.inserts"]/ops)
	put("pswitch.queries_per_op", "count", c["switch.queries"]/ops)
	put("pswitch.removes_per_op", "count", c["switch.removes"]/ops)
	put("pswitch.overflow_ratio", "ratio", ratio(c["switch.overflows"], c["switch.inserts"]))
	commits := c["server.async_commits"] + c["server.sync_commits"] + c["server.fallbacks"]
	put("server.async_ratio", "ratio", ratio(c["server.async_commits"], commits))
	put("server.retries_per_op", "count", c["server.retries"]/ops)
	put("server.load_imbalance", "ratio", c["server.load_imbalance"])
	put("server.aggs_per_op", "count", c["server.aggregations"]/ops)
	put("server.agg_batch", "count", ratio(c["server.agg_entries"], c["server.aggregations"]))
	put("server.pushes_per_op", "count", c["server.pushes"]/ops)
	put("wal.records_per_op", "count", c["wal.records"]/ops)
	put("wal.bytes_per_op", "B", c["wal.bytes"]/ops)
	put("kv.entries", "count", c["kv.entries"])
	put("kv.bytes_per_entry", "B", ratio(float64(d.preloadHeap), c["kv.entries"]))
	put("core.clog_pending", "count", c["core.clog_pending"])

	cpu, err := cpuByBucket(d.cpu.Bytes())
	if err != nil {
		return err
	}
	alloc := allocByBucket(before, after)
	var cpuTotal, allocTotal float64
	for _, b := range hostBuckets {
		cpuTotal += cpu[b]
		allocTotal += alloc[b]
	}
	bytesPerOp := float64(thost.bytes) / ops
	for _, b := range hostBuckets {
		put(b+".host_cpu_share", "ratio", ratio(cpu[b], cpuTotal))
		put(b+".host_alloc_bytes_per_op", "B", ratio(alloc[b], allocTotal)*bytesPerOp)
	}
	put("trace.overhead_ratio", "ratio", rep{out: tout, host: thost}.usPerOp()/median(reps, rep.usPerOp))
	return nil
}
