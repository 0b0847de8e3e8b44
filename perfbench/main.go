// Command perfbench is the repository's benchmark. It runs a closed-loop
// load of 256 virtual clients on the deterministic simulator against the
// paper's deployment (8 servers × 4 cores, 1 switch, 8 client nodes) and
// reports two clocks: virtual time, which measures the modelled filesystem,
// and host time, which measures what the simulator spends to produce it.
//
//	perfbench --workload hotdir-create --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats set-up and load until --seconds have passed and
// prints the end-to-end metrics; with --trace 1 it adds one traced and
// profiled load and prints the per-layer metrics. The last line of standard
// output is the result object. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"

	"switchfs/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "hotdir-create, skewed-mixed or uniform-read")
	seed := fl.Int64("seed", 1, "input seed; the simulation and generator seeds derive from it")
	seconds := fl.Int("seconds", 10, "host seconds to keep repeating set-up and load")
	traced := fl.Int("trace", 0, "1 reports per-layer metrics from a traced, profiled load")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	s, ok := specs[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload hotdir-create|skewed-mixed|uniform-read, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	procs := capProcs()

	// The program receives only generated inputs: each load's whole
	// operation program is drawn up front from the seed.
	loads := make([]load, numLoads)
	for k := range loads {
		prog := workload.Program(s.gen(s.ns), mix(*seed, 2*uint64(k)+2), workers, s.opsPerWorker)
		loads[k] = load{simSeed: mix(*seed, 2*uint64(k)+1), prog: prog, want: expectedEntries(s, prog)}
	}

	ctx := map[string]any{
		"workload": s.name, "seed": *seed, "loads": numLoads, "ops_per_load": workers * s.opsPerWorker,
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"trace": *traced, "seconds": *seconds,
	}
	// Marshal cannot fail on maps of strings and numbers.
	b, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Fprintln(stdout, string(b))

	res := result{Metrics: map[string]metric{}}
	reps, err := repeat(s, loads, *seconds)
	p := pool(reps)
	res.Attempted, res.Failed = p.ops, p.failed
	if err == nil {
		if *traced == 1 {
			err = tracedRun(s, loads[0], reps, &res)
		} else {
			plainMetrics(reps, &res)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	b, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// capProcs caps GOMAXPROCS at the CPU count, so the simulator never runs
// more Go threads at once than the machine has CPUs.
func capProcs() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); n > c {
		n = c
		runtime.GOMAXPROCS(n)
	}
	return n
}

// mix derives an independent seed from the benchmark seed (splitmix64).
func mix(seed int64, stream uint64) int64 {
	x := uint64(seed) + stream*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

// numLoads is how many independent loads (each its own generated program
// and simulation seed) a run pools its virtual-time metrics over: tail
// percentiles of one load move with the seed more than the bounds allow.
const numLoads = 4

// minReps is the fewest repetitions a run makes: every load once, then the
// first load again to check determinism.
const minReps = numLoads + 1

// load is one generated input: the simulation seed, every worker's
// operation program, and the entry counts the directories must end with.
type load struct {
	simSeed int64
	prog    [][]workload.OpCall
	want    map[string]int64
}

// rep is one set-up, load, drain and check.
type rep struct {
	out   outcome
	host  hostCost
	setup time.Duration
}

// usPerOp is the rep's host wall time per simulated op.
func (r rep) usPerOp() float64 { return r.host.wall.Seconds() * 1e6 / float64(r.out.ops) }

// repeat cycles deploy → load → drain → verify through the loads until
// seconds of host time have passed and at least minReps were made. A load
// that runs again must reproduce its first outcome exactly.
func repeat(s *spec, loads []load, seconds int) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for j := 0; j < minReps || time.Since(start) < time.Duration(seconds)*time.Second; j++ {
		r, err := once(s, loads[j%len(loads)])
		if err != nil {
			return append(reps, r), err
		}
		if j >= len(loads) && !sameOutcome(reps[j%len(loads)].out, r.out) {
			return reps, fmt.Errorf("%s: two same-seed loads produced different virtual-time outcomes", s.name)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// once makes one repetition of load l on a fresh deployment.
func once(s *spec, l load) (rep, error) {
	d := deploy(s, l.simSeed, nil, false)
	defer d.sim.Shutdown()
	out, host, err := runLoad(d, s, l.prog, l.want)
	if err == nil {
		err = verify(d, s, l.want)
	}
	return rep{out: out, host: host, setup: d.setup}, err
}

// sameOutcome compares everything but the trace bookkeeping.
func sameOutcome(a, b outcome) bool {
	a.lastLoadTrace, b.lastLoadTrace = 0, 0
	return reflect.DeepEqual(a, b)
}

// pool merges the virtual-time outcomes of the run's loads (the first
// numLoads repetitions).
func pool(reps []rep) (p outcome) {
	for _, r := range reps[:min(len(reps), numLoads)] {
		p.ops += r.out.ops
		p.failed += r.out.failed
		p.lat = append(p.lat, r.out.lat...)
		p.class = append(p.class, r.out.class...)
		p.dirRead = append(p.dirRead, r.out.dirRead...)
		p.drained += r.out.drained
	}
	return p
}

// plainMetrics reports the end-to-end metrics: virtual time pooled over the
// loads, host time as medians over every repetition.
func plainMetrics(reps []rep, res *result) {
	p := pool(reps)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("vtput_kops", "Kops/s", float64(p.ops)/float64(p.drained)*1e6)
	put("vlat_p50_us", "us", pct(p.lat, 0.50)/1e3)
	put("vlat_p999_us", "us", pct(p.lat, 0.999)/1e3)
	put("vlat_dirread_p99_us", "us", pct(p.dirRead, 0.99)/1e3)
	put("host_us_per_op", "us", median(reps, rep.usPerOp))
	put("host_allocs_per_op", "count", median(reps, func(r rep) float64 { return float64(r.host.mallocs) / float64(r.out.ops) }))
	put("host_bytes_per_op", "B", median(reps, func(r rep) float64 { return float64(r.host.bytes) / float64(r.out.ops) }))
	put("host_live_heap_mb", "MB", median(reps, func(r rep) float64 { return float64(r.host.liveHeap) / (1 << 20) }))
	put("setup_s", "s", median(reps, func(r rep) float64 { return r.setup.Seconds() }))
}

// pct is the nearest-rank q-quantile of xs.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// median of f over the repetitions.
func median(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
