package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
)

// repoPkgs are the packages host self time is charged to: a sample goes to
// its innermost switchfs/internal/<pkg> frame. Other repository frames
// (packages outside this list and the benchmark itself) go to "other";
// stacks with no repository frame go to runtime.gc when a collector frame is
// on them and to runtime.other otherwise.
var repoPkgs = []string{
	"client", "cluster", "pswitch", "server", "core", "kv", "wal", "wire",
	"env", "ring", "workload", "trace",
}

// hostBuckets lists every bucket a sample can land in.
var hostBuckets = append(slices.Clone(repoPkgs), "other", "runtime.gc", "runtime.other")

const repoPrefix = "switchfs/internal/"

// bucketOf classifies a stack of function names, innermost first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if slices.Contains(repoPkgs, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// cpuByBucket sums the CPU time of a gzipped pprof CPU profile per bucket.
// Only the fields it needs of the profile.proto message are decoded:
// samples (location ids, values), locations (their inlined line stacks),
// functions (their names) and the string table.
func cpuByBucket(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]int64{}    // function id → string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, packed(v, b)...)
				case 2:
					if vals := packed(v, b); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[bucketOf(stack)] += float64(s.val)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d in field %d", key&7, num)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either encoding: a single value
// (data nil) or a packed run.
func packed(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// allocSnapshot is the runtime's cumulative sampled-allocation profile,
// keyed by allocation stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocSnapshot reads the allocation profile. The runtime publishes a
// GC cycle's samples only once the next cycle completes, hence two GCs.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	snap := make(allocSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocByBucket returns the estimated bytes allocated per bucket between two
// snapshots. Each stack's sampled bytes are scaled up the way pprof does for
// Poisson sampling at runtime.MemProfileRate.
func allocByBucket(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	rate := float64(runtime.MemProfileRate)
	for key, r := range after {
		b := r.AllocBytes - before[key].AllocBytes
		objs := r.AllocObjects - before[key].AllocObjects
		if b <= 0 || objs <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(b)/float64(objs)/rate))
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[bucketOf(stack)] += float64(b) * scale
	}
	return out
}
