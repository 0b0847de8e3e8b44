package main

import (
	"fmt"
	"math/rand"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/workload"
)

// spec is one benchmark workload: a preloaded namespace, a closed-loop
// operation mix over it, and the checks its outputs must pass. Why each one
// exists is written up in NOTES.md.
type spec struct {
	name string
	ns   workload.Namespace
	// opsPerWorker is fixed: host cost per op on hotdir-create grows with
	// run length, so run length must not depend on host speed.
	opsPerWorker int
	// gen builds a fresh generator over ns (mix generators carry per-worker
	// state).
	gen func(ns workload.Namespace) workload.Gen
	// probe makes a statdir and a readdir of every namespace directory from
	// every client node after the load and before the drain, while all the
	// load's deferred updates are still pending.
	probe bool
	// check validates one acknowledged operation's output.
	check func(call workload.OpCall, out opOutput) error
}

// opOutput is what a read-style call returned.
type opOutput struct {
	attr    core.Attr
	entries int
}

const (
	workers = 256 // closed-loop virtual clients, each waiting for its reply
	clients = 8   // client nodes the workers are spread over
	servers = 8
	cores   = 4
)

var specs = map[string]*spec{
	"hotdir-create": {
		name:         "hotdir-create",
		ns:           workload.SingleDir(1024),
		opsPerWorker: 200,
		gen:          hotCreates,
		probe:        true,
	},
	"skewed-mixed": {
		name:         "skewed-mixed",
		ns:           workload.MultiDir(256, 256),
		opsPerWorker: 200,
		gen:          func(ns workload.Namespace) workload.Gen { return workload.PanguMix().Gen(ns, true) },
	},
	"uniform-read": {
		name:         "uniform-read",
		ns:           workload.MultiDir(1000, 1000),
		opsPerWorker: 200,
		gen: func(ns workload.Namespace) workload.Gen {
			return workload.Mix{
				{Op: core.OpStat, Weight: 45},
				{Op: core.OpOpen, Weight: 25},
				{Op: core.OpClose, Weight: 25},
				{Op: core.OpStatDir, Weight: 5},
			}.Gen(ns, false)
		},
		check: func(call workload.OpCall, out opOutput) error {
			switch call.Op {
			case core.OpStat, core.OpOpen:
				if out.attr.Type != core.TypeRegular {
					return fmt.Errorf("%s %s: type %d, want a regular file", call.Op, call.Path, out.attr.Type)
				}
			case core.OpStatDir:
				if out.attr.Size != 1000 {
					return fmt.Errorf("statdir %s: %d entries, want 1000", call.Path, out.attr.Size)
				}
			}
			return nil
		},
	},
}

// hotCreates has every worker create fresh files in the namespace's one
// directory. The random part of each name comes from the seed, so the file
// inodes land on different servers under different seeds; w and i keep
// names unique.
func hotCreates(ns workload.Namespace) workload.Gen {
	dir := ns.Dirs[0]
	return func(rnd *rand.Rand, w, i int) workload.OpCall {
		return workload.OpCall{Op: core.OpCreate, Path: fmt.Sprintf("%s/c%d-%08x-%d", dir, w, rnd.Uint32(), i)}
	}
}

// dirOf returns the parent directory of a file path.
func dirOf(path string) string { return path[:strings.LastIndexByte(path, '/')] }

// netEntries applies one acknowledged operation to the expected per-directory
// entry counts.
func netEntries(want map[string]int64, call workload.OpCall) {
	switch call.Op {
	case core.OpCreate, core.OpMkdir:
		want[dirOf(call.Path)]++
	case core.OpDelete, core.OpRmdir:
		want[dirOf(call.Path)]--
	case core.OpRename:
		want[dirOf(call.Path)]--
		want[dirOf(call.Path2)]++
	}
}
