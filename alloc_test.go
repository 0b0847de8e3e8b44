package switchfs

import (
	"fmt"
	"testing"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates and would break allocation bounds.
var raceEnabled bool

// TestCreatePathAllocs bounds the host allocations of one create on the
// async-commit path (§5.2.1, Fig. 4): client resolve and request, the
// owner's WAL commit, KV put and change-log append, the switch's dirty-set
// insert and completion multicast, plus the amortized pushes and
// aggregations at the parent's owner.
func TestCreatePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const creates = 2000
	e := NewSimEnv(1)
	fs, err := New(e, WithServers(4), WithClients(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	fs.RunSession(0, func(s *Session) {
		if err := s.Mkdir("/d", 0); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun makes a warm-up run and then the measured one; each
	// creates its own files, named before counting starts.
	var paths [2][creates]string
	for r := range paths {
		for i := range paths[r] {
			paths[r][i] = fmt.Sprintf("/d/r%d-f%d", r, i)
		}
	}
	round := 0
	per := testing.AllocsPerRun(1, func() {
		fs.RunSession(0, func(s *Session) {
			for _, p := range paths[round] {
				if err := s.Create(p, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
		round++
	}) / creates
	t.Logf("%.2f allocations per create", per)
	if per > 17 {
		t.Fatalf("a create made %.2f allocations, want <= 17", per)
	}
}
