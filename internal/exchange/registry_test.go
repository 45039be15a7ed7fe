package exchange

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegistryRegisterLookup(t *testing.T) {
	r := newRegistry()
	info := r.register(7, "edge-7")
	if r.Len() != 1 || info.ID != 7 || info.Meta() != "edge-7" {
		t.Fatalf("first register = %+v with Len() %d", info, r.Len())
	}
	if again := r.register(7, ""); r.Len() != 1 || again != info || info.Meta() != "edge-7" {
		t.Error("re-registration with empty meta must keep the record and its label")
	}
	if again := r.register(7, "10.0.0.7:9000"); r.Len() != 1 || again != info || info.Meta() != "10.0.0.7:9000" {
		t.Error("re-registration with non-empty meta must relabel the existing record")
	}
	if _, ok := r.Lookup(8); ok {
		t.Error("Lookup(8) found an unregistered node")
	}
	if r.Len() != 1 {
		t.Errorf("Len() = %d, want 1", r.Len())
	}
}

// TestRegistryConcurrent hammers the registry from many goroutines under
// -race: concurrent registration, lookup and stat updates must be safe and
// lose no registrations.
func TestRegistryConcurrent(t *testing.T) {
	r := newRegistry()
	const (
		workers = 16
		nodes   = 2048
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := 0; id < nodes; id++ {
				info := r.register(id, "")
				info.bids.Add(1)
				if got, ok := r.Lookup(id); !ok || got.ID != id {
					t.Errorf("worker %d: Lookup(%d) = (%v, %v)", w, id, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != nodes {
		t.Fatalf("Len() = %d, want %d", r.Len(), nodes)
	}
	seen := 0
	var totalBids int64
	r.Range(func(info *NodeInfo) bool {
		seen++
		totalBids += info.Bids()
		return true
	})
	if seen != nodes {
		t.Errorf("Range visited %d nodes, want %d", seen, nodes)
	}
	if totalBids != int64(workers*nodes) {
		t.Errorf("total bid count = %d, want %d", totalBids, workers*nodes)
	}
}

func TestRegistryRangeEarlyStop(t *testing.T) {
	r := newRegistry()
	for id := 0; id < 100; id++ {
		r.register(id, "")
	}
	visited := 0
	r.Range(func(*NodeInfo) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Errorf("Range visited %d after early stop, want 10", visited)
	}
}

// probeLen is how many slots Lookup reads to reach id's node in t.
func probeLen(t regTable, id int) int {
	n := 1
	for i := homeSlot(id, len(t)); t[i].Load().ID != id; i = (i + 1) & (len(t) - 1) {
		n++
	}
	return n
}

// TestRegistryProbeSpread checks that the ID schemes a deployment plausibly
// hands out (sequential, strided by powers of two, negative, the extremes)
// land in short probes, and that Lookup finds every registered ID and none
// absent.
func TestRegistryProbeSpread(t *testing.T) {
	const n = 1 << 14
	ids := func(first, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = first + i*stride
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		ids    []int
		absent int
	}{
		{"sequential", ids(0, 1), n},
		{"stride64", ids(0, 64), 1},
		{"stride4096", ids(0, 4096), 1},
		{"stride65536", ids(0, 65536), 1},
		{"negative", ids(-1, -1), 0},
		{"extremes", []int{math.MinInt, math.MaxInt}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRegistry()
			for _, id := range tc.ids {
				r.register(id, "")
			}
			tab := *r.table.Load()
			sum, worst := 0, 0
			for _, id := range tc.ids {
				if info, ok := r.Lookup(id); !ok || info.ID != id {
					t.Fatalf("Lookup(%d) = (%v, %v)", id, info, ok)
				}
				p := probeLen(tab, id)
				sum += p
				worst = max(worst, p)
			}
			if _, ok := r.Lookup(tc.absent); ok {
				t.Errorf("Lookup(%d) found an unregistered node", tc.absent)
			}
			// At a load of at most one half, linear probing under a
			// uniform hash averages about 1.5 slots per hit.
			// A uniform hash at a load of one half averages 1.5 slots per
			// hit; Fibonacci hashing gives sequential IDs 1.0 and the
			// worst set here, stride 64, 2.9 (longest probe 12).
			if mean := float64(sum) / float64(len(tc.ids)); mean > 3 || worst > 16 {
				t.Errorf("%d slots, %d nodes: mean probe %.2f, max %d", len(tab), len(tc.ids), mean, worst)
			}
		})
	}
}

// TestRegistryLookupDuringGrowth races readers against a writer that grows
// the table from its first 64 slots past 2^17: Lookup must find every node
// whose register returned before the Lookup began, and Range must visit
// each such node, and no node twice.
func TestRegistryLookupDuringGrowth(t *testing.T) {
	// One node past half of 2^16 slots, so the table ends at 2^17.
	const nodes = 1<<15 + 1
	id := func(i int) int { return i*64 - nodes } // strided, both signs
	r := newRegistry()
	var done atomic.Int64 // nodes 0..done-1 have returned from register
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for ranges := 0; ; {
				d := int(done.Load())
				if w == 0 && ranges < 16 {
					ranges++
					seen := make(map[int]bool, d)
					twice := false
					r.Range(func(info *NodeInfo) bool {
						twice = seen[info.ID]
						seen[info.ID] = true
						return !twice
					})
					if twice {
						t.Error("Range visited a node twice")
						return
					}
					for i := 0; i < d; i++ {
						if !seen[id(i)] {
							t.Errorf("Range missed node %d, registered before it began", id(i))
							return
						}
					}
				}
				for k := 0; k < 64 && d > 0; k++ {
					i := d - 1 - k
					if k%2 == 1 {
						i = rng.Intn(d)
					}
					if i < 0 {
						break
					}
					if info, ok := r.Lookup(id(i)); !ok || info.ID != id(i) {
						t.Errorf("Lookup(%d) = (%v, %v) after its register returned", id(i), info, ok)
						return
					}
				}
				if d == nodes {
					return
				}
			}
		}(w)
	}
	for i := 0; i < nodes; i++ {
		r.register(id(i), "")
		done.Store(int64(i + 1))
	}
	wg.Wait()
	if got := len(*r.table.Load()); got < 1<<17 {
		t.Errorf("table holds %d slots after %d nodes, want >= %d", got, nodes, 1<<17)
	}
	if r.Len() != nodes {
		t.Errorf("Len() = %d, want %d", r.Len(), nodes)
	}
}

// TestRegistryLookupAllocatesNothing: the bid path's node resolve, hit or
// miss, allocates nothing.
func TestRegistryLookupAllocatesNothing(t *testing.T) {
	const n = 1 << 14
	r := newRegistry()
	for id := 0; id < n; id++ {
		r.register(id, "")
	}
	id := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Lookup(id & (2*n - 1)) // half of the IDs are not registered
		id += 7919
	}); allocs != 0 {
		t.Errorf("Lookup: %v allocs, want 0", allocs)
	}
}

// BenchmarkRegistryLookup is the bid path's node resolve: every CPU looks
// up registered nodes of a 16,384-node registry at once (0 allocs/op,
// TestRegistryLookupAllocatesNothing).
func BenchmarkRegistryLookup(b *testing.B) {
	const n = 1 << 14
	r := newRegistry()
	for id := 0; id < n; id++ {
		r.register(id, "")
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(7919))
		for pb.Next() {
			if _, ok := r.Lookup(i & (n - 1)); !ok {
				b.Error("registered node not found")
				return
			}
			i++
		}
	})
}
