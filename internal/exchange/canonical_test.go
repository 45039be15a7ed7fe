package exchange

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fmore/internal/auction"
)

// canonicalSlate builds n bids with the given node IDs in a seeded shuffled
// arrival order; each bid's payment records its arrival position so a wrong
// permutation shows even between equal IDs.
func canonicalSlate(ids []int, seed int64) []auction.Bid {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	bids := make([]auction.Bid, len(ids))
	for i, id := range ids {
		bids[i] = auction.Bid{NodeID: id, Qualities: []float64{float64(id)}, Payment: float64(i)}
	}
	return bids
}

// byNodeID is the order canonicalize promises, computed the slow way.
func byNodeID(bids []auction.Bid) []auction.Bid {
	want := slices.Clone(bids)
	sort.SliceStable(want, func(a, b int) bool { return want[a].NodeID < want[b].NodeID })
	return want
}

// TestCanonicalizeRadixMatchesSort pins the three canonical-order paths
// against one another: for every slate shape the radix path (at and above
// radixMinSlate), the compare-sort path (below it) and the record-sort
// fallback (an ID outside 31 bits) give the stable ascending-NodeID order.
func TestCanonicalizeRadixMatchesSort(t *testing.T) {
	dense := func(n int, _ *rand.Rand) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	sparse := func(n int, rng *rand.Rand) []int {
		seen := map[int]bool{math.MaxInt32: true}
		ids := []int{math.MaxInt32} // the largest ID the key path takes
		for len(ids) < n {
			if id := int(rng.Int31()); !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		return ids[:n]
	}
	oneDigit := func(n int, rng *rand.Rand) []int { // every ID inside the lowest radix digit, with repeats
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(1 << radixDigit)
		}
		return ids
	}
	digitEdges := func(n int, rng *rand.Rand) []int { // IDs that differ only in one digit, or only across digits
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(4) << (radixDigit * rng.Intn(3))
		}
		return ids
	}
	tooWide := func(n int, rng *rand.Rand) []int {
		ids := sparse(n, rng)
		ids[len(ids)/2] = 1 << 31
		return ids
	}
	negative := func(n int, rng *rand.Rand) []int {
		ids := sparse(n, rng)
		ids[len(ids)/2] = -7
		return ids
	}
	shapes := []struct {
		name string
		ids  func(int, *rand.Rand) []int
	}{
		{"dense", dense}, {"sparse", sparse}, {"one-digit", oneDigit}, {"digit-edges", digitEdges},
		{"id-2^31", tooWide}, {"negative-id", negative},
	}
	sizes := []int{1, 2, 63, radixMinSlate - 1, radixMinSlate, radixMinSlate + 1, 5000}
	j := &Job{} // canonicalize touches only the job's sort scratch, reused across every case
	rng := rand.New(rand.NewSource(21))
	for _, shape := range shapes {
		for _, n := range sizes {
			bids := canonicalSlate(shape.ids(n, rng), int64(n))
			want := byNodeID(bids)
			got := j.canonicalize(bids)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: canonical order differs from the stable NodeID sort", shape.name, n)
			}
		}
	}
}

// TestRadixSortKeysMatchesSlicesSort compares the two key sorts directly,
// on both sides of the threshold canonicalize switches at.
func TestRadixSortKeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, idBits := range []int{0, 1, radixDigit - 1, radixDigit, radixDigit + 1, 2 * radixDigit, 2*radixDigit + 1, 31} {
		for _, n := range []int{0, 1, 2, 17, radixMinSlate - 1, radixMinSlate, radixMinSlate + 1, 4096} {
			keys := make([]int64, n)
			var all uint64
			for i := range keys {
				id := uint64(0)
				if idBits > 0 {
					id = rng.Uint64() >> (64 - idBits)
				}
				all |= id
				keys[i] = int64(id<<32) | int64(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got, other := radixSortKeys(keys, make([]int64, n), bits.Len64(all))
			if !slices.Equal(got, want) {
				t.Fatalf("idBits=%d n=%d: radix order differs from slices.Sort", idBits, n)
			}
			if len(other) != n {
				t.Fatalf("idBits=%d n=%d: the spare buffer came back with length %d", idBits, n, len(other))
			}
		}
	}
}

func benchSlate(n int) []auction.Bid {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return canonicalSlate(ids, 1)
}

// BenchmarkCanonicalize is the close's canonical-order pass at the small
// (round_churn), middle and mega_round slate sizes.
func BenchmarkCanonicalize(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			bids := benchSlate(n)
			j := &Job{}
			j.canonicalize(bids) // grow the scratch once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.canonicalize(bids)
			}
		})
	}
}

// BenchmarkKeySort is the evidence for radixMinSlate: the same packed keys
// through slices.Sort and through radixSortKeys around the crossover, with
// dense IDs (one or two radix passes) and with 31-bit IDs (three passes, the
// most a key can need).
func BenchmarkKeySort(b *testing.B) {
	for _, width := range []string{"dense", "wide"} {
		for _, n := range []int{64, 256, 512, 1024, 2048} {
			rng := rand.New(rand.NewSource(int64(n)))
			src := make([]int64, n)
			var all uint64
			for i, id := range rng.Perm(n) {
				if width == "wide" {
					id = int(rng.Int31())
				}
				all |= uint64(id)
				src[i] = int64(id)<<32 | int64(i)
			}
			keys, swap := make([]int64, n), make([]int64, n)
			b.Run(fmt.Sprintf("%s/sort/n=%d", width, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					slices.Sort(keys)
				}
			})
			b.Run(fmt.Sprintf("%s/radix/n=%d", width, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					radixSortKeys(keys, swap, bits.Len64(all))
				}
			})
		}
	}
}
