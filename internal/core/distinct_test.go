package core

import (
	"math/rand"
	"slices"
	"testing"
)

// firstRepeatOracle is the hash-set check FirstRepeat must agree with.
func firstRepeatOracle(ids []int) int {
	seen := make(map[int]bool)
	for i, v := range ids {
		if seen[v] {
			return i
		}
		seen[v] = true
	}
	return -1
}

// TestFirstRepeatMatchesMap checks the bitset path and its map fallbacks
// against the hash-set oracle: in-range ids, negative and out-of-range ids
// (before and after a repeat), empty input, m <= 0, and m ≫ len(ids).
func TestFirstRepeatMatchesMap(t *testing.T) {
	cases := []struct {
		ids []int
		m   int
	}{
		{nil, 0},
		{nil, 5},
		{[]int{}, 1 << 30},
		{[]int{0}, 1},
		{[]int{0, 0}, 1},
		{[]int{3, 1, 2}, 4},
		{[]int{3, 1, 3}, 4},
		{[]int{-1, -1}, 4},
		{[]int{-1, 2, -1}, 4},
		{[]int{1, 1, -1}, 4},
		{[]int{1, 4, 1}, 4},
		{[]int{4, 4}, 4},
		{[]int{0, 1, 1}, 0},
		{[]int{0, 1, 1}, -3},
		{[]int{5, 1 << 40, 5}, 1 << 30},
		{[]int{1 << 40, 1 << 40}, 1 << 30},
		{[]int{1, 2, 3, 3}, 4},
		{[]int{1, 2, 3, 1}, 4},
		{[]int{-7, 2, 9, 1 << 40}, 4},
		{[]int{-7, 2, 9, 1 << 40, 2}, 4},
		{[]int{1, 2, 3, 0, 5, 2}, 0},
	}
	for _, c := range cases {
		if got, want := FirstRepeat(c.ids, c.m), firstRepeatOracle(c.ids); got != want {
			t.Errorf("FirstRepeat(%v, %d) = %d, want %d", c.ids, c.m, got, want)
		}
	}

	rng := rand.New(rand.NewSource(1302))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		m := rng.Intn(64) - 4
		if trial%5 == 0 {
			m = 1 << (10 + rng.Intn(20)) // m ≫ n: map path
		}
		span := 2*n + 8
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(span) - 4 // includes negative and ≥ m ids
		}
		if got, want := FirstRepeat(ids, m), firstRepeatOracle(ids); got != want {
			t.Fatalf("FirstRepeat(%v, %d) = %d, want %d", ids, m, got, want)
		}
		// The same ids sorted, and sorted with one id repeated after the
		// increasing prefix: the short-circuit and its hand-over.
		sorted := slices.Compact(slices.Sorted(slices.Values(ids)))
		if got, want := FirstRepeat(sorted, m), firstRepeatOracle(sorted); got != want {
			t.Fatalf("FirstRepeat(%v, %d) = %d, want %d", sorted, m, got, want)
		}
		if len(sorted) > 0 {
			sorted = append(sorted, sorted[rng.Intn(len(sorted))])
			if got, want := FirstRepeat(sorted, m), firstRepeatOracle(sorted); got != want {
				t.Fatalf("FirstRepeat(%v, %d) = %d, want %d", sorted, m, got, want)
			}
		}
		s := &System{M: m, N: n, G: ids, F: make([]int, n)}
		if s.GDistinct() != (firstRepeatOracle(ids) < 0) {
			t.Fatalf("GDistinct(%v, m=%d) disagrees with the map oracle", ids, m)
		}
	}
}

// TestFirstRepeatSortedAllocatesNothing: strictly increasing ids — here a
// 2¹⁶-cell chain's g, in range and out of it — need no bitset and no map.
func TestFirstRepeatSortedAllocatesNothing(t *testing.T) {
	ids := make([]int, 1<<16)
	for i := range ids {
		ids[i] = i + 1
	}
	for _, m := range []int{len(ids) + 1, 8, 1 << 40} {
		allocs := testing.AllocsPerRun(10, func() {
			if FirstRepeat(ids, m) != -1 {
				t.Fatal("sorted ids reported a repeat")
			}
		})
		if allocs != 0 {
			t.Fatalf("FirstRepeat(sorted, m=%d) allocated %.0f times", m, allocs)
		}
	}
}
