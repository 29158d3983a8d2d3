package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, p := range []int{-1, 0, 1, 2, 3, 16, 2000} {
			var hits sync.Map
			var count int64
			For(n, p, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if _, dup := hits.LoadOrStore(i, true); dup {
						t.Errorf("n=%d p=%d: index %d visited twice", n, p, i)
					}
					atomic.AddInt64(&count, 1)
				}
			})
			if count != int64(n) {
				t.Fatalf("n=%d p=%d: visited %d indices", n, p, count)
			}
		}
	}
}

func TestChunksProperties(t *testing.T) {
	f := func(n uint16, p int8) bool {
		cs := Chunks(int(n), int(p))
		if n == 0 {
			return cs == nil
		}
		// Contiguous cover of [0,n) with sizes differing by <= 1.
		prev := 0
		minSz, maxSz := int(n)+1, -1
		for _, c := range cs {
			if c[0] != prev || c[1] <= c[0] {
				return false
			}
			sz := c[1] - c[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = c[1]
		}
		return prev == int(n) && maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunksRespectsP(t *testing.T) {
	if got := len(Chunks(100, 7)); got != 7 {
		t.Fatalf("len(Chunks(100,7)) = %d, want 7", got)
	}
	if got := len(Chunks(3, 10)); got != 3 {
		t.Fatalf("len(Chunks(3,10)) = %d, want 3 (no empty chunks)", got)
	}
}

func TestBarrierRounds(t *testing.T) {
	const p, rounds = 8, 50
	// Each party increments a per-round counter; after Wait, every party
	// must observe the full count for that round.
	counts := make([]int64, rounds)
	SPMD(p, func(id int, b *Barrier) {
		for r := 0; r < rounds; r++ {
			atomic.AddInt64(&counts[r], 1)
			b.Wait()
			if got := atomic.LoadInt64(&counts[r]); got != p {
				t.Errorf("party %d round %d: count=%d, want %d", id, r, got, p)
			}
			b.Wait() // second barrier so no one races ahead into round r+1
		}
	})
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must not block
	}
}

func TestNewBarrierPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestSPMDRunsAllIDs(t *testing.T) {
	const p = 13
	seen := make([]int32, p)
	SPMD(p, func(id int, b *Barrier) {
		atomic.AddInt32(&seen[id], 1)
	})
	for id, v := range seen {
		if v != 1 {
			t.Fatalf("id %d ran %d times", id, v)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(1024, 8, func(lo, hi int) {})
	}
}

func BenchmarkBarrier(b *testing.B) {
	const p = 4
	b.ReportAllocs()
	SPMD(p, func(id int, bar *Barrier) {
		for i := 0; i < b.N; i++ {
			bar.Wait()
		}
	})
}
