package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines asserts the goroutine count settles back to at most base,
// polling because exiting workers need a beat to be reaped.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: now %d, started with %d", runtime.NumGoroutine(), base)
}

func TestForCtxCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, p := range []int{-1, 0, 1, 2, 3, 16, 2000} {
			var count int64
			seen := make([]int32, n)
			err := ForCtx(context.Background(), n, p, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if count != int64(n) {
				t.Fatalf("n=%d p=%d: visited %d indices", n, p, count)
			}
			for i, v := range seen {
				if v != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, v)
				}
			}
		}
	}
}

func TestForCtxWeightedCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, p := range []int{-1, 0, 1, 2, 16} {
			for _, w := range []int{0, 1, minGrain - 1, minGrain, 4 * minGrain} {
				var count int64
				seen := make([]int32, n)
				err := ForCtxWeighted(context.Background(), n, p, w, func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
						atomic.AddInt64(&count, 1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d p=%d w=%d: %v", n, p, w, err)
				}
				if count != int64(n) {
					t.Fatalf("n=%d p=%d w=%d: visited %d indices", n, p, w, count)
				}
				for i, v := range seen {
					if v != 1 {
						t.Fatalf("n=%d p=%d w=%d: index %d visited %d times", n, p, w, i, v)
					}
				}
			}
		}
	}
}

// TestForCtxWeightedGrainCutover checks the weighted grain math: heavy
// items disable the per-item cutover entirely, while light items shrink the
// worker count exactly as if each item were `weight` plain indices.
func TestForCtxWeightedGrainCutover(t *testing.T) {
	// weight >= minGrain: every item is worth a handoff — all p workers run
	// even when n < minGrain.
	var workers int64
	err := ForCtxWeighted(context.Background(), 8, 8, minGrain, func(lo, hi int) error {
		atomic.AddInt64(&workers, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if workers < 2 {
		t.Errorf("heavy items: %d worker chunks, want parallel fan-out", workers)
	}
	// weight 1 matches ForCtx's cutover: 8 items of weight 1 run on one
	// worker (8 < minGrain).
	var calls int64
	err = ForCtxWeighted(context.Background(), 8, 8, 1, func(lo, hi int) error {
		atomic.AddInt64(&calls, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls > ctxGrain {
		t.Errorf("light items: %d sub-chunks, want sequential dispatch (<= %d)", calls, ctxGrain)
	}
}

func TestForCtxPropagatesBodyError(t *testing.T) {
	base := runtime.NumGoroutine()
	want := errors.New("boom")
	err := ForCtx(context.Background(), 1000, 8, func(lo, hi int) error {
		if lo >= 500 {
			return fmt.Errorf("chunk %d: %w", lo, want)
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want wrapped %v", err, want)
	}
	waitGoroutines(t, base)
}

func TestForCtxRecoversPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	err := ForCtx(context.Background(), 100, 4, func(lo, hi int) error {
		panic("worker exploded")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "worker exploded" {
		t.Fatalf("panic payload = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	waitGoroutines(t, base)
}

func TestForCtxAbortUnwrapsToError(t *testing.T) {
	want := errors.New("op failure")
	err := ForCtx(context.Background(), 100, 4, func(lo, hi int) error {
		Abort(want)
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v (unwrapped, not PanicError)", err, want)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("Abort surfaced as PanicError: %v", err)
	}
}

func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForCtx(ctx, 1000, 4, func(lo, hi int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("body ran %d chunks on a cancelled context", ran.Load())
	}
}

func TestForCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForCtx(ctx, 1<<16, 2, func(lo, hi int) error {
		if ran.Add(1) == 1 {
			cancel() // later chunks must be skipped
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 2 workers × grain chunks were available; cancellation must have cut
	// the schedule short (first worker cancels on its first chunk, so at
	// most one more chunk — the second worker's in-flight one — runs).
	if got := ran.Load(); got > 2 {
		t.Fatalf("%d chunks ran after cancellation", got)
	}
}

func TestForEachCtxStopsAtError(t *testing.T) {
	want := errors.New("item 7")
	err := ForEachCtx(context.Background(), 100, 1, func(i int) error {
		if i == 7 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestNestedForEachCtxProcsClamping nests ForCtx inside ForEachCtx (items
// across, chunks within) with degenerate procs — negative, zero, absurdly
// large: both levels clamp to their own work, so every index is covered
// once and the peak goroutine count is bounded by the chunk counts, not by
// procs².
func TestNestedForEachCtxProcsClamping(t *testing.T) {
	const items, perItem = 64, 256
	base := runtime.NumGoroutine()
	limit := int64(base + (items/minGrain+1)*(perItem/minGrain+1) + 16)
	for _, p := range []int{-1, 0, 1, 3, 1 << 20} {
		seen := make([]int32, items*perItem)
		var peak atomic.Int64
		err := ForEachCtx(context.Background(), items, p, func(k int) error {
			return ForCtx(context.Background(), perItem, p, func(lo, hi int) error {
				for g := int64(runtime.NumGoroutine()); ; {
					cur := peak.Load()
					if g <= cur || peak.CompareAndSwap(cur, g) {
						break
					}
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[k*perItem+i], 1)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, v)
			}
		}
		if got := peak.Load(); got > limit {
			t.Errorf("p=%d: %d goroutines alive at peak (baseline %d)", p, got, base)
		}
	}
	waitGoroutines(t, base)
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"). Each ForCtx worker is its own goroutine, so
// grouping sub-chunks by it recovers the worker partition.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// forCtxChunks runs an unweighted ForCtx over n items on p workers and
// returns each worker's range, the union of the sub-chunks it ran, keyed by
// goroutine id. It fails the test if a worker's sub-chunks are not one
// contiguous ascending run.
func forCtxChunks(t *testing.T, n, p int) map[string][2]int {
	t.Helper()
	var mu sync.Mutex
	chunks := map[string][2]int{}
	err := ForCtx(context.Background(), n, p, func(lo, hi int) error {
		id := goid()
		mu.Lock()
		defer mu.Unlock()
		c, ok := chunks[id]
		switch {
		case !ok:
			chunks[id] = [2]int{lo, hi}
		case c[1] == lo:
			chunks[id] = [2]int{c[0], hi}
		default:
			t.Errorf("worker %s ran [%d,%d) after [%d,%d): not one contiguous range", id, lo, hi, c[0], c[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// Edge cases of the worker partition.

func TestForSmallerThanP(t *testing.T) {
	// n far below p must not fan tiny chunks out to goroutines: the minimum
	// grain collapses the run to a single chunk covering [0, n), run inline
	// on the caller.
	chunks := forCtxChunks(t, 3, 64)
	if c, ok := chunks[goid()]; len(chunks) != 1 || !ok || c != [2]int{0, 3} {
		t.Fatalf("chunks %v: n below the grain must run as one chunk [0,3) on the caller", chunks)
	}
}

func TestForGrainCutover(t *testing.T) {
	// n slightly above p: worker count is capped at ceil(n/minGrain), so no
	// chunk is smaller than roughly the grain.
	chunks := forCtxChunks(t, 70, 64)
	for id, c := range chunks {
		if c[1]-c[0] < minGrain/2 {
			t.Errorf("worker %s chunk [%d,%d): smaller than half the minimum grain", id, c[0], c[1])
		}
	}
	if got, want := len(chunks), (70+minGrain-1)/minGrain; got != want {
		t.Fatalf("ran %d chunks, want %d", got, want)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -5} {
		ran := false
		if err := ForCtx(context.Background(), n, 4, func(lo, hi int) error {
			ran = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Fatalf("body ran for n=%d", n)
		}
	}
}

func TestForNonPositiveP(t *testing.T) {
	for _, p := range []int{0, -3} {
		var count int64
		if err := ForCtx(context.Background(), 100, p, func(lo, hi int) error {
			atomic.AddInt64(&count, int64(hi-lo))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("p=%d covered %d of 100 indices", p, count)
		}
	}
}
