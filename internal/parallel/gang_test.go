package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGangForCtxCoversAllIndicesOnce checks the gang dispatch path covers
// [0, n) exactly once for the same size/procs matrix as the spawn path.
func TestGangForCtxCoversAllIndicesOnce(t *testing.T) {
	g := NewGang(8)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	for _, n := range []int{0, 1, 2, 7, 100, 1000, 4096} {
		for _, p := range []int{-1, 1, 2, 3, 8, 64, 2000} {
			seen := make([]int32, n)
			err := ForCtx(ctx, n, p, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d p=%d: index %d covered %d times", n, p, i, c)
				}
			}
		}
	}
}

// TestGangReuseAcrossRounds asserts one gang carries many consecutive
// rounds without spawning: the goroutine count stays flat across rounds.
func TestGangReuseAcrossRounds(t *testing.T) {
	g := NewGang(8)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	base := runtime.NumGoroutine()
	var sum atomic.Int64
	for round := 0; round < 200; round++ {
		if err := ForCtx(ctx, 10_000, 8, func(lo, hi int) error {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if now := runtime.NumGoroutine(); now > base+2 {
			t.Fatalf("round %d: %d goroutines, started with %d — gang rounds must not spawn", round, now, base)
		}
	}
	want := int64(200) * (9999 * 10_000 / 2)
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestGangErrorAndPanic checks the ForCtx failure contract holds on the
// gang path: body errors, panics, and Abort all surface; workers join.
func TestGangErrorAndPanic(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	boom := errors.New("boom")

	err := ForCtx(ctx, 1000, 4, func(lo, hi int) error {
		if lo == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}

	err = ForCtx(ctx, 1000, 4, func(lo, hi int) error {
		if lo == 0 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not surfaced as PanicError: %v", err)
	}

	err = ForCtx(ctx, 1000, 4, func(lo, hi int) error {
		Abort(boom)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Abort not surfaced: %v", err)
	}

	// The gang must still be usable after failures.
	if err := ForCtx(ctx, 100, 4, func(lo, hi int) error { return nil }); err != nil {
		t.Fatalf("gang unusable after failure: %v", err)
	}
}

// TestGangCancellation checks a cancelled context stops gang rounds
// between sub-chunks and surfaces ctx.Err().
func TestGangCancellation(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	cctx, cancel := context.WithCancel(context.Background())
	ctx := WithGang(cctx, g)
	var ran atomic.Int64
	err := ForCtx(ctx, 100_000, 4, func(lo, hi int) error {
		if ran.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGangNestedForCtxFallsBack checks that a ForCtx inside a gang round
// body detects the busy gang and completes on the spawn path, keeping
// nested-parallelism semantics.
func TestGangNestedForCtxFallsBack(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	var inner atomic.Int64
	err := ForCtx(ctx, 256, 4, func(lo, hi int) error {
		return ForCtx(ctx, 128, 2, func(l, h int) error {
			inner.Add(int64(h - l))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// 256/4 procs with grain 32 → 2 outer chunks... outer chunk count is an
	// implementation detail; just assert every nested call covered 128.
	if got := inner.Load(); got%128 != 0 || got == 0 {
		t.Fatalf("inner coverage %d, want a positive multiple of 128", got)
	}
}

// TestGangConcurrentSolves hammers one shared gang from many goroutines:
// exactly one dispatch wins it per round, everyone else falls back, and all
// results stay correct. Run with -race.
func TestGangConcurrentSolves(t *testing.T) {
	g := NewGang(8)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var sum atomic.Int64
				if err := ForCtx(ctx, 5000, 4, func(lo, hi int) error {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					sum.Add(local)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if got, want := sum.Load(), int64(4999*5000/2); got != want {
					t.Errorf("sum = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnsureGang checks the per-solve lifecycle: a gang is created when
// missing, reused when present, skipped when disabled, and the release
// function retires the helpers.
func TestEnsureGang(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, release := EnsureGang(context.Background(), 4, 10_000)
	g := GangFrom(ctx)
	if g == nil {
		t.Fatal("EnsureGang did not pin a gang")
	}
	ctx2, release2 := EnsureGang(ctx, 4, 10_000)
	if GangFrom(ctx2) != g {
		t.Fatal("EnsureGang did not reuse the pinned gang")
	}
	release2()
	if err := ForCtx(ctx, 1000, 4, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	release()
	waitGoroutines(t, base)

	// A degenerate request — huge Procs against a tiny solve — must clamp
	// to the work size instead of parking an absurd number of helpers.
	ctx4, release4 := EnsureGang(context.Background(), 1<<20, 64)
	if g4 := GangFrom(ctx4); g4 == nil || g4.procs > 2 {
		t.Fatalf("EnsureGang(1<<20, 64) gang = %+v, want width 2", g4)
	}
	release4()
	if ctx5, release5 := EnsureGang(context.Background(), 8, 1); GangFrom(ctx5) != nil {
		t.Fatal("EnsureGang created a gang for a single-cell solve")
	} else {
		release5()
	}

	defer SetGangEnabled(SetGangEnabled(false))
	ctx3, release3 := EnsureGang(context.Background(), 4, 10_000)
	defer release3()
	if GangFrom(ctx3) != nil {
		t.Fatal("EnsureGang created a gang while disabled")
	}
}

// TestGangDisabledForCtx checks the kill switch: with gangs disabled, a
// pinned gang is ignored and results stay correct on the spawn path.
func TestGangDisabledForCtx(t *testing.T) {
	defer SetGangEnabled(SetGangEnabled(false))
	g := NewGang(4)
	defer g.Close()
	ctx := WithGang(context.Background(), g)
	var sum atomic.Int64
	if err := ForCtx(ctx, 10_000, 4, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sum.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 10_000 {
		t.Fatalf("covered %d indices, want 10000", sum.Load())
	}
}

// TestGangCloseReleasesHelpers checks Close retires the parked goroutines.
func TestGangCloseReleasesHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGang(8)
	ctx := WithGang(context.Background(), g)
	if err := ForCtx(ctx, 1000, 8, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent
	waitGoroutines(t, base)
	// A closed gang must be skipped, not deadlock.
	if err := ForCtx(ctx, 1000, 8, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
