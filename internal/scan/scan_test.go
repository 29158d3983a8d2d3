package scan

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

func TestInclusiveSequential(t *testing.T) {
	got := Inclusive[int64](core.IntAdd{}, []int64{1, 2, 3, 4})
	want := []int64{1, 3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInclusiveParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// The lengths straddle the plan compiler's blocked-scan threshold (a
	// chain of n cells has n-1 links), so both schedules run.
	for _, n := range []int{0, 1, 2, 3, 17, 255, 256, 257, 1000, 4096} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(1000)
		}
		want := Inclusive[int64](core.IntAdd{}, xs)
		for _, p := range []int{1, 2, 4, 16, 100} {
			got := InclusiveParallel[int64](core.IntAdd{}, xs, p)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d i=%d: got %d want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInclusiveParallelNonCommutative(t *testing.T) {
	// Concat is exact and non-commutative: any order or association slip in
	// either schedule changes the output string.
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{1, 7, 64, 333, 1000} {
		xs := make([]string, n)
		for i := range xs {
			xs[i] = string(rune('a' + rng.Intn(26)))
		}
		want := Inclusive[string](core.Concat{}, xs)
		for _, p := range []int{1, 3, 8} {
			got := InclusiveParallel[string](core.Concat{}, xs, p)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d i=%d: got %q want %q", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLinearRecurrenceParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 1, 2, 33, 500, 5000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*1.4 - 0.7
			b[i] = rng.Float64()*2 - 1
		}
		x0 := rng.Float64()
		want := LinearRecurrence(a, b, x0)
		got := LinearRecurrenceParallel(a, b, x0, 4)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("n=%d i=%d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestLinearRecurrenceEmpty(t *testing.T) {
	if out := LinearRecurrenceParallel(nil, nil, 1, 2); len(out) != 0 {
		t.Fatal("expected empty output")
	}
}

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

// TestOpPanicContract pins what a panicking op does on the ordinary engine:
// InclusiveParallel re-raises it in the caller's goroutine as a
// *parallel.PanicError, KTermRecurrenceParallel's path returns it as its
// error, and neither leaves a worker behind.
func TestOpPanicContract(t *testing.T) {
	const n, procs = 4096, 2
	base := runtime.NumGoroutine()

	xs := make([]int64, n)
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*parallel.PanicError); !ok {
				t.Errorf("recovered %T (%v), want *parallel.PanicError", r, r)
			}
		}()
		op := &core.InjectOp[int64]{Inner: core.IntAdd{}, PanicAt: 100}
		InclusiveParallel[int64](op, xs, procs)
		t.Error("InclusiveParallel returned despite the op's panic")
	}()

	k := 2
	a := [][]float64{constSeries(n, 1), constSeries(n, -0.5)}
	op := &core.InjectOp[mat]{Inner: matChainOp{}, PanicAt: 100}
	out, err := kTermParallel(op, k, a, constSeries(n, 1), []float64{0, 1}, procs)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || out != nil {
		t.Errorf("kTermParallel = (%v values, %v), want a *parallel.PanicError", len(out), err)
	}
	waitGoroutines(t, base)
}
