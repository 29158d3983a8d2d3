package indexedrec

// Chaos tests for the hardened solver runtime: every solver family must
// survive an injected operator panic, an injected operator error, and a
// mid-solve cancellation with a descriptive error — no process crash, no
// deadlock, no leaked goroutines. Run with -race; the CI workflow does.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	"indexedrec/internal/gir"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// checkGoroutines snapshots the goroutine count and returns an assertion
// that it settles back (with a settle loop — exiting workers need a beat to
// be reaped). Register it with defer AFTER the snapshot.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: started with %d, still %d", base, runtime.NumGoroutine())
	}
}

func chainInit(m int) []int64 {
	init := make([]int64, m)
	for i := range init {
		init[i] = int64(i%7 + 1)
	}
	return init
}

// --- ordinary ---

func TestChaosOrdinaryOpPanic(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Chain(4096)
	op := &core.InjectOp[int64]{Inner: core.IntAdd{}, PanicAt: 100}
	res, err := ordinary.SolveCtx[int64](context.Background(), s, op, chainInit(s.M), ordinary.Options{Procs: 8})
	if res != nil || err == nil {
		t.Fatalf("res=%v err=%v, want nil result and error", res, err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

func TestChaosOrdinaryOpError(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Chain(4096)
	op := &core.InjectOp[int64]{Inner: core.IntAdd{}, FailAt: 100}
	_, err := ordinary.SolveCtx[int64](context.Background(), s, op, chainInit(s.M), ordinary.Options{Procs: 8})
	if !errors.Is(err, core.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestChaosOrdinaryCancelAtRound(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Chain(1 << 14) // 14 pointer-jumping rounds
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := core.CancelAt(2, cancel)
	opt := ordinary.Options{Procs: 8, OnRound: func(round int, j *ordinary.JumperState) { hook() }}
	_, err := ordinary.SolveCtx[int64](ctx, s, core.IntAdd{}, chainInit(s.M), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOrdinarySolveCtxInitLenError(t *testing.T) {
	s := workload.Chain(16)
	_, err := ordinary.SolveCtx[int64](context.Background(), s, core.IntAdd{}, make([]int64, 3), ordinary.Options{})
	if !errors.Is(err, ordinary.ErrInitLen) {
		t.Fatalf("err = %v, want ErrInitLen", err)
	}
}

func TestOrdinaryLegacyInitLenStillPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("legacy Solve did not panic on init-length mismatch")
		}
		if r != "ordinary: Solve: len(init) != s.M" {
			t.Fatalf("panic message changed: %v", r)
		}
	}()
	s := workload.Chain(16)
	_, _ = ordinary.Solve[int64](s, core.IntAdd{}, make([]int64, 3), ordinary.Options{})
}

// --- gir / cap ---

func TestChaosGIROpPanic(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Fibonacci(64)
	op := core.NewInjectMonoid[int64](core.MulMod{M: 1_000_003})
	op.PanicAt = 50
	init := chainInit(s.M)
	_, err := gir.SolveCtx[int64](context.Background(), s, op, init, gir.Options{Procs: 8})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
}

func TestChaosGIROpError(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Fibonacci(64)
	op := core.NewInjectMonoid[int64](core.MulMod{M: 1_000_003})
	op.FailAt = 50
	_, err := gir.SolveCtx[int64](context.Background(), s, op, chainInit(s.M), gir.Options{Procs: 8})
	if !errors.Is(err, core.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestChaosGIRCancelMidEval(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Fibonacci(256)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := core.NewInjectMonoid[int64](core.MulMod{M: 1_000_003})
	hook := core.CancelAt(10, cancel)
	op.OnCall = func(k int64) { hook() }
	_, err := gir.SolveCtx[int64](ctx, s, op, chainInit(s.M), gir.Options{Procs: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChaosCAPCancelAtRound(t *testing.T) {
	defer checkGoroutines(t)()
	d, err := gir.Build(workload.Fibonacci(256))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := core.CancelAt(2, cancel)
	_, _, err = cap.CountSquaringCtx(ctx, d.G, cap.SquaringOptions{
		Procs:   4,
		OnRound: func(round int, edges [][]cap.Edge) { hook() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChaosCAPHookPanic(t *testing.T) {
	defer checkGoroutines(t)()
	d, err := gir.Build(workload.Fibonacci(128))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = cap.CountSquaringCtx(context.Background(), d.G, cap.SquaringOptions{
		Procs:   4,
		OnRound: func(round int, edges [][]cap.Edge) { panic("hook exploded") },
	})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
}

// TestExponentLimitAllEngines: a Fibonacci dependence graph whose path
// counts exceed the bit cap must surface ErrExponentLimit promptly from
// every CAP engine instead of exhausting memory.
func TestExponentLimitAllEngines(t *testing.T) {
	d, err := gir.Build(workload.Fibonacci(150)) // fib(150) ≈ 104 bits
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const maxBits = 16
	engines := map[string]func() error{
		"squaring": func() error {
			_, _, err := cap.CountSquaringCtx(ctx, d.G, cap.SquaringOptions{MaxBits: maxBits})
			return err
		},
		"dp": func() error {
			_, err := cap.CountDPCtx(ctx, d.G, maxBits)
			return err
		},
		"wavefront": func() error {
			_, err := cap.CountWavefrontCtx(ctx, d.G, 4, maxBits)
			return err
		},
		"matrix": func() error {
			_, err := cap.CountMatrixCtx(ctx, d.G, 4, maxBits)
			return err
		},
	}
	for name, run := range engines {
		if err := run(); !errors.Is(err, cap.ErrExponentLimit) {
			t.Errorf("%s: err = %v, want ErrExponentLimit", name, err)
		}
	}
}

func TestExponentLimitViaPublicAPI(t *testing.T) {
	s := workload.Fibonacci(600) // fib(600) ≈ 417 bits
	init := chainInit(s.M)
	start := time.Now()
	_, err := ir.SolveGeneralCtx[int64](context.Background(), s, core.MulMod{M: 1_000_003}, init,
		ir.SolveOptions{Procs: 4, MaxExponentBits: 64})
	if !errors.Is(err, ir.ErrExponentLimit) {
		t.Fatalf("err = %v, want ErrExponentLimit", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("limit not prompt: took %v", d)
	}
}

func TestGIRLegacyInitLenStillPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "gir: solveOnGraph: len(init) != s.M" {
			t.Fatalf("panic = %v, want historical message", r)
		}
	}()
	s := workload.Fibonacci(16)
	_, _ = gir.Solve[int64](s, core.MulMod{M: 97}, make([]int64, 3), gir.Options{})
}

// --- moebius ---

// moebiusChain builds the affine chain X[i+1] := a·X[i] + 1 over m cells.
func moebiusChain(m int, a float64) *moebius.MoebiusSystem {
	n := m - 1
	g := make([]int, n)
	f := make([]int, n)
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i], f[i], av[i], bv[i] = i+1, i, a, 1
	}
	return moebius.NewLinear(m, g, f, av, bv)
}

func TestChaosMoebiusHookPanic(t *testing.T) {
	defer checkGoroutines(t)()
	ms := moebiusChain(1<<12, 1.0001)
	opt := ordinary.Options{Procs: 8, OnRound: func(round int, j *ordinary.JumperState) {
		if round == 2 {
			panic("moebius hook exploded")
		}
	}}
	_, err := ms.SolveCtx(context.Background(), make([]float64, 1<<12), opt)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
}

func TestChaosMoebiusInjectedError(t *testing.T) {
	defer checkGoroutines(t)()
	ms := moebiusChain(1<<12, 1.0001)
	opt := ordinary.Options{Procs: 8, OnRound: func(round int, j *ordinary.JumperState) {
		if round == 2 {
			parallel.Abort(core.ErrInjected)
		}
	}}
	_, err := ms.SolveCtx(context.Background(), make([]float64, 1<<12), opt)
	if !errors.Is(err, core.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestChaosMoebiusCancelAtRound(t *testing.T) {
	defer checkGoroutines(t)()
	ms := moebiusChain(1<<12, 1.0001)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := core.CancelAt(2, cancel)
	opt := ordinary.Options{Procs: 8, OnRound: func(round int, j *ordinary.JumperState) { hook() }}
	_, err := ms.SolveCtx(ctx, make([]float64, 1<<12), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMoebiusDivisionByZeroGuard(t *testing.T) {
	// X[1] := 1 / X[0] with X[0] = 0: the sequential loop yields +Inf; the
	// guarded API reports it as ErrNonFinite instead.
	ms := &moebius.MoebiusSystem{M: 2, G: []int{1}, F: []int{0},
		A: []float64{0}, B: []float64{1}, C: []float64{1}, D: []float64{0}}
	_, err := ms.SolveCtx(context.Background(), []float64{0, 0}, ordinary.Options{})
	if !errors.Is(err, moebius.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	// The legacy API keeps IEEE semantics.
	out, err := ms.Solve([]float64{0, 0}, ordinary.Options{})
	if err != nil {
		t.Fatalf("legacy Solve: %v", err)
	}
	want := ms.RunSequential([]float64{0, 0})
	if out[1] != want[1] {
		t.Fatalf("legacy Solve[1] = %v, sequential = %v", out[1], want[1])
	}
}

func TestMoebiusNonFiniteInputRejected(t *testing.T) {
	ms := moebiusChain(8, 1)
	x0 := make([]float64, 8)
	x0[3] = nan()
	if _, err := ms.SolveCtx(context.Background(), x0, ordinary.Options{}); !errors.Is(err, moebius.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite for NaN input", err)
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestMoebiusLegacyInitLenStillPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "moebius: Solve: len(x0) != M" {
			t.Fatalf("panic = %v, want historical message", r)
		}
	}()
	_, _ = moebiusChain(8, 1).Solve(make([]float64, 3), ordinary.Options{})
}

// --- public façade ---

func TestFacadeCtxSolversSurviveInjection(t *testing.T) {
	defer checkGoroutines(t)()
	s := workload.Chain(1024)
	op := &core.InjectOp[int64]{Inner: core.IntAdd{}, PanicAt: 30}
	_, err := ir.SolveOrdinaryCtx[int64](context.Background(), s, op, chainInit(s.M), ir.SolveOptions{Procs: 4})
	if err == nil {
		t.Fatal("want error from injected panic")
	}
	if msg, ok := ir.IsWorkerPanic(err); !ok || !strings.Contains(msg, "injected panic") {
		t.Fatalf("IsWorkerPanic = (%q, %v) for %v", msg, ok, err)
	}
}

func TestFacadeCtxMatchesLegacyOnHealthyInput(t *testing.T) {
	s := workload.Chain(512)
	init := chainInit(s.M)
	legacy, err := ir.SolveOrdinary[int64](s, core.IntAdd{}, init, 4)
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := ir.SolveOrdinaryCtx[int64](context.Background(), s, core.IntAdd{}, init, ir.SolveOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy.Values {
		if legacy.Values[i] != hardened.Values[i] {
			t.Fatalf("cell %d: legacy %d != hardened %d", i, legacy.Values[i], hardened.Values[i])
		}
	}
}

// TestCompileFailuresJoinFingerprint: a compile that fails — cancelled,
// invalid or non-distinct — returns its typed error with no goroutine left
// running, and with nothing still reading the caller's index slices: under
// -race the rewrite of those slices after each call catches any reader left
// behind. (Compile once hashed the plan's fingerprint on a goroutine that
// every return path had to join; it no longer hashes, and this test keeps
// that from coming back as a leak.)
func TestCompileFailuresJoinFingerprint(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(19))
	invalid := workload.Chain(1 << 18)
	invalid.G[0] = -1
	dup := workload.Chain(1 << 18)
	dup.G[dup.N-1] = dup.G[0]
	mb := workload.Chain(1 << 16)
	rewrite := func(idx ...[]int) {
		for _, s := range idx {
			for i := range s {
				s[i]++
				s[i]--
			}
		}
	}
	scatter := workload.Scatter(rng, 1<<16, 512)
	random := workload.RandomOrdinary(rng, 1<<16, 1<<16)
	for _, c := range []struct {
		name    string
		compile func() (*ir.Plan, error)
		want    error
	}{
		{"cancelled general", func() (*ir.Plan, error) {
			return ir.CompileCtx(cancelled, scatter, ir.CompileOptions{})
		}, context.Canceled},
		{"cancelled ordinary", func() (*ir.Plan, error) {
			return ir.CompileCtx(cancelled, random, ir.CompileOptions{Family: ir.FamilyOrdinary})
		}, context.Canceled},
		{"cancelled moebius", func() (*ir.Plan, error) {
			return ir.CompileMoebiusCtx(cancelled, mb.M, mb.G, mb.F)
		}, context.Canceled},
		{"invalid system", func() (*ir.Plan, error) {
			return ir.CompileCtx(context.Background(), invalid, ir.CompileOptions{})
		}, core.ErrInvalidSystem},
		{"non-distinct ordinary", func() (*ir.Plan, error) {
			return ir.CompileCtx(context.Background(), dup, ir.CompileOptions{Family: ir.FamilyOrdinary})
		}, ordinary.ErrGNotDistinct},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			p, err := c.compile()
			if p != nil || !errors.Is(err, c.want) {
				t.Fatalf("plan %v, err %v; want nil and %v", p, err, c.want)
			}
			for _, sys := range []*core.System{scatter, random, mb, invalid, dup} {
				rewrite(sys.G, sys.F, sys.H)
			}
		})
	}
}
