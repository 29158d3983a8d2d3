package gir_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	. "indexedrec/internal/gir"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// checkPlanTerms compares every cell's plan terms with an engine's counts
// at the cell's final node.
func checkPlanTerms(t *testing.T, name string, p *Plan, d *DepGraph, counts cap.Counts) {
	t.Helper()
	for x := 0; x < d.M; x++ {
		want := counts[d.Final[x]]
		lo, hi := p.Span(x)
		if hi-lo != len(want) {
			t.Fatalf("%s: cell %d has %d terms, want %v", name, x, hi-lo, want)
		}
		for k, w := range want {
			sink, exp := p.Term(lo + k)
			if sink != w.Sink || PlanCount(p, lo+k).Cmp(w.Count) != 0 || exp != w.Count.String() {
				t.Fatalf("%s: cell %d term %d = (%d:%s), want %v", name, x, k, sink, exp, w)
			}
		}
	}
}

// decodeSystem turns fuzz bytes into a general system: data[0] picks
// m in [1, 128], then each byte triple is one iteration (g, f, h mod m),
// at most 128 of them. The caps admit the Fibonacci(100) seed intact.
func decodeSystem(data []byte) *core.System {
	if len(data) == 0 {
		return &core.System{M: 1}
	}
	m := 1 + int(data[0])%128
	data = data[1:]
	n := min(len(data)/3, 128)
	s := &core.System{M: m, N: n, G: make([]int, n), F: make([]int, n), H: make([]int, n)}
	for i := 0; i < n; i++ {
		s.G[i] = int(data[3*i]) % m
		s.F[i] = int(data[3*i+1]) % m
		s.H[i] = int(data[3*i+2]) % m
	}
	return s
}

// encodeSystem is decodeSystem's inverse for systems within its caps.
func encodeSystem(s *core.System) []byte {
	data := []byte{byte(s.M - 1)}
	for i := 0; i < s.N; i++ {
		data = append(data, byte(s.G[i]), byte(s.F[i]), byte(s.OperandH(i)))
	}
	return data
}

// FuzzGeneralPlanCounts is the differential check of the iteration-order
// pass against the paper's CAP engines: the same terms as CountDPCtx and
// CountSquaringCtx at every cell's final node, the squaring engine's round
// count, the same ErrExponentLimit verdict, and replays equal to the
// sequential loop.
func FuzzGeneralPlanCounts(f *testing.F) {
	f.Add(encodeSystem(workload.Fibonacci(100)), uint8(0)) // counts past uint64
	f.Add(encodeSystem(workload.Fibonacci(100)), uint8(2))
	doubling := &core.System{M: 3, N: 70, G: make([]int, 70), F: make([]int, 70), H: make([]int, 70)}
	for i := range doubling.G {
		doubling.G[i], doubling.F[i], doubling.H[i] = i%2, i%2, i%2 // f == h: label 2
	}
	f.Add(encodeSystem(doubling), uint8(0))
	f.Add(encodeSystem(doubling), uint8(1))
	f.Add([]byte{4}, uint8(0)) // n = 0
	f.Add([]byte{1, 1, 0, 0}, uint8(1))
	f.Add(encodeSystem(workload.RandomGIR(rand.New(rand.NewSource(7)), 9, 40)), uint8(1))
	f.Add(encodeSystem(workload.Scatter(rand.New(rand.NewSource(8)), 48, 6)), uint8(2))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		s := decodeSystem(data)
		maxBits := [...]int{0, 3, 64}[sel%3]
		p, err := CompilePlanCtx(ctx, s, maxBits)
		d, derr := Build(s)
		if derr != nil {
			t.Fatal(derr)
		}
		dp, dpErr := cap.CountDPCtx(ctx, d.G, maxBits)
		sq, st, sqErr := cap.CountSquaringCtx(ctx, d.G, cap.SquaringOptions{Procs: 1, MaxBits: maxBits})
		limited := errors.Is(err, ErrExponentLimit)
		if limited != errors.Is(sqErr, ErrExponentLimit) || limited != errors.Is(dpErr, ErrExponentLimit) {
			t.Fatalf("maxBits %d: plan err %v, squaring err %v, dp err %v", maxBits, err, sqErr, dpErr)
		}
		if err != nil {
			if !limited {
				t.Fatal(err)
			}
			return
		}
		checkPlanTerms(t, "dp", p, d, dp)
		checkPlanTerms(t, "squaring", p, d, sq)
		if p.Rounds() != st.Rounds {
			t.Fatalf("rounds %d, squaring %d", p.Rounds(), st.Rounds)
		}
		op := core.MulMod{M: 1_000_003}
		init := make([]int64, s.M)
		for x := range init {
			init[x] = int64(x * 7919 % 1_000_003)
		}
		got, err := SolvePlanCtx[int64](ctx, p, op, init, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := core.RunSequential[int64](s, op, init)
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("cell %d: replay %d, loop %d", x, got[x], want[x])
			}
		}
	})
}

// TestPlanWideCounts covers the overflow side table: Fibonacci(100)'s
// counts pass 2^64, replays still match the loop and the engines, and the
// exponent cap rejects it like the squaring engine does.
func TestPlanWideCounts(t *testing.T) {
	ctx := context.Background()
	s := workload.Fibonacci(100)
	p, err := CompilePlanCtx(ctx, s, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if WideTerms(p) == 0 {
		t.Fatal("Fibonacci(100) plan has no overflow terms")
	}
	d, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := cap.CountDP(d.G)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanTerms(t, "dp", p, d, dp)
	op := core.MulMod{M: 1_000_003}
	init := make([]int64, s.M)
	for x := range init {
		init[x] = int64(x + 2)
	}
	got, err := SolvePlanCtx[int64](ctx, p, op, init, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := SolvePlanRangeCtx[int64](ctx, p, op, init, 90, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSequential[int64](s, op, init)
	for x := range want {
		if got[x] != want[x] || (x >= 90 && part[x-90] != want[x]) {
			t.Fatalf("cell %d: replay %d, range replay, loop %d", x, got[x], want[x])
		}
	}
	if _, err := CompilePlanCtx(ctx, s, 64); !errors.Is(err, ErrExponentLimit) {
		t.Fatalf("maxBits 64: err %v, want ErrExponentLimit", err)
	}
}

// TestCompileSolveErrorOrder checks that CompileSolveCtx reports an
// invalid system first and a wrong init length next, before a count past
// the exponent cap could be found, as SolveCtx does.
func TestCompileSolveErrorOrder(t *testing.T) {
	ctx := context.Background()
	s := workload.Fibonacci(100)
	op := core.MulMod{M: 1_000_003}
	if _, _, err := CompileSolveCtx[int64](ctx, s, op, make([]int64, s.M), 64, 2); !errors.Is(err, ErrExponentLimit) {
		t.Fatalf("right init: err %v, want ErrExponentLimit", err)
	}
	if _, _, err := CompileSolveCtx[int64](ctx, s, op, make([]int64, s.M-1), 64, 2); !errors.Is(err, ErrInitLen) {
		t.Fatalf("short init: err %v, want ErrInitLen", err)
	}
	bad := &core.System{M: 2, N: 1, G: []int{5}, F: []int{0}}
	if _, _, err := CompileSolveCtx[int64](ctx, bad, op, nil, 0, 2); !errors.Is(err, core.ErrInvalidSystem) {
		t.Fatalf("invalid system: err %v, want ErrInvalidSystem", err)
	}
}

// TestCompilePlanCancelled checks that a cancelled ctx stops the pass.
func TestCompilePlanCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompilePlanCtx(ctx, workload.Fibonacci(64), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// scatterSystem is the allocation gates' input: served-general-churn's
// structure shape.
func scatterSystem() *core.System {
	return workload.Scatter(rand.New(rand.NewSource(1701)), 4096, 512)
}

// TestCompileGeneralAllocBudget gates compile allocation: Scatter(4096,
// 512) took 467,444 allocations and 19.4 MB through ComputeDeps and the
// squaring engine; the flat pass needs 17 allocations and 1.6 MB.
func TestCompileGeneralAllocBudget(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := scatterSystem()
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := CompilePlanCtx(ctx, s, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("Scatter(4096, 512): %d allocations, %d bytes, %d terms", allocs, bytes, p.NumTerms())
	if allocs > 128 || bytes > 4<<20 {
		t.Fatalf("compile made %d allocations and %d bytes, budget 128 and 4 MiB", allocs, bytes)
	}
}

// TestGeneralPlanRetainedAlloc checks that SizeBytes, the plan cache's
// accounting, is within 10% of the heap a compiled plan keeps alive. The
// system is 16 times the churn shape, so the plan's few megabytes dwarf
// heap-size-class rounding and runtime noise.
func TestGeneralPlanRetainedAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := workload.Scatter(rand.New(rand.NewSource(1702)), 1<<16, 1<<13)
	base := liveHeap()
	p, err := CompilePlanCtx(context.Background(), s, 0)
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - base
	t.Logf("Scatter(1<<16, 1<<13): SizeBytes %d, retained %d", p.SizeBytes(), retained)
	if d := float64(p.SizeBytes() - retained); d > 0.1*float64(retained) || -d > 0.1*float64(retained) {
		t.Errorf("SizeBytes %d is more than 10%% off the retained %d bytes", p.SizeBytes(), retained)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(s)
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func BenchmarkCompileGeneralScatter(b *testing.B) {
	s := scatterSystem()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompilePlanCtx(ctx, s, 0); err != nil {
			b.Fatal(err)
		}
	}
}
