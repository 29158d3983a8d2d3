package gir_test

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	. "indexedrec/internal/gir"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// checkPlanTerms compares every cell's plan trace, read through the
// public accessors, with an engine's counts at the cell's final node. An
// unwritten cell's final node is its own leaf, whose count is (x, 1).
func checkPlanTerms(t *testing.T, name string, p *Plan, d *DepGraph, counts cap.Counts) {
	t.Helper()
	total := 0
	for x := 0; x < d.M; x++ {
		want := counts[d.Final[x]]
		if p.Terms(x) != len(want) {
			t.Fatalf("%s: cell %d has %d terms, want %v", name, x, p.Terms(x), want)
		}
		total += len(want)
		for k, w := range want {
			sink, exp := p.Term(x, k)
			if sink != w.Sink || PlanCount(p, x, k).Cmp(w.Count) != 0 || exp != w.Count.String() {
				t.Fatalf("%s: cell %d term %d = (%d:%s), want %v", name, x, k, sink, exp, w)
			}
		}
	}
	if p.NumTerms() != total {
		t.Fatalf("%s: NumTerms %d, want %d", name, p.NumTerms(), total)
	}
}

// checkPlanLayout checks what the plan stores: no term for a cell no
// iteration writes, every written cell's terms, and a count table only
// when some count is not 1. It returns the unwritten cells, ascending.
func checkPlanLayout(t *testing.T, p *Plan, d *DepGraph, counts cap.Counts) []int {
	t.Helper()
	var unwritten []int
	stored, unit := 0, true
	first, end := 0, 0 // the written cells' window [first, end)
	for x := 0; x < d.M; x++ {
		if d.Final[x] == x {
			unwritten = append(unwritten, x)
			continue
		}
		if end == 0 {
			first = x
		}
		end = x + 1
		stored += len(counts[d.Final[x]])
		for _, w := range counts[d.Final[x]] {
			unit = unit && w.Count.Cmp(big.NewInt(1)) == 0
		}
	}
	if StoredTerms(p) != stored || UnitCounts(p) != unit {
		t.Fatalf("plan stores %d terms (unit counts %v), want %d (%v)", StoredTerms(p), UnitCounts(p), stored, unit)
	}
	if want := int64(4*(end-first+1) + 4*stored); unit && p.SizeBytes() != want {
		t.Fatalf("unit-count plan SizeBytes %d, want %d", p.SizeBytes(), want)
	}
	return unwritten
}

// unwrittenRanges returns the cell ranges [lo, hi) whose first and last
// cells are both unwritten, drawn from the ascending unwritten cells u:
// single cells, the span of all of them and the middle third.
func unwrittenRanges(u []int) [][2]int {
	if len(u) == 0 {
		return nil
	}
	r := [][2]int{{u[0], u[len(u)-1] + 1}, {u[len(u)/3], u[2*len(u)/3] + 1}}
	for _, x := range u[:min(len(u), 4)] {
		r = append(r, [2]int{x, x + 1})
	}
	return r
}

// checkRoutesAgree holds SolvePlanCtx, SolvePlanRangeCtx over ranges that
// start and end on unwritten cells, and SolveCtx's CAP path to the same
// bits under op.
func checkRoutesAgree[T any](t *testing.T, s *core.System, p *Plan, op core.CommutativeMonoid[T], init []T, maxBits int, ranges [][2]int, same func(a, b T) bool) {
	t.Helper()
	ctx := context.Background()
	full, err := SolvePlanCtx[T](ctx, p, op, init, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SolveCtx[T](ctx, s, op, init, Options{Procs: 1, MaxExponentBits: maxBits})
	if err != nil {
		t.Fatal(err)
	}
	for x := range full {
		if !same(full[x], direct.Values[x]) {
			t.Fatalf("%s cell %d: replay %v, SolveCtx %v", op.Name(), x, full[x], direct.Values[x])
		}
	}
	for _, r := range append(ranges, [2]int{0, s.M}, [2]int{s.M / 2, s.M / 2}) {
		part, err := SolvePlanRangeCtx[T](ctx, p, op, init, r[0], r[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range part {
			if !same(v, full[r[0]+k]) {
				t.Fatalf("%s range %v cell %d: %v, full replay %v", op.Name(), r, r[0]+k, v, full[r[0]+k])
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
// CountSquaringCtx at every cell's final node (unwritten cells included),
// the stored layout, the squaring engine's round count, the same
// ErrExponentLimit verdict, replays equal to the sequential loop, and full
// replays, range replays and SolveCtx equal bit for bit.
func FuzzGeneralPlanCounts(f *testing.F) {
	f.Add(encodeSystem(workload.Fibonacci(100)), uint8(0)) // counts past uint64
	f.Add(encodeSystem(workload.Fibonacci(100)), uint8(2))
	doubling := &core.System{M: 3, N: 70, G: make([]int, 70), F: make([]int, 70), H: make([]int, 70)}
	for i := range doubling.G {
		doubling.G[i], doubling.F[i], doubling.H[i] = i%2, i%2, i%2 // f == h: label 2
	}
	f.Add(encodeSystem(doubling), uint8(0))
	f.Add(encodeSystem(doubling), uint8(1))
	// One cell squared 70 times beside an unwritten one: its only stored
	// count is past uint64, which still needs the count table.
	f.Add(encodeSystem(&core.System{M: 2, N: 70, G: make([]int, 70), F: make([]int, 70), H: make([]int, 70)}), uint8(0))
	f.Add([]byte{4}, uint8(0)) // n = 0
	f.Add([]byte{1, 1, 0, 0}, uint8(1))
	f.Add(encodeSystem(workload.RandomGIR(rand.New(rand.NewSource(7)), 9, 40)), uint8(1))
	f.Add(encodeSystem(workload.Scatter(rand.New(rand.NewSource(8)), 48, 6)), uint8(2))
	// All counts 1, with runs of unwritten cells between written ones.
	f.Add(encodeSystem(workload.Scatter(rand.New(rand.NewSource(9)), 100, 20)), uint8(0))
	// Every cell written, counts 1 and 2.
	all := &core.System{M: 16, N: 16, G: make([]int, 16), F: make([]int, 16), H: make([]int, 16)}
	for i := range all.G {
		all.G[i], all.F[i], all.H[i] = i, (i+5)%16, (i+11)%16
	}
	f.Add(encodeSystem(all), uint8(0))
	// Doubling among unwritten cells: counts > 1 and empty spans together.
	mixed := &core.System{M: 40, N: 30, G: make([]int, 30), F: make([]int, 30), H: make([]int, 30)}
	for i := range mixed.G {
		mixed.G[i], mixed.F[i], mixed.H[i] = 3*(i%10), 3*(i%10)+1, 3*(i%10)+1
	}
	f.Add(encodeSystem(mixed), uint8(0))
	// Buckets after the operand cells: unwritten cells before the written
	// window as well as after it, which stores offsets for the window only.
	tail := &core.System{M: 30, N: 20, G: make([]int, 20), F: make([]int, 20), H: make([]int, 20)}
	for i := range tail.G {
		tail.G[i], tail.F[i], tail.H[i] = 20+i%6, i, 20+i%6
	}
	f.Add(encodeSystem(tail), uint8(0))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		s := decodeSystem(data)
		maxBits := [...]int{0, 3, 64}[sel%3]
		p, err := CompilePlanCtx(ctx, s, maxBits, 0)
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
		ranges := unwrittenRanges(checkPlanLayout(t, p, d, dp))
		if p.Rounds() != st.Rounds {
			t.Fatalf("rounds %d, squaring %d", p.Rounds(), st.Rounds)
		}
		op := core.MulMod{M: 1_000_003}
		init := make([]int64, s.M)
		finit := make([]float64, s.M)
		for x := range init {
			init[x] = int64(x * 7919 % 1_000_003)
			finit[x] = 1 + float64(x)/64
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
		checkRoutesAgree[int64](t, s, p, op, init, maxBits, ranges, func(a, b int64) bool { return a == b })
		checkRoutesAgree[float64](t, s, p, core.Float64Mul{}, finit, maxBits, ranges,
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	})
}

// TestPlanWideCounts covers the overflow side table: Fibonacci(100)'s
// counts pass 2^64, replays still match the loop and the engines, and the
// exponent cap rejects it like the squaring engine does.
func TestPlanWideCounts(t *testing.T) {
	ctx := context.Background()
	s := workload.Fibonacci(100)
	p, err := CompilePlanCtx(ctx, s, 16384, 0)
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
	if _, err := CompilePlanCtx(ctx, s, 64, 0); !errors.Is(err, ErrExponentLimit) {
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
	if _, err := CompilePlanCtx(ctx, workload.Fibonacci(64), 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestCompilePlanTermBudget: a one-cell scatter of n iterations builds
// n(n+3)/2 terms for its nodes (node i merges node i-1's i+1 terms, or
// leaf 0's one, with one leaf term), so that budget compiles it and one term less fails with
// ErrCompileBudget, while Scatter(4096, 512), served-general-churn's
// structure, compiles under the budget irserved gives it by default.
func TestCompilePlanTermBudget(t *testing.T) {
	ctx := context.Background()
	const n = 300
	s := workload.Scatter(rand.New(rand.NewSource(1)), n, 1)
	need := n * (n + 3) / 2
	if _, err := CompilePlanCtx(ctx, s, 0, need); err != nil {
		t.Fatalf("budget %d: %v", need, err)
	}
	if _, err := CompilePlanCtx(ctx, s, 0, need-1); !errors.Is(err, ErrCompileBudget) {
		t.Fatalf("budget %d: err %v, want ErrCompileBudget", need-1, err)
	}
	if _, err := CompilePlanCtx(ctx, scatterSystem(), 0, 4<<20+2*4096); err != nil {
		t.Fatalf("Scatter(4096, 512): %v", err)
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
	p, err := CompilePlanCtx(ctx, s, 0, 0)
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

// doubledScatter is a non-unit-count system: Scatter(n, buckets), then
// bucket 0 squared 64 times and every bucket squared once more, so every
// count is at least 2 and bucket 0's pass uint64 into the overflow table.
func doubledScatter(rng *rand.Rand, n, buckets int) *core.System {
	s := workload.Scatter(rng, n, buckets)
	for b := 0; b < buckets+64; b++ {
		c := max(b-64, 0)
		s.G, s.F, s.H = append(s.G, c), append(s.F, c), append(s.H, c)
	}
	s.N = len(s.G)
	return s
}

// TestGeneralPlanRetainedAlloc checks that SizeBytes, the plan cache's
// accounting, is within 10% of the heap a compiled plan keeps alive, for
// both layouts: unit counts (sinks only) and counts past 1 with overflow
// entries. The large rows are 16 times the churn shape, so their few
// megabytes dwarf heap-size-class rounding and runtime noise. The churn
// shape itself, Scatter(4096, 512), must also fit 22,000 bytes: its 4,096
// auxiliary cells, after the 512 buckets, are never written and store
// neither a term nor an offset.
func TestGeneralPlanRetainedAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	for _, c := range []struct {
		name    string
		s       *core.System
		unit    bool
		ceiling int64
	}{
		{"Scatter(4096, 512)", scatterSystem(), true, 22_000},
		{"Scatter(1<<16, 1<<13)", workload.Scatter(rand.New(rand.NewSource(1702)), 1<<16, 1<<13), true, 0},
		{"doubled Scatter(1<<16, 1<<13)", doubledScatter(rand.New(rand.NewSource(1703)), 1<<16, 1<<13), false, 0},
	} {
		base := liveHeap()
		p, err := CompilePlanCtx(context.Background(), c.s, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - base
		t.Logf("%s: SizeBytes %d, retained %d, %d stored terms, %d overflow", c.name, p.SizeBytes(), retained, StoredTerms(p), WideTerms(p))
		if UnitCounts(p) != c.unit || (!c.unit && WideTerms(p) == 0) {
			t.Fatalf("%s: unit counts %v with %d overflow terms, want unit %v", c.name, UnitCounts(p), WideTerms(p), c.unit)
		}
		if d := float64(p.SizeBytes() - retained); d > 0.1*float64(retained) || -d > 0.1*float64(retained) {
			t.Errorf("%s: SizeBytes %d is more than 10%% off the retained %d bytes", c.name, p.SizeBytes(), retained)
		}
		if c.ceiling > 0 && p.SizeBytes() > c.ceiling {
			t.Errorf("%s: SizeBytes %d, ceiling %d", c.name, p.SizeBytes(), c.ceiling)
		}
		runtime.KeepAlive(p)
		runtime.KeepAlive(c.s)
	}
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
		if _, err := CompilePlanCtx(ctx, s, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// countingMonoid counts the calls a replay makes; single-threaded use only.
type countingMonoid struct {
	core.MulMod
	combines, pows, identities int
}

func (c *countingMonoid) Combine(a, b int64) int64 { c.combines++; return c.MulMod.Combine(a, b) }
func (c *countingMonoid) Pow(a int64, k *big.Int) int64 {
	c.pows++
	return c.MulMod.Pow(a, k)
}
func (c *countingMonoid) Identity() int64 { c.identities++; return c.MulMod.Identity() }

// TestReplayFoldsEveryTerm checks that a replay makes one Pow and one
// Combine per trace term, an unwritten cell's (x, 1) included, and one
// Identity per cell: the calls the stored layout must not change.
func TestReplayFoldsEveryTerm(t *testing.T) {
	for _, s := range []*core.System{scatterSystem(), doubledScatter(rand.New(rand.NewSource(3)), 64, 8)} {
		p, err := CompilePlanCtx(context.Background(), s, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		op := &countingMonoid{MulMod: core.MulMod{M: 1_000_003}}
		if _, err := SolvePlanCtx[int64](context.Background(), p, op, make([]int64, s.M), 1); err != nil {
			t.Fatal(err)
		}
		if op.pows != p.NumTerms() || op.combines != p.NumTerms() || op.identities != s.M {
			t.Fatalf("m %d, %d terms: %d Pow, %d Combine, %d Identity calls", s.M, p.NumTerms(), op.pows, op.combines, op.identities)
		}
	}
}

// BenchmarkGeneralPlanReplay is a warm mul-mod replay of the churn shape's
// plan. plan-B reports its SizeBytes beside the replay time, so a layout
// change shows in every benchmark run.
func BenchmarkGeneralPlanReplay(b *testing.B) {
	s := scatterSystem()
	ctx := context.Background()
	p, err := CompilePlanCtx(ctx, s, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	op := core.MulMod{M: 1_000_003}
	init := workload.InitInt64(rand.New(rand.NewSource(1)), s.M, 1_000_003)
	if _, err := SolvePlanCtx[int64](ctx, p, op, init, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolvePlanCtx[int64](ctx, p, op, init, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.SizeBytes()), "plan-B")
}
