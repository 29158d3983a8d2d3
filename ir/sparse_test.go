package ir

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"indexedrec/internal/core"
)

// sparseTestInit returns deterministic compact-order initial values.
func sparseTestInit(rng *rand.Rand, n int) []int64 {
	init := make([]int64, n)
	for i := range init {
		init[i] = rng.Int63n(1<<20) + 2
	}
	return init
}

// sparseBands builds k strided chains of per iterations each, scattered
// over a large global range (a small local twin of workload.SparseBanded,
// which ir's tests cannot import without a cycle).
func sparseBands(t *testing.T, m, per, k, stride int) *SparseSystem {
	t.Helper()
	g := make([]int, 0, per*k)
	f := make([]int, 0, per*k)
	for b := 0; b < k; b++ {
		base := b * (m / k)
		for j := 0; j < per; j++ {
			g = append(g, base+stride*(j+1))
			f = append(f, base+stride*j)
		}
	}
	sp, err := NewSparseSystem(m, g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// sparseStrided returns a sparse ordinary system: one chain of n iterations
// strided across a global array of stride*(n+1)+1 cells, plus a compact init.
func sparseStrided(t *testing.T, n, stride int) (*SparseSystem, []int64) {
	t.Helper()
	g := make([]int, n)
	f := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = stride * (i + 1)
		f[i] = stride * i
	}
	sp, err := NewSparseSystem(stride*(n+1)+1, g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	return sp, sparseTestInit(rng, sp.NumCells())
}

// denseReference solves the dense expansion of sp with solve and gathers
// the touched cells back into compact order: the reference every compact
// solve must reproduce bit for bit.
func denseReference(t *testing.T, sp *SparseSystem, init []int64, solve func(*System, []int64) []int64) []int64 {
	t.Helper()
	full, err := core.ExpandInit(sp, init)
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := core.GatherTouched(sp, solve(sp.Dense(), full))
	if err != nil {
		t.Fatal(err)
	}
	return gathered
}

func TestSolveSparseOrdinaryMatchesDense(t *testing.T) {
	ctx := context.Background()
	sp, init := sparseStrided(t, 600, 997) // long chain -> blocked-scan eligible
	fast, err := SolveSparseOrdinaryCtx[int64](ctx, sp, IntAdd{}, init, SolveOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := denseReference(t, sp, init, func(s *System, full []int64) []int64 {
		res, err := SolveOrdinaryCtx[int64](ctx, s, IntAdd{}, full, SolveOptions{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	})
	if len(fast.Values) != sp.NumCells() {
		t.Fatalf("value length %d, want %d", len(fast.Values), sp.NumCells())
	}
	for i := range fast.Values {
		if fast.Values[i] != want[i] {
			t.Fatalf("sparse/dense diverge at compact id %d", i)
		}
	}
}

func TestSolveSparseGeneralMatchesDense(t *testing.T) {
	ctx := context.Background()
	// A strided general system with H: exponential traces kept tiny.
	n, stride := 12, 1000
	g := make([]int, n)
	f := make([]int, n)
	h := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = stride * (i + 2)
		f[i] = stride * (i + 1)
		h[i] = stride * i
	}
	sp, err := NewSparseSystem(stride*(n+2)+1, g, f, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	init := sparseTestInit(rng, sp.NumCells())
	op := MulMod{M: 1_000_003}

	fast, err := SolveSparseGeneralCtx[int64](ctx, sp, op, init, SolveOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := denseReference(t, sp, init, func(s *System, full []int64) []int64 {
		res, err := SolveGeneralCtx[int64](ctx, s, op, full, SolveOptions{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	})
	for i := range fast.Values {
		if fast.Values[i] != want[i] {
			t.Fatalf("sparse/dense general diverge at compact id %d", i)
		}
	}
	// Power traces name global touched cells.
	for _, terms := range fast.Powers {
		for _, term := range terms {
			if term.Cell%stride != 0 {
				t.Fatalf("power trace names cell %d: not a global touched cell", term.Cell)
			}
		}
	}
}

func TestSparseFingerprint(t *testing.T) {
	sp, _ := sparseStrided(t, 100, 997)
	fp := SparseFingerprint(FamilyOrdinary, sp, 0)
	if fp != SparseFingerprint(FamilyOrdinary, sp, 0) {
		t.Fatal("fingerprint not deterministic")
	}
	if fp[:len("sparse-ordinary:")] != "sparse-ordinary:" {
		t.Fatalf("fingerprint %q lacks the sparse-ordinary prefix", fp)
	}
	// Distinct from the dense fingerprint of the compact system.
	dense := PlanFingerprint(FamilyOrdinary, sp.Compact.N, sp.Compact.M, sp.Compact.G, sp.Compact.F, nil, 0)
	if fp == dense {
		t.Fatal("sparse fingerprint collides with the compact dense one")
	}
	// Same compact structure at a different global size or cell placement
	// is a different plan key.
	moved := sp.Clone()
	moved.M++
	if SparseFingerprint(FamilyOrdinary, moved, 0) == fp {
		t.Fatal("global M not part of the fingerprint")
	}
	shifted := sp.Clone()
	shifted.Cells[0]++
	if SparseFingerprint(FamilyOrdinary, shifted, 0) == fp {
		t.Fatal("cells not part of the fingerprint")
	}
}

func TestCompileSparsePlan(t *testing.T) {
	ctx := context.Background()
	sp, init := sparseStrided(t, 600, 997)
	p, err := CompileSparseCtx(ctx, sp, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sparse() {
		t.Fatal("plan not marked sparse")
	}
	if p.M() != sp.NumCells() || p.GlobalM() != sp.M || p.N() != sp.Compact.N {
		t.Fatalf("dims: M=%d GlobalM=%d N=%d", p.M(), p.GlobalM(), p.N())
	}
	if len(p.TouchedCells()) != sp.NumCells() {
		t.Fatal("TouchedCells length mismatch")
	}
	if p.Family() != FamilyOrdinary {
		t.Fatalf("sparse plan family %v, want the ordinary family its SparseFingerprint names", p.Family())
	}
	if p.Schedule() != "blocked-scan" {
		t.Fatalf("schedule %q, want blocked-scan for a 600-long chain", p.Schedule())
	}

	// Dense plans keep GlobalM == M and a nil touched list.
	dp, err := CompileCtx(ctx, sp.Compact, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Sparse() || dp.TouchedCells() != nil || dp.GlobalM() != dp.M() {
		t.Fatal("dense plan carries sparse tags")
	}

	direct, err := SolveSparseOrdinaryCtx[int64](ctx, sp, IntAdd{}, init, SolveOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveCtx(ctx, PlanData{Op: "int64-add", InitInt: init, Opts: SolveOptions{Procs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Values {
		if sol.ValuesInt[i] != direct.Values[i] {
			t.Fatalf("plan replay diverges at compact id %d", i)
		}
	}

}

func TestSparsePlanSharding(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	sp := sparseBands(t, 5_000_000, 256, 8, 37)
	init := sparseTestInit(rng, sp.NumCells())
	p, err := CompileSparseCtx(ctx, sp, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := PlanData{Op: "int64-add", InitInt: init, Opts: SolveOptions{Procs: 2}}
	whole, err := p.SolveCtx(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	shards := p.Partition(3)
	parts := make([]*ShardSolution, len(shards))
	for i, sh := range shards {
		parts[i], err = p.SolveShardCtx(ctx, data, sh)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := p.MergeShards(data, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.ValuesInt) != sp.NumCells() {
		t.Fatalf("merged length %d, want %d", len(merged.ValuesInt), sp.NumCells())
	}
	for i := range whole.ValuesInt {
		if merged.ValuesInt[i] != whole.ValuesInt[i] {
			t.Fatalf("sharded merge diverges at compact id %d", i)
		}
	}
}

func TestSparseWireRoundTrip(t *testing.T) {
	sp, _ := sparseStrided(t, 50, 31)
	w := WireFromSparse(sp)
	if !w.IsSparse() {
		t.Fatal("wire form not sparse")
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back SystemWire
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Sparse()
	if err != nil {
		t.Fatal(err)
	}
	if got.M != sp.M || got.NumCells() != sp.NumCells() {
		t.Fatal("round trip changed shape")
	}
	for i := range sp.Cells {
		if got.Cells[i] != sp.Cells[i] {
			t.Fatal("round trip changed cells")
		}
	}
	for i := range sp.Compact.G {
		if got.Compact.G[i] != sp.Compact.G[i] || got.Compact.F[i] != sp.Compact.F[i] {
			t.Fatal("round trip changed maps")
		}
	}

	// System() on a sparse wire must refuse (compact ids would misread).
	if _, err := back.System(); !errors.Is(err, ErrInvalidSparse) {
		t.Fatalf("System() on sparse wire: %v, want ErrInvalidSparse", err)
	}
	// Sparse() on a dense wire must refuse symmetrically.
	dw := WireFromSystem(sp.Dense())
	if _, err := dw.Sparse(); !errors.Is(err, ErrInvalidSparse) {
		t.Fatalf("Sparse() on dense wire: %v, want ErrInvalidSparse", err)
	}
	// Malformed cell lists wrap ErrInvalidSparse.
	bad := w
	bad.Cells = append([]int(nil), w.Cells...)
	bad.Cells[0], bad.Cells[1] = bad.Cells[1], bad.Cells[0]
	if _, err := bad.Sparse(); !errors.Is(err, ErrInvalidSparse) {
		t.Fatalf("unsorted cells: %v, want ErrInvalidSparse", err)
	}
}
