package ordinary

import (
	"context"
	"math/rand"
	"testing"

	"indexedrec/internal/core"
)

// sparseScattered builds a dense ordinary system over m cells whose n
// iterations form k chains scattered across the global range with a large
// stride, plus the matching init slices (dense and compact orders agree via
// the sparse Cells list).
func sparseScattered(t *testing.T, n, k, stride int) (*core.System, *core.SparseSystem) {
	t.Helper()
	per := n / k
	m := stride*(n+k) + 1
	g := make([]int, 0, n)
	f := make([]int, 0, n)
	for c := 0; c < k; c++ {
		base := stride * c * (per + 1)
		for j := 0; j < per; j++ {
			g = append(g, base+stride*(j+1))
			f = append(f, base+stride*j)
		}
	}
	s := &core.System{M: m, N: len(g), G: g, F: f}
	sp, err := core.CompressSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, sp
}

// TestSparseForestIsomorphic is the structural half of the sparse
// correctness argument (DESIGN §16): compressing the touched cells through
// the order-preserving rank map yields a chain forest isomorphic to the
// dense one — same links, same init sources, same chain count and maximum
// length — discovered in O(n) over touched cells only.
func TestSparseForestIsomorphic(t *testing.T) {
	s, sp := sparseScattered(t, 512, 4, 1000)
	dense, err := BuildForest(s)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := BuildForest(sp.Compact)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact.Next) != sp.NumCells() {
		t.Fatalf("compact forest sized %d, want touched count %d", len(compact.Next), sp.NumCells())
	}
	if dense.MaxChainLen() != compact.MaxChainLen() {
		t.Fatalf("MaxChainLen: dense %d vs compact %d", dense.MaxChainLen(), compact.MaxChainLen())
	}
	// Every touched global cell's links must map to the compact cell's links
	// through the rank bijection.
	rank := make(map[int]int, len(sp.Cells))
	for r, c := range sp.Cells {
		rank[c] = r
	}
	for r, c := range sp.Cells {
		if dense.Written(c) != compact.Written(r) {
			t.Fatalf("Written diverges at cell %d", c)
		}
		dn, cn := dense.Next[c], compact.Next[r]
		if (dn < 0) != (cn < 0) || (dn >= 0 && rank[int(dn)] != int(cn)) {
			t.Fatalf("Next diverges at cell %d: dense %d compact %d", c, dn, cn)
		}
		di, ci := dense.InitF[c], compact.InitF[r]
		if (di < 0) != (ci < 0) || (di >= 0 && rank[int(di)] != int(ci)) {
			t.Fatalf("InitF diverges at cell %d: dense %d compact %d", c, di, ci)
		}
	}
}

// TestSparsePlanMatchesDense checks the behavioural half: compiling the
// compact system yields the same schedule, chain structure, and — through
// the cells gather — bit-identical values as the dense compile, while the
// compact plan is sized by the touched count, not the global cell count.
func TestSparsePlanMatchesDense(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, k, stride int }{
		{64, 4, 997},   // short chains -> jumping
		{2048, 2, 313}, // long chains -> blocked-scan
	} {
		s, sp := sparseScattered(t, tc.n, tc.k, tc.stride)
		dp, err := CompilePlan(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := CompilePlan(ctx, sp.Compact)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Schedule() != cp.Schedule() {
			t.Fatalf("schedule diverges: dense %q compact %q", dp.Schedule(), cp.Schedule())
		}
		if dp.NumChains() != cp.NumChains() {
			t.Fatalf("chain count diverges: %d vs %d", dp.NumChains(), cp.NumChains())
		}
		// A jumping plan keeps a cell-indexed chain table, so compaction
		// shrinks it. A blocked plan holds touched-cell tables only, so its
		// compact form is never larger; compaction can turn a banded system
		// into a union of runs, whose run form keeps no cell table at all.
		if dp.BlockedScan() && cp.SizeBytes() > dp.SizeBytes() {
			t.Fatalf("blocked compact plan (%d bytes) larger than dense (%d bytes)",
				cp.SizeBytes(), dp.SizeBytes())
		}
		if !dp.BlockedScan() && cp.SizeBytes() >= dp.SizeBytes() {
			t.Fatalf("compact plan (%d bytes) not smaller than dense (%d bytes)",
				cp.SizeBytes(), dp.SizeBytes())
		}

		rng := rand.New(rand.NewSource(7))
		compactInit := make([]int64, sp.NumCells())
		for i := range compactInit {
			compactInit[i] = rng.Int63n(1 << 20)
		}
		fullInit, err := core.ExpandInit(sp, compactInit)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Procs: 4}
		denseRes, err := SolveCtx[int64](ctx, s, core.IntAdd{}, fullInit, opt)
		if err != nil {
			t.Fatal(err)
		}
		compactRes, err := SolveCtx[int64](ctx, sp.Compact, core.IntAdd{}, compactInit, opt)
		if err != nil {
			t.Fatal(err)
		}
		gathered, err := core.GatherTouched(sp, denseRes.Values)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gathered {
			if gathered[i] != compactRes.Values[i] {
				t.Fatalf("n=%d: values diverge at compact id %d (cell %d)", tc.n, i, sp.Cells[i])
			}
		}
	}
}
