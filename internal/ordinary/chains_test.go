package ordinary_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// oracleForest is the forest construction BuildForest replaced: a hash-set
// distinctness check, then core.ComputeDeps' FPrev to decide each write's
// chain successor, into the wide layout BuildForest used to keep ([]int
// links, a Written flag per cell and a copy of the written cells). Kept
// test-local as the equivalence oracle.
type wideForest struct {
	Next, InitF []int
	Written     []bool
	Cells       []int
}

func oracleForest(s *core.System) (*wideForest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Ordinary() {
		return nil, fmt.Errorf("%w: %v", ordinary.ErrNotOrdinary, s)
	}
	seen := make(map[int]struct{}, s.N)
	for _, g := range s.G {
		if _, dup := seen[g]; dup {
			return nil, fmt.Errorf("%w: %v", ordinary.ErrGNotDistinct, s)
		}
		seen[g] = struct{}{}
	}
	deps := core.ComputeDeps(s)
	fr := &wideForest{
		Next:    make([]int, s.M),
		InitF:   make([]int, s.M),
		Written: make([]bool, s.M),
		Cells:   make([]int, 0, s.N),
	}
	for x := range fr.Next {
		fr.Next[x], fr.InitF[x] = -1, -1
	}
	for i := 0; i < s.N; i++ {
		x := s.G[i]
		fr.Written[x] = true
		fr.Cells = append(fr.Cells, x)
		if deps.FPrev[i] >= 0 {
			fr.Next[x] = s.F[i]
		} else {
			fr.InitF[x] = s.F[i]
		}
	}
	return fr, nil
}

// sameForest compares the lean forest of s against the oracle field by
// field: Next and InitF per cell, Written as derived, and the oracle's Cells
// against s.G, which the lean forest uses in their place.
func sameForest(s *core.System, got *ordinary.Forest, want *wideForest) error {
	if len(got.Next) != len(want.Next) || len(got.InitF) != len(want.InitF) {
		return fmt.Errorf("shapes differ: m %d/%d vs %d", len(got.Next), len(got.InitF), len(want.Next))
	}
	for x := range want.Next {
		if int(got.Next[x]) != want.Next[x] || int(got.InitF[x]) != want.InitF[x] || got.Written(x) != want.Written[x] {
			return fmt.Errorf("cell %d: (Next %d, InitF %d, Written %v) vs (%d, %d, %v)",
				x, got.Next[x], got.InitF[x], got.Written(x), want.Next[x], want.InitF[x], want.Written[x])
		}
	}
	return sameInts(s.G, want.Cells)
}

// TestBuildForestMatchesDepsOracle checks the single-pass forest against the
// ComputeDeps oracle on the workload generators' shapes, on systems seeded
// with self-reads f(i) = g(i), and on duplicate-g inputs (same error).
func TestBuildForestMatchesDepsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	var systems []*core.System
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(300)
		systems = append(systems,
			workload.RandomOrdinary(rng, m, rng.Intn(m+1)),
			workload.Chains(rng.Intn(400), 1+rng.Intn(8)),
			workload.SparseZipf(rng, 1000+rng.Intn(100000), 1+rng.Intn(200)).Compact)
		self := workload.RandomOrdinary(rng, m, rng.Intn(m+1))
		for i := range self.F {
			if rng.Intn(3) == 0 {
				self.F[i] = self.G[i]
			}
		}
		systems = append(systems, self)
	}
	for k, s := range systems {
		want, werr := oracleForest(s)
		got, err := ordinary.BuildForest(s)
		if werr != nil || err != nil {
			t.Fatalf("system %d: oracle err %v, BuildForest err %v", k, werr, err)
		}
		if d := sameForest(s, got, want); d != nil {
			t.Fatalf("system %d (%v): %v", k, s, d)
		}
		// An explicit H = G takes the validate-first path to the same forest.
		withH := s.Clone()
		withH.H = append([]int(nil), s.G...)
		if got, err = ordinary.BuildForest(withH); err != nil {
			t.Fatalf("system %d with H = G: %v", k, err)
		}
		if d := sameForest(s, got, want); d != nil {
			t.Fatalf("system %d (%v) with H = G: %v", k, s, d)
		}

		if s.N < 2 {
			continue
		}
		dup := s.Clone()
		i := 1 + rng.Intn(s.N-1)
		dup.G[i] = dup.G[rng.Intn(i)]
		_, werr = oracleForest(dup)
		_, err = ordinary.BuildForest(dup)
		if !errors.Is(err, ordinary.ErrGNotDistinct) || err.Error() != werr.Error() {
			t.Fatalf("system %d duplicate g: err %v, oracle %v", k, err, werr)
		}
	}
}

// TestForestErrorPrecedence pins the error text of defective systems, as
// the validate-then-scan forest reported it: Validate's checks (every G
// before any F, then H) outrank non-ordinary H, which outranks a duplicate
// g — whichever defect the single scan meets first. BuildForest, CompilePlan
// and SolveCtx must all report exactly these.
func TestForestErrorPrecedence(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *core.System
		want string
	}{
		{"F out of range before G out of range",
			&core.System{M: 4, N: 3, G: []int{1, 2, 7}, F: []int{9, 0, 1}},
			"core: invalid IR system: G[2] = 7 out of range [0,4)"},
		{"duplicate g before F out of range",
			&core.System{M: 4, N: 3, G: []int{1, 1, 2}, F: []int{0, 0, -1}},
			"core: invalid IR system: F[2] = -1 out of range [0,4)"},
		{"duplicate g alone",
			&core.System{M: 4, N: 3, G: []int{1, 2, 1}, F: []int{0, 1, 2}},
			"ordinary: g is not distinct: IR{ordinary, n=3, m=4}"},
		{"duplicate g before H != G",
			&core.System{M: 4, N: 3, G: []int{1, 1, 2}, F: []int{0, 1, 2}, H: []int{1, 1, 3}},
			"ordinary: system is not in ordinary form (H != G): IR{general, n=3, m=4}"},
		{"short F",
			&core.System{M: 4, N: 3, G: []int{1, 1, 2}, F: []int{0, 1}},
			"core: invalid IR system: len(G)=3 len(F)=2, want N=3"},
		{"empty cell range",
			&core.System{M: 0, N: 0},
			"core: invalid IR system: M = 0, want > 0"},
	} {
		_, err := ordinary.BuildForest(c.s)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: BuildForest err %v, want %q", c.name, err, c.want)
		}
		_, err = ordinary.CompilePlan(context.Background(), c.s)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: CompilePlan err %v, want %q", c.name, err, c.want)
		}
		_, err = ordinary.SolveCtx[int64](context.Background(), c.s, core.IntAdd{}, make([]int64, max(c.s.M, 0)), ordinary.Options{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: SolveCtx err %v, want %q", c.name, err, c.want)
		}
	}
}

// compileBytesPerCell is the TotalAlloc budget of compiling a long chain
// through the write-chain forest, per cell. The int32 forest temporary
// (Next and InitF, 8 B/cell) and the blocked schedule (reverse links and
// cell order, 8 B/cell) need ~16 B/cell. Copying the written cells again
// (+8), widening the forest back to []int with a Written flag (the earlier
// forest spent ~33 B/cell in all), a hash set or a dependence-array pass
// (an earlier path spent ~109 B/cell) breaks it.
const compileBytesPerCell = 20

// runCompileBytesPerCell is the same budget on the run path, which
// allocates only the run-form plan: its per-run and per-segment tables
// (12 B per 256-cell segment, ~0.05 B/cell). A cell table (4 B/cell), the
// forest, or any cell-sized temporary breaks it.
const runCompileBytesPerCell = 0.1

// compileAllocPerCell compiles s with the default schedule and returns the
// plan and the heap it allocated per cell.
func compileAllocPerCell(t *testing.T, s *core.System) (*ordinary.Plan, float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := ordinary.CompilePlan(context.Background(), s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(s.M)
	t.Logf("compile %v (%s): %.3f B/cell", s, p.Schedule(), perCell)
	return p, perCell
}

// permutedChain is workload.Chain(n) with its cell ids permuted by a fixed
// permutation: still one long path, but with scattered cells, so only the
// forest path compiles it, and to the gather form.
func permutedChain(n int) *core.System {
	s := workload.Chain(n)
	perm := rand.New(rand.NewSource(18)).Perm(s.M)
	for i := range s.G {
		s.G[i], s.F[i] = perm[s.G[i]], perm[s.F[i]]
	}
	return s
}

// TestCompileChainAllocPerCell is the forest path's compile-allocation
// gate: a 2^18-iteration chain whose cell ids are permuted by a fixed
// permutation is still one long path, so it compiles to the blocked scan,
// but its g is not increasing, so only the forest path takes it. It must
// stay within compileBytesPerCell of heap per cell.
func TestCompileChainAllocPerCell(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := permutedChain(1 << 18)
	if ordinary.CompileRuns(s) != nil {
		t.Fatal("the permuted chain took the run path")
	}
	p, perCell := compileAllocPerCell(t, s)
	if p.Schedule() != "blocked-scan" {
		t.Fatalf("permuted chain compiled to %s, want blocked-scan", p.Schedule())
	}
	if perCell > compileBytesPerCell {
		t.Fatalf("compile allocated %.1f B/cell, budget %d", perCell, compileBytesPerCell)
	}
}

// TestCompileRunAllocPerCell is the run path's compile-allocation gate: a
// 2^18-iteration contiguous chain must compile on the run path within
// runCompileBytesPerCell of heap per cell.
func TestCompileRunAllocPerCell(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := workload.Chain(1 << 18)
	if ordinary.CompileRuns(s) == nil {
		t.Fatal("the contiguous chain did not take the run path")
	}
	p, perCell := compileAllocPerCell(t, s)
	if p.Schedule() != "blocked-scan" {
		t.Fatalf("chain compiled to %s, want blocked-scan", p.Schedule())
	}
	if perCell > runCompileBytesPerCell {
		t.Fatalf("compile allocated %.3f B/cell, budget %.1f", perCell, runCompileBytesPerCell)
	}
}

// TestChainPlanMatchesCompilePlan checks that ChainPlan, which builds the
// prefix-scan chain's plan from m alone, returns exactly CompilePlan's plan
// of the tabulated chain, on both sides of the blocked-scan threshold.
func TestChainPlanMatchesCompilePlan(t *testing.T) {
	ctx := context.Background()
	for _, m := range []int{2, 3, 100, 256, 257, 258, 1000, 5000} {
		got, err := ordinary.ChainPlan(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ordinary.CompilePlan(ctx, workload.Chain(m-1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d: ChainPlan (%s, %d B) != CompilePlan (%s, %d B)",
				m, got.Schedule(), got.SizeBytes(), want.Schedule(), want.SizeBytes())
		}
	}
}

func BenchmarkCompileChain(b *testing.B) {
	s := workload.Chain(1 << 20)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ordinary.CompilePlan(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
}

// oracleChains is the chain decomposition plans used to keep: chains are the
// forest components, found by walking Next to each terminal with path
// marking, deduplicated through a map and numbered by sorting the terminal
// cells. Kept test-local as the oracle of the plans' chain tables.
func oracleChains(fr *wideForest) (chainOf []int32, sizes []int) {
	m := len(fr.Next)
	rootOf := make([]int32, m)
	for x := range rootOf {
		rootOf[x] = -1
	}
	var path []int
	for _, x := range fr.Cells {
		y := x
		path = path[:0]
		for rootOf[y] < 0 && fr.Next[y] >= 0 {
			path = append(path, y)
			y = fr.Next[y]
		}
		r := rootOf[y]
		if r < 0 {
			r = int32(y)
			rootOf[y] = r
		}
		for _, c := range path {
			rootOf[c] = r
		}
	}
	var terminals []int
	seen := make(map[int32]int)
	for _, x := range fr.Cells {
		if _, ok := seen[rootOf[x]]; !ok {
			seen[rootOf[x]] = 0
			terminals = append(terminals, int(rootOf[x]))
		}
	}
	sort.Ints(terminals)
	for id, r := range terminals {
		seen[int32(r)] = id
	}
	chainOf = make([]int32, m)
	for x := range chainOf {
		chainOf[x] = -1
	}
	sizes = make([]int, len(terminals))
	for _, x := range fr.Cells {
		id := seen[rootOf[x]]
		chainOf[x] = int32(id)
		sizes[id]++
	}
	return chainOf, sizes
}

// oracleRoots is the root propagation the pointer-jumping recorder used to
// run alongside its pointers: rt[x] ← rt[nx[x]] until every pointer ends.
func oracleRoots(fr *wideForest) []int {
	m := len(fr.Next)
	nx, rt := make([]int, m), make([]int, m)
	for x := range nx {
		switch {
		case !fr.Written[x]:
			nx[x], rt[x] = -1, x
		case fr.Next[x] >= 0:
			nx[x], rt[x] = fr.Next[x], x
		default:
			nx[x], rt[x] = -1, fr.InitF[x]
		}
	}
	for {
		nx2, rt2 := append([]int(nil), nx...), append([]int(nil), rt...)
		active := false
		for _, x := range fr.Cells {
			if n := nx[x]; n >= 0 {
				nx2[x], rt2[x] = nx[n], rt[n]
				active = true
			}
		}
		if !active {
			return rt
		}
		nx, rt = nx2, rt2
	}
}

// TestChainTablesMatchOracle checks the plans' derived chain tables —
// ChainOf, ChainSizes, Roots and chain-range shard replays — against the
// forest-walking oracles, on path-shaped, multi-chain, tree-shaped and
// sparse compact systems, under both schedules where they apply.
func TestChainTablesMatchOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1401))
	systems := []*core.System{workload.Chain(0), workload.Chain(1), workload.Chain(700)}
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(400)
		systems = append(systems,
			workload.Chains(rng.Intn(900), 1+rng.Intn(9)),
			workload.RandomOrdinary(rng, m, rng.Intn(m+1)),
			workload.SparseZipf(rng, 1000+rng.Intn(100000), 1+rng.Intn(300)).Compact)
	}
	blocked := 0
	for k, s := range systems {
		fr, err := oracleForest(s)
		if err != nil {
			t.Fatal(err)
		}
		wantOf, wantSizes := oracleChains(fr)
		wantRoots := oracleRoots(fr)
		init := make([]string, s.M)
		for x := range init {
			init[x] = fmt.Sprintf("%d.", x)
		}
		seq := core.RunSequential[string](s, core.Concat{}, init)
		for _, sched := range []ordinary.Schedule{ordinary.ScheduleJumping, ordinary.ScheduleBlocked} {
			p, err := ordinary.CompilePlanOpts(ctx, s, ordinary.PlanOptions{Schedule: sched})
			if sched == ordinary.ScheduleBlocked && err != nil {
				continue // a branching forest has no blocked schedule
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.BlockedScan() {
				blocked++
			}
			name := fmt.Sprintf("system %d (%v) %s", k, s, p.Schedule())
			if err := sameInts(p.ChainOf(), wantOf); err != nil {
				t.Fatalf("%s ChainOf: %v", name, err)
			}
			if err := sameInts(p.ChainSizes(), wantSizes); err != nil {
				t.Fatalf("%s ChainSizes: %v", name, err)
			}
			if err := sameInts(p.Roots(), wantRoots); err != nil {
				t.Fatalf("%s Roots: %v", name, err)
			}
			nc := p.NumChains()
			for _, r := range [][2]int{{0, nc}, {0, nc / 2}, {nc / 2, nc}, {nc / 3, nc/3 + 1}} {
				if r[1] > nc {
					continue
				}
				sr, err := ordinary.SolvePlanChainsCtx[string](ctx, p, core.Concat{}, init, r[0], r[1], ordinary.Options{Procs: 3})
				if err != nil {
					t.Fatal(err)
				}
				var wantCells []int
				for x, c := range wantOf {
					if int(c) >= r[0] && int(c) < r[1] {
						wantCells = append(wantCells, x)
					}
				}
				if err := sameInts(sr.Cells, wantCells); err != nil {
					t.Fatalf("%s chains [%d,%d) cells: %v", name, r[0], r[1], err)
				}
				for i, x := range sr.Cells {
					if sr.Values[i] != seq[x] {
						t.Fatalf("%s chains [%d,%d) cell %d: %q, sequential %q", name, r[0], r[1], x, sr.Values[i], seq[x])
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no system compiled to a blocked schedule")
	}
}

func sameInts[A, B int | int32](got []A, want []B) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if int(got[i]) != int(want[i]) {
			return fmt.Errorf("[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// Retained-heap budgets of compiled plans, per cell. A gather-form blocked
// plan keeps its chain-major cell order (4 B/cell) plus per-chain and
// per-segment tables; a run-form one keeps only those tables (12 B per
// 256-cell segment, ~0.05 B/cell); a jumping plan keeps its rounds and a
// 4 B/cell chain table. Keeping the write-chain forest or a roots array
// resident (~37 and ~42 B/cell) breaks all three, and a cell table in the
// run form breaks its budget. A pooled blocked arena adds two int64
// segment-summary arrays (16 B per segment, ~0.06 B/cell), which only the
// run form's pooled budget has to allow for separately.
const (
	retainedRunPerCell       = 0.1
	retainedRunPooledPerCell = 0.2
	retainedBlockedPerCell   = 8
	retainedJumpingPerCell   = 16
)

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPlanRetainedAllocPerCell is the retained-memory gate: the heap a
// compiled plan keeps alive must stay within the per-cell budget, and
// SizeBytes — the plan cache's accounting — within 10% of it. The gate also
// covers the arena a pooled replay leaves in the plan's pool, which must
// hold no cell-sized value array.
func TestPlanRetainedAllocPerCell(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1402))
	for _, c := range []struct {
		name           string
		s              *core.System
		sched          string
		budget, pooled float64
	}{
		// The run-form plan is ~0.05 B/cell, so the row takes 2^22 cells to
		// keep its ~200 KB plan well above heap-measurement noise for the
		// 10% SizeBytes check (at 2^20 a 49 KB plan once measured 16% off).
		{"Chain(1<<22)", workload.Chain(1 << 22), "blocked-scan", retainedRunPerCell, retainedRunPooledPerCell},
		{"permuted Chain(1<<20)", permutedChain(1 << 20), "blocked-scan", retainedBlockedPerCell, retainedBlockedPerCell},
		{"RandomOrdinary(1<<18)", workload.RandomOrdinary(rng, 1<<18, 1<<18), "pointer-jumping", retainedJumpingPerCell, retainedJumpingPerCell},
	} {
		base := liveHeap()
		p, err := ordinary.CompilePlan(ctx, c.s)
		if err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - base
		perCell := float64(retained) / float64(c.s.M)
		t.Logf("%s (%s): retains %.2f B/cell, SizeBytes %d of measured %d", c.name, p.Schedule(), perCell, p.SizeBytes(), retained)
		if p.Schedule() != c.sched {
			t.Fatalf("%s: schedule %s, want %s", c.name, p.Schedule(), c.sched)
		}
		if perCell > c.budget {
			t.Errorf("%s: plan retains %.2f B/cell, budget %.1f", c.name, perCell, c.budget)
		}
		if d := float64(p.SizeBytes() - retained); d > 0.1*float64(retained) || -d > 0.1*float64(retained) {
			t.Errorf("%s: SizeBytes %d is more than 10%% off the retained %d bytes", c.name, p.SizeBytes(), retained)
		}

		init := make([]int64, c.s.M)
		if _, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init, ordinary.Options{Procs: 2}); err != nil {
			t.Fatal(err)
		}
		init = nil
		pooled := float64(liveHeap()-base) / float64(c.s.M)
		t.Logf("%s: plan plus pooled scratch retains %.2f B/cell", c.name, pooled)
		if pooled > c.pooled {
			t.Errorf("%s: plan plus pooled scratch retains %.2f B/cell, budget %.1f", c.name, pooled, c.pooled)
		}
		runtime.KeepAlive(p)
	}
}
