package ordinary_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// oracleForest is the forest construction BuildForest replaced: a hash-set
// distinctness check, then core.ComputeDeps' FPrev to decide each write's
// chain successor. Kept test-local as the equivalence oracle.
func oracleForest(s *core.System) (*ordinary.Forest, error) {
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
	fr := &ordinary.Forest{
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

func sameForest(a, b *ordinary.Forest) error {
	if len(a.Next) != len(b.Next) || len(a.Cells) != len(b.Cells) {
		return fmt.Errorf("shapes differ: m %d/%d, cells %d/%d", len(a.Next), len(b.Next), len(a.Cells), len(b.Cells))
	}
	for x := range a.Next {
		if a.Next[x] != b.Next[x] || a.InitF[x] != b.InitF[x] || a.Written[x] != b.Written[x] {
			return fmt.Errorf("cell %d: (Next %d, InitF %d, Written %v) vs (%d, %d, %v)",
				x, a.Next[x], a.InitF[x], a.Written[x], b.Next[x], b.InitF[x], b.Written[x])
		}
	}
	for k := range a.Cells {
		if a.Cells[k] != b.Cells[k] {
			return fmt.Errorf("Cells[%d]: %d vs %d", k, a.Cells[k], b.Cells[k])
		}
	}
	return nil
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
		if d := sameForest(got, want); d != nil {
			t.Fatalf("system %d (%v): %v", k, s, d)
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

// compileBytesPerCell is the TotalAlloc budget of compiling a long chain,
// per cell. The forest, roots and blocked schedule need ~41 B/cell; a hash
// set or a dependence-array pass in compile (the old path spent ~109 B/cell)
// breaks it.
const compileBytesPerCell = 56

// TestCompileChainAllocPerCell is the compile-allocation gate: compiling a
// 2^18-iteration chain must stay within compileBytesPerCell of heap per cell.
func TestCompileChainAllocPerCell(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := workload.Chain(1 << 18)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := ordinary.CompilePlan(context.Background(), s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(s.M)
	t.Logf("compile %v (%s): %.1f B/cell", s, p.Schedule(), perCell)
	if perCell > compileBytesPerCell {
		t.Fatalf("compile allocated %.1f B/cell, budget %d", perCell, compileBytesPerCell)
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
