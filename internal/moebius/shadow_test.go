package moebius_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/moebius"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// oracleShadow is the shadow rewrite buildShadowSystem replaced:
// core.ComputeDeps plus two hash maps. Kept test-local as the equivalence
// oracle.
func oracleShadow(m int, g, f []int) (*core.System, map[int]int) {
	n := len(g)
	sys := &core.System{M: m, N: n, G: append([]int(nil), g...), F: make([]int, n)}
	deps := core.ComputeDeps(&core.System{M: m, N: n, G: g, F: f})
	shadowOf := make(map[int]int)
	origOf := make(map[int]int)
	for i := 0; i < n; i++ {
		fc := f[i]
		if deps.FPrev[i] < 0 && deps.LastWriter[fc] >= 0 {
			sh, ok := shadowOf[fc]
			if !ok {
				sh = sys.M
				sys.M++
				shadowOf[fc] = sh
				origOf[sh] = fc
			}
			sys.F[i] = sh
		} else {
			sys.F[i] = fc
		}
	}
	return sys, origOf
}

// TestShadowSystemMatchesOracle checks that the table-based shadow rewrite
// produces the same rewritten F, cell count and first-seen shadow numbering
// as the ComputeDeps/map oracle, on the workload generators' shapes plus
// self-reads f(i) = g(i).
func TestShadowSystemMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
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
		want, wantOrig := oracleShadow(s.M, s.G, s.F)
		got, origOf, err := moebius.BuildShadowSystem(s.M, s.G, s.F)
		if err != nil {
			t.Fatalf("system %d: %v", k, err)
		}
		if got.M != want.M || got.N != want.N || len(origOf) != len(wantOrig) {
			t.Fatalf("system %d: M=%d N=%d shadows=%d, want M=%d N=%d shadows=%d",
				k, got.M, got.N, len(origOf), want.M, want.N, len(wantOrig))
		}
		for i := range want.F {
			if got.F[i] != want.F[i] || got.G[i] != want.G[i] {
				t.Fatalf("system %d iteration %d: (g %d, f %d), want (%d, %d)",
					k, i, got.G[i], got.F[i], want.G[i], want.F[i])
			}
		}
		for x := 0; x < got.M; x++ {
			orig, ok := wantOrig[x]
			if !ok {
				orig = x
			}
			if r := moebius.ShadowOrig(x, s.M, origOf); r != orig {
				t.Fatalf("system %d: cell %d resolves to %d, want %d", k, x, r, orig)
			}
		}
	}
}

// oracleCheckMaps is the hash-set index-map check Validate and CompilePlan
// used to run, interleaving range and distinctness checks per iteration.
func oracleCheckMaps(m int, g, f []int) error {
	seen := make(map[int]struct{}, len(g))
	for i := range g {
		if g[i] < 0 || g[i] >= m || f[i] < 0 || f[i] >= m {
			return fmt.Errorf("%w: index out of range at iteration %d", moebius.ErrBadSystem, i)
		}
		if _, dup := seen[g[i]]; dup {
			return fmt.Errorf("%w: g not distinct (cell %d)", moebius.ErrBadSystem, g[i])
		}
		seen[g[i]] = struct{}{}
	}
	return nil
}

// TestIndexMapCheckMatchesOracle checks that Validate and CompilePlan report
// the same first defect as the interleaved map check on inputs mixing
// duplicates with out-of-range and negative ids.
func TestIndexMapCheckMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1304))
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(16)
		n := rng.Intn(12)
		g, f := make([]int, n), make([]int, n)
		for i := range g {
			g[i], f[i] = rng.Intn(m+3)-1, rng.Intn(m+2)-1
		}
		want := errText(oracleCheckMaps(m, g, f))
		ms := moebius.NewLinear(m, g, f, make([]float64, n), make([]float64, n))
		if got := errText(ms.Validate()); got != want {
			t.Fatalf("Validate(m=%d, g=%v, f=%v) = %s, want %s", m, g, f, got, want)
		}
		if _, err := moebius.CompilePlan(context.Background(), m, g, f); want != "<nil>" && errText(err) != want {
			t.Fatalf("CompilePlan(m=%d, g=%v, f=%v) = %v, want %s", m, g, f, err, want)
		}
	}
}

// compileMoebiusBytesPerCell is the TotalAlloc budget of compiling a linear
// chain through moebius.CompilePlan, per cell. The recorded pointer-jumping
// rounds (which the Möbius layer pins) and the int32 forest and pointer
// temporaries take ~202 B/cell; one hash set over g adds ~36 B/cell and
// breaks the budget, as the wide []int forest and pointers (~227 B/cell)
// and the old map-and-ComputeDeps compile (~790 B/cell) do.
const compileMoebiusBytesPerCell = 224

// TestCompileMoebiusAllocPerCell is the Möbius compile-allocation gate on a
// 2^16-iteration linear chain.
func TestCompileMoebiusAllocPerCell(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	s := workload.Chain(1 << 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := moebius.CompilePlan(context.Background(), s.M, s.G, s.F)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(s.M)
	t.Logf("moebius compile %v: %.1f B/cell", s, perCell)
	if perCell > compileMoebiusBytesPerCell {
		t.Fatalf("compile allocated %.1f B/cell, budget %d", perCell, compileMoebiusBytesPerCell)
	}
}

func BenchmarkCompileMoebius(b *testing.B) {
	s := workload.Chain(1 << 18)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := moebius.CompilePlan(ctx, s.M, s.G, s.F); err != nil {
			b.Fatal(err)
		}
	}
}
