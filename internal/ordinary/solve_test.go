package ordinary

import (
	"errors"
	"math/rand"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/paperfig"
	"indexedrec/internal/trace"
)

// randomOrdinary builds a random ordinary system with distinct g: a random
// subset of cells is written in random order, each reading a random cell.
func randomOrdinary(rng *rand.Rand, m int) *core.System {
	perm := rng.Perm(m)
	n := rng.Intn(m + 1)
	s := &core.System{M: m, N: n, G: make([]int, n), F: make([]int, n)}
	for i := 0; i < n; i++ {
		s.G[i] = perm[i]
		s.F[i] = rng.Intn(m)
	}
	return s
}

func stringInit(m int) []string {
	init := make([]string, m)
	for x := range init {
		init[x] = string(rune('a'+x%26)) + string(rune('0'+x/26%10))
	}
	return init
}

func TestSolveMatchesSequentialConcat(t *testing.T) {
	// Concat is non-commutative: any operand-order violation fails loudly.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		s := randomOrdinary(rng, m)
		init := stringInit(m)
		want := core.RunSequential[string](s, core.Concat{}, init)
		for _, procs := range []int{1, 4} {
			res, err := Solve[string](s, core.Concat{}, init, Options{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			for x := range want {
				if res.Values[x] != want[x] {
					t.Fatalf("trial %d procs %d cell %d: got %q, want %q\nG=%v F=%v",
						trial, procs, x, res.Values[x], want[x], s.G, s.F)
				}
			}
		}
	}
}

func TestSolveFig1Instance(t *testing.T) {
	s, wantTraces := paperfig.Fig1System()
	init := stringInit(s.M)
	res, err := Solve[string](s, core.Concat{}, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x, tr := range wantTraces {
		want := trace.EvalOrdinary[string](tr, core.Concat{}, init)
		if res.Values[x] != want {
			t.Errorf("cell %d: got %q, want %q", x, res.Values[x], want)
		}
	}
}

func TestSolveLongChain(t *testing.T) {
	// Worst case for round count: one chain of length n.
	n := 1000
	s := paperfig.Fig2System(n)
	init := make([]int64, n)
	for x := range init {
		init[x] = int64(x + 1)
	}
	res, err := Solve[int64](s, core.IntAdd{}, init, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A'[k] = sum of 1..k+1.
	for k := 0; k < n; k++ {
		want := int64(k+1) * int64(k+2) / 2
		if res.Values[k] != want {
			t.Fatalf("cell %d: got %d, want %d", k, res.Values[k], want)
		}
	}
	// O(log n) rounds: chain length 1000 needs exactly ⌈log2 1000⌉ = 10.
	if res.Rounds != 10 {
		t.Errorf("Rounds = %d, want 10 for chain of length 1000", res.Rounds)
	}
}

func TestSolveRootsIdentifyChainStarts(t *testing.T) {
	// Chain system: trace of cell k starts at cell 0's initial value.
	n := 64
	s := paperfig.Fig2System(n)
	init := stringInit(n)
	res, err := Solve[string](s, core.Concat{}, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < n; k++ {
		if res.Roots[k] != 0 {
			t.Fatalf("Roots[%d] = %d, want 0", k, res.Roots[k])
		}
	}
	if res.Roots[0] != 0 {
		t.Fatalf("Roots[0] = %d, want 0 (written cell, terminal trace reads cell 0)", res.Roots[0])
	}
}

func TestSolveRootsRandom(t *testing.T) {
	// Roots must match the first element of the symbolic trace.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(30)
		s := randomOrdinary(rng, m)
		trs, err := trace.Ordinary(s)
		if err != nil {
			t.Fatal(err)
		}
		init := stringInit(m)
		res, err := Solve[string](s, core.Concat{}, init, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for x := range trs {
			if res.Roots[x] != trs[x][0] {
				t.Fatalf("trial %d cell %d: root %d, trace %v", trial, x, res.Roots[x], trs[x])
			}
		}
	}
}

func TestSolveRejectsNonDistinctG(t *testing.T) {
	s := &core.System{M: 3, N: 2, G: []int{1, 1}, F: []int{0, 0}}
	_, err := Solve[int64](s, core.IntAdd{}, []int64{1, 2, 3}, Options{})
	if !errors.Is(err, ErrGNotDistinct) {
		t.Fatalf("err = %v, want ErrGNotDistinct", err)
	}
}

func TestSolveRejectsGeneralSystem(t *testing.T) {
	s := &core.System{M: 3, N: 1, G: []int{2}, F: []int{0}, H: []int{1}}
	_, err := Solve[int64](s, core.IntAdd{}, []int64{1, 2, 3}, Options{})
	if !errors.Is(err, ErrNotOrdinary) {
		t.Fatalf("err = %v, want ErrNotOrdinary", err)
	}
}

func TestSolveAcceptsExplicitHEqualG(t *testing.T) {
	s := &core.System{M: 3, N: 2, G: []int{1, 2}, F: []int{0, 1}, H: []int{1, 2}}
	res, err := Solve[int64](s, core.IntAdd{}, []int64{5, 10, 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSequential[int64](s, core.IntAdd{}, []int64{5, 10, 20})
	for x := range want {
		if res.Values[x] != want[x] {
			t.Fatalf("cell %d: got %d, want %d", x, res.Values[x], want[x])
		}
	}
}

func TestSolveEmptyLoop(t *testing.T) {
	s := &core.System{M: 3, N: 0, G: []int{}, F: []int{}}
	res, err := Solve[int64](s, core.IntAdd{}, []int64{7, 8, 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x, want := range []int64{7, 8, 9} {
		if res.Values[x] != want {
			t.Fatalf("cell %d: got %d, want %d", x, res.Values[x], want)
		}
	}
	if res.Rounds != 0 || res.Combines != 0 {
		t.Errorf("Rounds=%d Combines=%d, want 0,0", res.Rounds, res.Combines)
	}
}

func TestSolveSelfReference(t *testing.T) {
	// f(i) = g(i): A[x] := A[x] ⊗ A[x] — terminal trace with InitF = x.
	s := &core.System{M: 2, N: 1, G: []int{0}, F: []int{0}}
	res, err := Solve[int64](s, core.IntAdd{}, []int64{21, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 42 {
		t.Fatalf("got %d, want 42", res.Values[0])
	}
}

func TestSolveForwardReferenceReadsInitial(t *testing.T) {
	// Iteration 0 reads cell 2 which is only written at iteration 1:
	// the read must see the initial value (g distinct ⇒ writes are final,
	// reads of not-yet-written cells are initial).
	s := &core.System{M: 3, N: 2, G: []int{0, 2}, F: []int{2, 1}}
	init := []string{"a", "b", "c"}
	want := core.RunSequential[string](s, core.Concat{}, init)
	res, err := Solve[string](s, core.Concat{}, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if res.Values[x] != want[x] {
			t.Fatalf("cell %d: got %q, want %q", x, res.Values[x], want[x])
		}
	}
	if res.Values[0] != "ca" {
		t.Fatalf("A'[0] = %q, want \"ca\" (initial c, not updated bc)", res.Values[0])
	}
}

func TestFig2PointerJumpSteps(t *testing.T) {
	// Chain of 10: active pointer count must (at least) halve each round
	// and rounds must be ⌈log2 10⌉ = 4.
	s := paperfig.Fig2System(10)
	init := stringInit(10)
	var actives []int
	res, err := Solve[string](s, core.Concat{}, init, Options{
		Procs:   1,
		OnRound: func(round int, st *JumperState) { actives = append(actives, st.Active) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("Rounds = %d, want 4", res.Rounds)
	}
	// After round r, cell k's pointer has jumped 2^r ahead; actives shrink
	// strictly until zero.
	for i := 1; i < len(actives); i++ {
		if actives[i] >= actives[i-1] {
			t.Fatalf("active counts not strictly decreasing: %v", actives)
		}
	}
	if actives[len(actives)-1] != 0 {
		t.Fatalf("final active count %d, want 0 (actives=%v)", actives[len(actives)-1], actives)
	}
}

func TestMaxChainLen(t *testing.T) {
	fr, err := BuildForest(paperfig.Fig2System(100))
	if err != nil {
		t.Fatal(err)
	}
	// Cells 1..99 are written; the longest chain is 99 cells before
	// terminating (cell 1's trace reads initial cell 0).
	if got := fr.MaxChainLen(); got != 99 {
		t.Fatalf("MaxChainLen = %d, want 99", got)
	}
	s, _ := paperfig.Fig1System()
	fr, err = BuildForest(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.MaxChainLen(); got != 2 {
		t.Fatalf("Fig1 MaxChainLen = %d, want 2", got)
	}
}

func TestCombinesWorkBound(t *testing.T) {
	// Work is at most n per round plus n at init: O(n log n) total.
	n := 4096
	s := paperfig.Fig2System(n)
	init := make([]int64, n)
	res, err := Solve[int64](s, core.IntAdd{}, init, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(n) * int64(res.Rounds+1)
	if res.Combines > bound {
		t.Fatalf("Combines = %d exceeds n*(rounds+1) = %d", res.Combines, bound)
	}
	if res.Combines < int64(n) {
		t.Fatalf("Combines = %d suspiciously low for n=%d", res.Combines, n)
	}
}

func TestSolveLargeRandomManyProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := 20000
	s := randomOrdinary(rng, m)
	op := core.MulMod{M: 1_000_003}
	init := make([]int64, m)
	for x := range init {
		init[x] = rng.Int63n(op.M-2) + 2
	}
	want := core.RunSequential[int64](s, op, init)
	res, err := Solve[int64](s, op, init, Options{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if res.Values[x] != want[x] {
			t.Fatalf("cell %d: got %d, want %d", x, res.Values[x], want[x])
		}
	}
}

func TestBuildForestAgainstBruteForce(t *testing.T) {
	// Next[x]/InitF[x] must match a direct reading of the loop: for the
	// writer i of x, the chain continues through f(i) iff some j < i
	// writes f(i); otherwise the trace starts with A0[f(i)].
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(20)
		s := randomOrdinary(rng, m)
		fr, err := BuildForest(s)
		if err != nil {
			t.Fatal(err)
		}
		writer := make(map[int]int)
		for i, g := range s.G {
			writer[g] = i
		}
		for x := 0; x < m; x++ {
			i, written := writer[x]
			if !written {
				if fr.Written(x) || fr.Next[x] != -1 || fr.InitF[x] != -1 {
					t.Fatalf("trial %d: unwritten cell %d has forest state", trial, x)
				}
				continue
			}
			earlier := false
			for j := 0; j < i; j++ {
				if s.G[j] == s.F[i] {
					earlier = true
					break
				}
			}
			if earlier {
				if int(fr.Next[x]) != s.F[i] || fr.InitF[x] != -1 {
					t.Fatalf("trial %d cell %d: Next=%d InitF=%d, want Next=%d",
						trial, x, fr.Next[x], fr.InitF[x], s.F[i])
				}
			} else {
				if fr.Next[x] != -1 || int(fr.InitF[x]) != s.F[i] {
					t.Fatalf("trial %d cell %d: Next=%d InitF=%d, want InitF=%d",
						trial, x, fr.Next[x], fr.InitF[x], s.F[i])
				}
			}
		}
	}
}
