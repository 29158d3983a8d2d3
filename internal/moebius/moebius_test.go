package moebius

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"indexedrec/internal/ordinary"
)

func approxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	d := math.Abs(a - b)
	return d <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMat2Basics(t *testing.T) {
	m := Mat2{A: 2, B: 3, C: 0, D: 1}
	if got := m.Apply(5); got != 13 {
		t.Fatalf("Apply = %v, want 13", got)
	}
	if got := m.Det(); got != 2 {
		t.Fatalf("Det = %v, want 2", got)
	}
	id := Identity()
	if id.Apply(7.5) != 7.5 {
		t.Error("identity map broken")
	}
	if got := m.Mul(id); got != m {
		t.Errorf("m·I = %v, want %v", got, m)
	}
	if got := id.Mul(m); got != m {
		t.Errorf("I·m = %v, want %v", got, m)
	}
}

func TestLemma2Composition(t *testing.T) {
	// Lemma 2: matrix of f∘g is M_f · M_g. Check pointwise.
	f := Mat2{A: 2, B: 1, C: 1, D: 3}
	g := Mat2{A: 1, B: -2, C: 4, D: 1}
	comp := f.Mul(g)
	for _, x := range []float64{0, 1, -3, 0.5, 10} {
		want := f.Apply(g.Apply(x))
		got := comp.Apply(x)
		if !approxEqual(got, want, 1e-12) {
			t.Fatalf("x=%v: composed %v, pointwise %v", x, got, want)
		}
	}
}

func TestRatChainOpAssociativityExact(t *testing.T) {
	// Exact associativity of the guarded product, including singular
	// matrices — the property ordinary.Solve relies on.
	rng := rand.New(rand.NewSource(17))
	randMat := func() RatMat2 {
		m := RatMat2{
			A: big.NewRat(int64(rng.Intn(7)-3), 1),
			B: big.NewRat(int64(rng.Intn(7)-3), 1),
			C: big.NewRat(int64(rng.Intn(7)-3), 1),
			D: big.NewRat(int64(rng.Intn(7)-3), 1),
		}
		return m
	}
	eq := func(x, y RatMat2) bool {
		return x.A.Cmp(y.A) == 0 && x.B.Cmp(y.B) == 0 &&
			x.C.Cmp(y.C) == 0 && x.D.Cmp(y.D) == 0
	}
	op := RatChainOp{}
	for trial := 0; trial < 500; trial++ {
		a, b, c := randMat(), randMat(), randMat()
		l := op.Combine(op.Combine(a, b), c)
		r := op.Combine(a, op.Combine(b, c))
		if !eq(l, r) {
			t.Fatalf("trial %d: not associative:\na=%+v b=%+v c=%+v\nl=%+v r=%+v", trial, a, b, c, l, r)
		}
	}
}

func randomLinear(rng *rand.Rand, m int) (*MoebiusSystem, []float64) {
	perm := rng.Perm(m)
	n := rng.Intn(m + 1)
	g := make([]int, n)
	f := make([]int, n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i] = perm[i]
		f[i] = rng.Intn(m)
		a[i] = rng.Float64()*2 - 1 // in (-1,1): keeps chains numerically tame
		b[i] = rng.Float64()*4 - 2
	}
	x0 := make([]float64, m)
	for x := range x0 {
		x0[x] = rng.Float64()*10 - 5
	}
	return NewLinear(m, g, f, a, b), x0
}

func TestSolveLinearMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		ms, x0 := randomLinear(rng, 1+rng.Intn(30))
		want := ms.RunSequential(x0)
		got, err := ms.Solve(x0, ordinary.Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if !approxEqual(got[x], want[x], 1e-9) {
				t.Fatalf("trial %d cell %d: got %v, want %v", trial, x, got[x], want[x])
			}
		}
	}
}

func TestSolveLinearChainClosedForm(t *testing.T) {
	// X[i+1] = a·X[i] + b down a chain: X[n] = a^n x0 + b(a^{n-1}+...+1).
	n, m := 64, 65
	a, b := 0.5, 1.0
	g := make([]int, n)
	f := make([]int, n)
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i], f[i], av[i], bv[i] = i+1, i, a, b
	}
	ms := NewLinear(m, g, f, av, bv)
	x0 := make([]float64, m)
	x0[0] = 3
	got, err := ms.Solve(x0, ordinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		an := math.Pow(a, float64(k))
		want := an*x0[0] + b*(1-an)/(1-a)
		if !approxEqual(got[k], want, 1e-12) {
			t.Fatalf("X[%d] = %v, want %v", k, got[k], want)
		}
	}
}

func TestSolveExtendedForm(t *testing.T) {
	// X[g(i)] := X[g(i)] + a·X[f(i)] + b — the paper's §3 second form.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(20)
		perm := rng.Perm(m)
		n := rng.Intn(m)
		g := make([]int, n)
		f := make([]int, n)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			g[i], f[i] = perm[i], rng.Intn(m)
			a[i] = rng.Float64() - 0.5
			b[i] = rng.Float64() - 0.5
		}
		x0 := make([]float64, m)
		for x := range x0 {
			x0[x] = rng.Float64()*2 - 1
		}
		// Sequential reference of the EXTENDED loop.
		want := append([]float64(nil), x0...)
		for i := 0; i < n; i++ {
			want[g[i]] = want[g[i]] + a[i]*want[f[i]] + b[i]
		}
		ms := NewExtended(m, g, f, a, b, x0)
		got, err := ms.Solve(x0, ordinary.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if !approxEqual(got[x], want[x], 1e-9) {
				t.Fatalf("trial %d cell %d: got %v, want %v", trial, x, got[x], want[x])
			}
		}
	}
}

func TestSolveFullMoebiusContinuedFraction(t *testing.T) {
	// X[i+1] = 1 / (1 + X[i]): converges to 1/φ = φ-1 ≈ 0.618...
	n, m := 40, 41
	ms := &MoebiusSystem{M: m,
		G: seq(1, n+1), F: seq(0, n),
		A: constSlice(n, 0), B: constSlice(n, 1),
		C: constSlice(n, 1), D: constSlice(n, 1),
	}
	x0 := make([]float64, m)
	x0[0] = 1
	want := ms.RunSequential(x0)
	got, err := ms.Solve(x0, ordinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if !approxEqual(got[x], want[x], 1e-9) {
			t.Fatalf("cell %d: got %v, want %v", x, got[x], want[x])
		}
	}
	phi := (math.Sqrt(5) - 1) / 2
	if !approxEqual(got[n], phi, 1e-9) {
		t.Fatalf("X[%d] = %v, want ≈ %v", n, got[n], phi)
	}
}

func TestSolveForwardReferenceShadow(t *testing.T) {
	// Iteration 0 reads cell 2's INITIAL value; iteration 1 then writes
	// cell 2. Without shadow cells the composed matrix for cell 0 would
	// wrongly include iteration 1's map.
	ms := NewLinear(3,
		[]int{0, 2},
		[]int{2, 1},
		[]float64{2, 3},
		[]float64{1, 0},
	)
	x0 := []float64{10, 4, 5}
	want := ms.RunSequential(x0) // X[0] = 2*5+1 = 11, X[2] = 3*4 = 12
	if want[0] != 11 || want[2] != 12 {
		t.Fatalf("oracle sanity: %v", want)
	}
	got, err := ms.Solve(x0, ordinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if !approxEqual(got[x], want[x], 1e-12) {
			t.Fatalf("cell %d: got %v, want %v", x, got[x], want[x])
		}
	}
}

func TestSolveSingularConstantAssignments(t *testing.T) {
	// a[i] = 0 makes iteration i the constant map x ↦ b[i] (det = 0): the
	// paper's ⊙ guard. Chain: X[1]=0·X[0]+7=7; X[2]=2·X[1]+1=15.
	ms := NewLinear(3,
		[]int{1, 2},
		[]int{0, 1},
		[]float64{0, 2},
		[]float64{7, 1},
	)
	x0 := []float64{100, 0, 0}
	want := ms.RunSequential(x0)
	got, err := ms.Solve(x0, ordinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if !approxEqual(got[x], want[x], 1e-12) {
			t.Fatalf("cell %d: got %v, want %v (singular guard)", x, got[x], want[x])
		}
	}
	if got[1] != 7 || got[2] != 15 {
		t.Fatalf("got %v, want [100 7 15]", got)
	}
}

func TestRatSolveExactEquality(t *testing.T) {
	// With exact rationals the parallel result equals the sequential one
	// bit for bit — no tolerance.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(15)
		perm := rng.Perm(m)
		n := rng.Intn(m)
		rs := &RatSystem{M: m,
			G: make([]int, n), F: make([]int, n),
			A: make([]*big.Rat, n), B: make([]*big.Rat, n),
			C: make([]*big.Rat, n), D: make([]*big.Rat, n),
		}
		for i := 0; i < n; i++ {
			rs.G[i], rs.F[i] = perm[i], rng.Intn(m)
			rs.A[i] = big.NewRat(int64(rng.Intn(9)-4), 1)
			rs.B[i] = big.NewRat(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1))
			rs.C[i] = new(big.Rat) // affine: no poles
			rs.D[i] = big.NewRat(1, 1)
		}
		x0 := make([]*big.Rat, m)
		for x := range x0 {
			x0[x] = big.NewRat(int64(rng.Intn(21)-10), int64(rng.Intn(4)+1))
		}
		want, err := rs.RunSequential(x0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rs.Solve(x0, ordinary.Options{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if got[x].Cmp(want[x]) != 0 {
				t.Fatalf("trial %d cell %d: got %s, want %s", trial, x, got[x], want[x])
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := NewLinear(3, []int{0, 0}, []int{1, 1}, []float64{1, 1}, []float64{0, 0})
	if err := bad.Validate(); err == nil {
		t.Error("duplicate g accepted")
	}
	bad2 := NewLinear(2, []int{5}, []int{0}, []float64{1}, []float64{0})
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range g accepted")
	}
	bad3 := &MoebiusSystem{M: 2, G: []int{0}, F: []int{0}, A: []float64{1},
		B: []float64{0}, C: []float64{0}, D: nil}
	if err := bad3.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestNormScalePreservesMap(t *testing.T) {
	m := Mat2{A: 3e160, B: 1e159, C: 2e158, D: 5e160}
	s := m.normScale()
	for _, x := range []float64{0.5, 2, -7} {
		if !approxEqual(m.Apply(x), s.Apply(x), 1e-12) {
			t.Fatalf("normScale changed the map at %v: %v vs %v", x, m.Apply(x), s.Apply(x))
		}
	}
	if math.Abs(s.A) > 2 {
		t.Fatalf("normScale did not rescale: %+v", s)
	}
}

func TestLongProductNoOverflow(t *testing.T) {
	// 500 compositions of x ↦ 100x: raw products overflow float64 range
	// around iteration ~154; normScale keeps Apply finite and correct in
	// shape (X[k] = 100^k·x0 overflows, but the MAP stays representable;
	// we check intermediate cells below the overflow horizon).
	n := 500
	g := seq(1, n+1)
	f := seq(0, n)
	ms := NewLinear(n+1, g, f, constSlice(n, 100), constSlice(n, 0))
	x0 := make([]float64, n+1)
	x0[0] = 1
	got, err := ms.Solve(x0, ordinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 150; k++ {
		want := math.Pow(100, float64(k))
		if !approxEqual(got[k], want, 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", k, got[k], want)
		}
	}
}

func seq(from, to int) []int {
	s := make([]int, to-from)
	for i := range s {
		s[i] = from + i
	}
	return s
}

func constSlice(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
