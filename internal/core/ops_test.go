package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// assocInt64 checks associativity of an int64 semigroup with testing/quick.
func assocInt64(t *testing.T, op Semigroup[int64]) {
	t.Helper()
	f := func(a, b, c int64) bool {
		return op.Combine(op.Combine(a, b), c) == op.Combine(a, op.Combine(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("%s not associative: %v", op.Name(), err)
	}
}

func TestAssociativity(t *testing.T) {
	for _, op := range []Semigroup[int64]{
		IntAdd{}, IntMax{}, IntMin{}, IntXor{},
		MulMod{M: 1_000_003}, AddMod{M: 97},
	} {
		t.Run(op.Name(), func(t *testing.T) { assocInt64(t, op) })
	}
}

func TestIdentityLaws(t *testing.T) {
	ops := []Monoid[int64]{
		IntAdd{}, IntMax{}, IntMin{}, IntXor{}, MulMod{M: 101}, AddMod{M: 101},
	}
	for _, op := range ops {
		t.Run(op.Name(), func(t *testing.T) {
			f := func(a int64) bool {
				e := op.Identity()
				return op.Combine(e, a) == op.Combine(a, op.Identity()) &&
					op.Combine(e, op.Combine(a, e)) == op.Combine(a, e)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// powMatchesRepeat checks Pow(a,k) == a combined k times for small k.
func powMatchesRepeat(t *testing.T, op CommutativeMonoid[int64]) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := rng.Int63n(1000) - 500
		k := rng.Intn(20)
		want := op.Identity()
		for j := 0; j < k; j++ {
			want = op.Combine(want, a)
		}
		got := op.Pow(a, big.NewInt(int64(k)))
		if got != want {
			t.Fatalf("%s: Pow(%d, %d) = %d, want %d", op.Name(), a, k, got, want)
		}
	}
}

func TestPowMatchesRepeatedCombine(t *testing.T) {
	for _, op := range []CommutativeMonoid[int64]{
		IntAdd{}, IntMax{}, IntMin{}, IntXor{}, MulMod{M: 1_000_003}, AddMod{M: 97},
	} {
		t.Run(op.Name(), func(t *testing.T) { powMatchesRepeat(t, op) })
	}
}

func TestPowHugeExponent(t *testing.T) {
	// Exponent far beyond int64: fib(300)-sized. MulMod must handle it via
	// modular exponentiation; Fermat: 5^(p-1) = 1 mod p for prime p.
	p := int64(1_000_003)
	op := MulMod{M: p}
	pm1 := big.NewInt(p - 1)
	if got := op.Pow(5, pm1); got != 1 {
		t.Fatalf("5^(p-1) mod p = %d, want 1", got)
	}
	huge := new(big.Int).Exp(big.NewInt(10), big.NewInt(50), nil) // 10^50
	got := op.Pow(7, huge)
	var want big.Int
	want.Exp(big.NewInt(7), huge, big.NewInt(p))
	if got != want.Int64() {
		t.Fatalf("Pow(7, 10^50) = %d, want %d", got, want.Int64())
	}
}

func TestPowBySquaring(t *testing.T) {
	op := Float64Mul{}
	for k := 0; k <= 30; k++ {
		got := PowBySquaring[float64](op, 2, big.NewInt(int64(k)))
		want := float64(int64(1) << uint(k))
		if got != want {
			t.Fatalf("2^%d = %v, want %v", k, got, want)
		}
	}
}

func TestPowBySquaringNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative exponent")
		}
	}()
	PowBySquaring[float64](Float64Mul{}, 2, big.NewInt(-1))
}

func TestIntAddPowWrapAround(t *testing.T) {
	// k*a overflowing int64 must match repeated wrapping addition.
	a := int64(1) << 62
	got := IntAdd{}.Pow(a, big.NewInt(4)) // 2^64 ≡ 0
	if got != 0 {
		t.Fatalf("Pow(2^62, 4) = %d, want 0 (wrap)", got)
	}
	got = IntAdd{}.Pow(a, big.NewInt(3)) // 3*2^62 mod 2^64 = -2^62
	if got != -(int64(1) << 62) {
		t.Fatalf("Pow(2^62, 3) = %d, want %d", got, -(int64(1) << 62))
	}
}

func TestBigMul(t *testing.T) {
	op := BigMul{}
	a, b := big.NewInt(6), big.NewInt(7)
	if got := op.Combine(a, b); got.Int64() != 42 {
		t.Fatalf("6*7 = %v", got)
	}
	if a.Int64() != 6 || b.Int64() != 7 {
		t.Error("Combine mutated its operands")
	}
	if got := op.Pow(big.NewInt(2), big.NewInt(10)); got.Int64() != 1024 {
		t.Fatalf("2^10 = %v", got)
	}
	if got := op.Pow(big.NewInt(5), big.NewInt(0)); got.Int64() != 1 {
		t.Fatalf("5^0 = %v", got)
	}
}

func TestConcatNonCommutativeWitness(t *testing.T) {
	op := Concat{}
	if op.Combine("a", "b") == op.Combine("b", "a") {
		t.Error("Concat should witness non-commutativity")
	}
	if op.Combine(op.Combine("a", "b"), "c") != op.Combine("a", op.Combine("b", "c")) {
		t.Error("Concat must still be associative")
	}
}

func TestMulModNegativeOperands(t *testing.T) {
	op := MulMod{M: 97}
	got := op.Combine(-5, 3)
	if got < 0 || got >= 97 {
		t.Fatalf("Combine(-5,3) = %d, want value in [0,97)", got)
	}
	if got != (92*3)%97 {
		t.Fatalf("Combine(-5,3) = %d, want %d", got, (92*3)%97)
	}
	if p := op.Pow(-5, big.NewInt(2)); p != 25%97 {
		t.Fatalf("Pow(-5,2) = %d, want 25", p)
	}
}

func TestIdempotentPow(t *testing.T) {
	k := big.NewInt(1 << 40)
	if (IntMax{}).Pow(123, k) != 123 || (IntMin{}).Pow(123, k) != 123 {
		t.Error("max/min Pow should be identity on a for k >= 1")
	}
	if (IntMax{}).Pow(123, big.NewInt(0)) != (IntMax{}).Identity() {
		t.Error("max Pow(a, 0) should be identity element")
	}
}

func TestGcd(t *testing.T) {
	op := Gcd{}
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {-12, 18, 6}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := op.Combine(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	assocInt64(t, op)
	powMatchesRepeat(t, op)
}

func TestFloat64MinMax(t *testing.T) {
	if (Float64Min{}).Combine(2, 3) != 2 || (Float64Max{}).Combine(2, 3) != 3 {
		t.Fatal("min/max wrong")
	}
	if (Float64Min{}).Combine((Float64Min{}).Identity(), 9) != 9 {
		t.Fatal("min identity wrong")
	}
	if (Float64Max{}).Combine((Float64Max{}).Identity(), -9) != -9 {
		t.Fatal("max identity wrong")
	}
	k := big.NewInt(1 << 30)
	if (Float64Min{}).Pow(3.5, k) != 3.5 || (Float64Max{}).Pow(3.5, k) != 3.5 {
		t.Fatal("idempotent pow wrong")
	}
}

func TestGcdAsIROp(t *testing.T) {
	// gcd chains through an ordinary IR loop: A[i] = gcd(A[i-1], A[i]).
	s := FromFuncs(4, 5, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	out := RunSequential[int64](s, Gcd{}, []int64{24, 36, 18, 12, 9})
	want := []int64{24, 12, 6, 6, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

// bigMulModPow and bigAddModPow are the big.Int formulas MulMod.Pow and
// AddMod.Pow used for every exponent before their uint64 paths.
func bigMulModPow(o MulMod, a int64, k *big.Int) int64 {
	a %= o.M
	if a < 0 {
		a += o.M
	}
	var r big.Int
	r.Exp(big.NewInt(a), k, big.NewInt(o.M))
	return r.Int64()
}

func bigAddModPow(o AddMod, a int64, k *big.Int) int64 {
	var km big.Int
	km.Mod(k, big.NewInt(o.M))
	return o.Combine(a%o.M*km.Int64()%o.M, 0)
}

// TestModPowMatchesBigInt is the differential check of the uint64 power
// paths against the big.Int formulas, over negative and boundary operands,
// boundary and random exponents and moduli up to 2^62+57.
func TestModPowMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 63),
		new(big.Int).SetUint64(^uint64(0)), new(big.Int).Lsh(big.NewInt(1), 70)}
	for i := 0; i < 20; i++ {
		exps = append(exps, new(big.Int).SetUint64(rng.Uint64()>>uint(rng.Intn(64))))
	}
	for _, mod := range []int64{2, 3, 1_000_003, 1<<31 - 1, 1<<62 + 57} {
		as := []int64{0, 1, -1, mod - 1, -mod + 1, mod, math.MaxInt64, math.MinInt64 + 1}
		for i := 0; i < 10; i++ {
			as = append(as, rng.Int63()-rng.Int63())
		}
		for _, a := range as {
			for _, k := range exps {
				mm, am := MulMod{M: mod}, AddMod{M: mod}
				if got, want := mm.Pow(a, k), bigMulModPow(mm, a, k); got != want {
					t.Errorf("MulMod{%d}.Pow(%d, %s) = %d, big.Int %d", mod, a, k, got, want)
				}
				if got, want := am.Pow(a, k), bigAddModPow(am, a, k); got != want {
					t.Errorf("AddMod{%d}.Pow(%d, %s) = %d, big.Int %d", mod, a, k, got, want)
				}
			}
		}
	}
}

// TestModPowAlloc checks that a uint64 exponent costs no allocation.
func TestModPowAlloc(t *testing.T) {
	k := big.NewInt(1_234_567_891)
	mm, am := MulMod{M: 1_000_003}, AddMod{M: 1_000_003}
	if n := testing.AllocsPerRun(100, func() { mm.Pow(-42, k); am.Pow(-42, k) }); n != 0 {
		t.Fatalf("Pow allocated %.0f times per call pair, want 0", n)
	}
}
