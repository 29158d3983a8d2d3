package core

import (
	"math"
	"math/big"
	"math/bits"
)

// This file provides the library of concrete operators used by the solvers,
// examples and benchmarks. Naming convention: the type is <Domain><Op>,
// e.g. IntAdd is (int64, +). Commutative operators implement
// CommutativeMonoid; non-commutative ones (Concat, matrix products) only
// Semigroup/Monoid, which the type system then keeps out of the GIR solver.

// ---------------------------------------------------------------------------
// int64 operators

// IntAdd is (int64, +, 0). Pow(a, k) = k*a computed exactly via big.Int and
// truncated to int64 (wrap-around), matching repeated Combine.
type IntAdd struct{}

// Name returns "int64-add".
func (IntAdd) Name() string { return "int64-add" }

// Combine returns a + b (native wrap-around semantics).
func (IntAdd) Combine(a, b int64) int64 { return a + b }

// Identity returns 0.
func (IntAdd) Identity() int64 { return 0 }

// Pow returns k*a with the same wrap-around semantics as k-fold addition.
func (IntAdd) Pow(a int64, k *big.Int) int64 {
	var r big.Int
	r.Mul(big.NewInt(a), k)
	return truncInt64(&r)
}

// truncInt64 reduces r modulo 2^64 and reinterprets as int64, matching the
// overflow behaviour of native int64 arithmetic.
func truncInt64(r *big.Int) int64 {
	var m big.Int
	m.And(r, mask64)
	return int64(m.Uint64())
}

var mask64 = new(big.Int).SetUint64(^uint64(0))

// IntMax is (int64, max, MinInt64). Idempotent: Pow(a,k>=1) = a.
type IntMax struct{}

// Name returns "int64-max".
func (IntMax) Name() string { return "int64-max" }

// Combine returns the larger of a and b.
func (IntMax) Combine(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Identity returns math.MinInt64.
func (IntMax) Identity() int64 { return -1 << 63 }

// Pow exploits idempotence: a for k >= 1, the identity for k = 0.
func (IntMax) Pow(a int64, k *big.Int) int64 {
	if k.Sign() == 0 {
		return IntMax{}.Identity()
	}
	return a
}

// IntMin is (int64, min, MaxInt64). Idempotent.
type IntMin struct{}

// Name returns "int64-min".
func (IntMin) Name() string { return "int64-min" }

// Combine returns the smaller of a and b.
func (IntMin) Combine(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Identity returns math.MaxInt64.
func (IntMin) Identity() int64 { return 1<<63 - 1 }

// Pow exploits idempotence: a for k >= 1, the identity for k = 0.
func (IntMin) Pow(a int64, k *big.Int) int64 {
	if k.Sign() == 0 {
		return IntMin{}.Identity()
	}
	return a
}

// IntXor is (int64, ^, 0). Pow depends only on parity of k.
type IntXor struct{}

// Name returns "int64-xor".
func (IntXor) Name() string { return "int64-xor" }

// Combine returns a XOR b.
func (IntXor) Combine(a, b int64) int64 { return a ^ b }

// Identity returns 0.
func (IntXor) Identity() int64 { return 0 }

// Pow returns a for odd k and 0 for even k (self-inverse operator).
func (IntXor) Pow(a int64, k *big.Int) int64 {
	if k.Bit(0) == 1 {
		return a
	}
	return 0
}

// ---------------------------------------------------------------------------
// Modular multiplication: the workhorse for property tests of the GIR path,
// because powers stay bounded and the operation is exactly associative.

// MulMod is (Z_m, *, 1) for an odd modulus m < 2^31 (kept small so products
// fit in int64 without overflow).
type MulMod struct {
	// M is the modulus; must be >= 2.
	M int64
}

// Name returns "mul-mod".
func (o MulMod) Name() string { return "mul-mod" }

// Combine returns a*b mod M, normalizing negative operands first.
func (o MulMod) Combine(a, b int64) int64 {
	a %= o.M
	b %= o.M
	if a < 0 {
		a += o.M
	}
	if b < 0 {
		b += o.M
	}
	return a * b % o.M
}

// Identity returns 1 mod M.
func (o MulMod) Identity() int64 { return 1 % o.M }

// Pow is square-and-multiply in O(log k) multiplications — the paper's
// "atomic power". An exponent that fits a uint64 runs on 128-bit products
// (bits.Mul64, bits.Rem64), exact for any modulus and free of allocation;
// a wider one (e.g. a Fibonacci-sized path count) uses big.Int.Exp.
func (o MulMod) Pow(a int64, k *big.Int) int64 {
	a %= o.M
	if a < 0 {
		a += o.M
	}
	if !k.IsUint64() {
		var r big.Int
		r.Exp(big.NewInt(a), k, big.NewInt(o.M))
		return r.Int64()
	}
	m, e := uint64(o.M), k.Uint64()
	r, b := 1%m, uint64(a)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod64(r, b, m)
		}
		b = mulMod64(b, b, m)
	}
	return int64(r)
}

// mulMod64 returns a*b mod m from the full 128-bit product.
func mulMod64(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

// AddMod is (Z_m, +, 0); Pow(a,k) = (k mod m)*a mod m.
type AddMod struct {
	// M is the modulus; must be >= 2.
	M int64
}

// Name returns "add-mod".
func (o AddMod) Name() string { return "add-mod" }

// Combine returns a+b mod M, normalized into [0, M).
func (o AddMod) Combine(a, b int64) int64 {
	r := (a%o.M + b%o.M) % o.M
	if r < 0 {
		r += o.M
	}
	return r
}

// Identity returns 0.
func (o AddMod) Identity() int64 { return 0 }

// Pow returns (k mod M)*a mod M — k-fold modular addition in O(1).
func (o AddMod) Pow(a int64, k *big.Int) int64 {
	var km int64
	if k.IsUint64() {
		km = int64(k.Uint64() % uint64(o.M))
	} else {
		var r big.Int
		km = r.Mod(k, big.NewInt(o.M)).Int64()
	}
	return o.Combine(a%o.M*km%o.M, 0)
}

// ---------------------------------------------------------------------------
// float64 operators. Float addition/multiplication are only approximately
// associative; the parallel solvers regroup products, so results match the
// sequential loop up to rounding. Tests use approximate comparison.

// Float64Add is (float64, +, 0).
type Float64Add struct{}

// Name returns "float64-add".
func (Float64Add) Name() string { return "float64-add" }

// Combine returns a + b.
func (Float64Add) Combine(a, b float64) float64 { return a + b }

// Identity returns 0.
func (Float64Add) Identity() float64 { return 0 }

// Pow returns a*k (one rounding step, in place of k-fold addition).
func (Float64Add) Pow(a float64, k *big.Int) float64 {
	kf, _ := new(big.Float).SetInt(k).Float64()
	return a * kf
}

// Float64Mul is (float64, *, 1).
type Float64Mul struct{}

// Name returns "float64-mul".
func (Float64Mul) Name() string { return "float64-mul" }

// Combine returns a * b.
func (Float64Mul) Combine(a, b float64) float64 { return a * b }

// Identity returns 1.
func (Float64Mul) Identity() float64 { return 1 }

// Pow computes a^k by square-and-multiply, the grouping PowBySquaring uses.
func (Float64Mul) Pow(a float64, k *big.Int) float64 {
	return PowBySquaring[float64](Float64Mul{}, a, k)
}

// ---------------------------------------------------------------------------
// big.Int multiplication: exact, commutative, used by the Fibonacci-powers
// example (paper Fig. 5) where values genuinely have exponential magnitude.

// BigMul is (big.Int, *, 1). Values are treated as immutable.
type BigMul struct{}

// Name returns "bigint-mul".
func (BigMul) Name() string { return "bigint-mul" }

// Combine returns a*b in a fresh big.Int (operands are never mutated).
func (BigMul) Combine(a, b *big.Int) *big.Int {
	return new(big.Int).Mul(a, b)
}

// Identity returns a fresh big.Int holding 1.
func (BigMul) Identity() *big.Int { return big.NewInt(1) }

// Pow returns a^k exactly via big.Int.Exp when k fits in int64.
func (BigMul) Pow(a *big.Int, k *big.Int) *big.Int {
	if !k.IsInt64() {
		// Exact big-int powers with non-int64 exponents would not fit in
		// memory anyway; fall back to square-and-multiply which will OOM
		// honestly rather than silently truncate.
		return PowBySquaring[*big.Int](BigMul{}, a, k)
	}
	return new(big.Int).Exp(a, k, nil)
}

// ---------------------------------------------------------------------------

// Concat is the canonical NON-commutative associative operator. It is the
// sharpest test that the ordinary-IR solver preserves operand order, and it
// doubles as a trace extractor: running the loop over singleton strings
// yields each cell's trace spelled out.
type Concat struct{}

// Name returns "string-concat".
func (Concat) Name() string { return "string-concat" }

// Combine returns the concatenation ab — order matters.
func (Concat) Combine(a, b string) string { return a + b }

// Identity returns the empty string.
func (Concat) Identity() string { return "" }

// ---------------------------------------------------------------------------
// Compile-time conformance checks.
var (
	_ CommutativeMonoid[int64]    = IntAdd{}
	_ CommutativeMonoid[int64]    = IntMax{}
	_ CommutativeMonoid[int64]    = IntMin{}
	_ CommutativeMonoid[int64]    = IntXor{}
	_ CommutativeMonoid[int64]    = MulMod{M: 3}
	_ CommutativeMonoid[int64]    = AddMod{M: 3}
	_ CommutativeMonoid[float64]  = Float64Add{}
	_ CommutativeMonoid[float64]  = Float64Mul{}
	_ CommutativeMonoid[*big.Int] = BigMul{}
	_ CommutativeMonoid[int64]    = Gcd{}
	_ CommutativeMonoid[float64]  = Float64Min{}
	_ CommutativeMonoid[float64]  = Float64Max{}
	_ Monoid[string]              = Concat{}
)

// ---------------------------------------------------------------------------

// Gcd is (int64 >= 0, gcd, 0). Commutative and idempotent, so Pow(a, k>=1)
// = a; useful as a second lattice-like operator besides min/max.
type Gcd struct{}

// Name returns "int64-gcd".
func (Gcd) Name() string { return "int64-gcd" }

// Combine returns gcd(|a|, |b|) by Euclid's algorithm.
func (Gcd) Combine(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Identity returns 0 (gcd(a, 0) = a).
func (Gcd) Identity() int64 { return 0 }

// Pow exploits idempotence: |a| for k >= 1, 0 for k = 0.
func (Gcd) Pow(a int64, k *big.Int) int64 {
	if k.Sign() == 0 {
		return 0
	}
	if a < 0 {
		return -a
	}
	return a
}

// Float64Min is (float64, min, +Inf). Idempotent.
type Float64Min struct{}

// Name returns "float64-min".
func (Float64Min) Name() string { return "float64-min" }

// Combine returns the smaller of a and b.
func (Float64Min) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Identity returns +Inf.
func (Float64Min) Identity() float64 { return math.Inf(1) }

// Pow exploits idempotence: a for k >= 1, +Inf for k = 0.
func (Float64Min) Pow(a float64, k *big.Int) float64 {
	if k.Sign() == 0 {
		return math.Inf(1)
	}
	return a
}

// Float64Max is (float64, max, -Inf). Idempotent.
type Float64Max struct{}

// Name returns "float64-max".
func (Float64Max) Name() string { return "float64-max" }

// Combine returns the larger of a and b.
func (Float64Max) Combine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Identity returns -Inf.
func (Float64Max) Identity() float64 { return math.Inf(-1) }

// Pow exploits idempotence: a for k >= 1, -Inf for k = 0.
func (Float64Max) Pow(a float64, k *big.Int) float64 {
	if k.Sign() == 0 {
		return math.Inf(-1)
	}
	return a
}
