package core

import "math/big"

// Semigroup is an associative binary operation over T. Associativity is the
// only property the ordinary-IR solver needs: it reorders the grouping of the
// trace product but never the order of its operands, so op need not be
// commutative (the paper's §2 requirement).
type Semigroup[T any] interface {
	// Combine returns op(a, b). Implementations must be associative:
	// Combine(Combine(a,b),c) == Combine(a,Combine(b,c)).
	Combine(a, b T) T
	// Name identifies the operator in reports and error messages.
	Name() string
}

// Monoid is a Semigroup with an identity element.
type Monoid[T any] interface {
	Semigroup[T]
	// Identity returns e such that Combine(e, x) == Combine(x, e) == x.
	Identity() T
}

// CommutativeMonoid is the operator contract of the general-IR (GIR) solver.
// The paper shows GIR traces are trees, so evaluation order cannot be
// preserved and op must be commutative; and traces can have exponential
// length, so the power a^k must be an atomic operation (paper §4).
type CommutativeMonoid[T any] interface {
	Monoid[T]
	// Pow returns a combined with itself k times (a^k under Combine).
	// Pow(a, 0) must return Identity(). k is never negative. k is
	// read-only and valid only for the call: callers reuse one big.Int
	// across calls, so Pow must neither modify nor retain it.
	Pow(a T, k *big.Int) T
}

// PowBySquaring implements Pow for any monoid via binary exponentiation in
// O(log k) Combine calls. It is the default used by the concrete commutative
// operators below; operators with a cheaper closed form (e.g. integer
// addition, where a^k = k*a) override it.
func PowBySquaring[T any](m Monoid[T], a T, k *big.Int) T {
	if k.Sign() < 0 {
		panic("core: negative exponent in PowBySquaring")
	}
	acc := m.Identity()
	base := a
	// Iterate over bits of k from least significant to most significant.
	for i, n := 0, k.BitLen(); i < n; i++ {
		if k.Bit(i) == 1 {
			acc = m.Combine(acc, base)
		}
		if i+1 < n {
			base = m.Combine(base, base)
		}
	}
	return acc
}
