package moebius

import (
	"fmt"
	"math/big"

	"indexedrec/internal/ordinary"
)

// RatMat2 is the exact-arithmetic twin of Mat2 over big.Rat, used to verify
// that the parallel solution is EXACTLY the sequential one when the field is
// exact (float64 runs only match up to regrouping rounding). Values are
// treated as immutable.
type RatMat2 struct {
	A, B, C, D *big.Rat
}

// RatIdentity returns the exact identity matrix.
func RatIdentity() RatMat2 {
	return RatMat2{A: big.NewRat(1, 1), B: new(big.Rat), C: new(big.Rat), D: big.NewRat(1, 1)}
}

// Det returns the exact determinant.
func (m RatMat2) Det() *big.Rat {
	ad := new(big.Rat).Mul(m.A, m.D)
	bc := new(big.Rat).Mul(m.B, m.C)
	return ad.Sub(ad, bc)
}

// Mul returns the exact product m·n.
func (m RatMat2) Mul(n RatMat2) RatMat2 {
	mul := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }
	add := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(x, y) }
	return RatMat2{
		A: add(mul(m.A, n.A), mul(m.B, n.C)),
		B: add(mul(m.A, n.B), mul(m.B, n.D)),
		C: add(mul(m.C, n.A), mul(m.D, n.C)),
		D: add(mul(m.C, n.B), mul(m.D, n.D)),
	}
}

// Apply evaluates the map at x exactly. Returns an error when the
// denominator is exactly zero (a pole), where float64 would produce ±Inf.
func (m RatMat2) Apply(x *big.Rat) (*big.Rat, error) {
	num := new(big.Rat).Mul(m.A, x)
	num.Add(num, m.B)
	den := new(big.Rat).Mul(m.C, x)
	den.Add(den, m.D)
	if den.Sign() == 0 {
		return nil, fmt.Errorf("moebius: pole: denominator is zero")
	}
	return num.Quo(num, den), nil
}

// RatChainOp is ChainOp over exact rationals.
type RatChainOp struct{}

// Name implements core.Semigroup.
func (RatChainOp) Name() string { return "moebius-chain-rat" }

// Combine implements core.Semigroup (reversed guarded product; see ChainOp).
func (RatChainOp) Combine(a, b RatMat2) RatMat2 {
	if b.Det().Sign() == 0 {
		return b
	}
	return b.Mul(a)
}

// Identity implements core.Monoid.
func (RatChainOp) Identity() RatMat2 { return RatIdentity() }

// RatSystem is the exact twin of MoebiusSystem.
type RatSystem struct {
	M          int
	G, F       []int
	A, B, C, D []*big.Rat
}

// Iter returns iteration i's exact matrix.
func (rs *RatSystem) Iter(i int) RatMat2 {
	return RatMat2{A: rs.A[i], B: rs.B[i], C: rs.C[i], D: rs.D[i]}
}

// RunSequential executes the loop exactly as written.
func (rs *RatSystem) RunSequential(x0 []*big.Rat) ([]*big.Rat, error) {
	x := make([]*big.Rat, len(x0))
	for k, v := range x0 {
		x[k] = new(big.Rat).Set(v)
	}
	for i := range rs.G {
		v, err := rs.Iter(i).Apply(x[rs.F[i]])
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		x[rs.G[i]] = v
	}
	return x, nil
}

// Solve is the exact-arithmetic parallel solver; its output is bit-for-bit
// equal to RunSequential for pole-free loops.
func (rs *RatSystem) Solve(x0 []*big.Rat, opt ordinary.Options) ([]*big.Rat, error) {
	sys, origOf, err := buildShadowSystem(rs.M, rs.G, rs.F)
	if err != nil {
		return nil, err
	}
	mats := make([]RatMat2, sys.M)
	for x := range mats {
		mats[x] = RatIdentity()
	}
	for i := range rs.G {
		mats[rs.G[i]] = rs.Iter(i)
	}
	res, err := ordinary.Solve[RatMat2](sys, RatChainOp{}, mats, opt)
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}
	out := make([]*big.Rat, rs.M)
	for x := range out {
		out[x] = new(big.Rat).Set(x0[x])
	}
	for i := range rs.G {
		x := rs.G[i]
		v, err := res.Values[x].Apply(x0[shadowOrig(res.Roots[x], rs.M, origOf)])
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", x, err)
		}
		out[x] = v
	}
	return out, nil
}
