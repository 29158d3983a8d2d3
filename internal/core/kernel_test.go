package core_test

import (
	"math"
	"math/rand"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/moebius"
)

// checkKernel holds k's four fold loops to a plain Combine loop on xs:
// FoldSeg and ScanSeg through an index table, FoldRun and ScanRun over the
// contiguous run, each ScanRun/ScanSeg also with v and from the same slice
// (the primed replays). same compares two values bit for bit.
func checkKernel[T any](t *testing.T, k core.Kernel[T], seed T, xs []T, same func(a, b T) bool) {
	t.Helper()
	want := make([]T, len(xs))
	acc := seed
	for i, x := range xs {
		acc = k.Combine(acc, x)
		want[i] = acc
	}
	final := seed
	if len(xs) > 0 {
		final = want[len(xs)-1]
	}
	checkScan := func(what string, got []T, ret T) {
		t.Helper()
		if !same(ret, final) {
			t.Fatalf("%s %s returned %v, want %v", k.Name(), what, ret, final)
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s %s: slot %d = %v, want %v", k.Name(), what, i, got[i], want[i])
			}
		}
	}

	if got := k.FoldRun(seed, xs); !same(got, final) {
		t.Fatalf("%s FoldRun = %v, want %v", k.Name(), got, final)
	}
	v := make([]T, len(xs))
	checkScan("ScanRun", v, k.ScanRun(v, seed, xs))
	v = append(v[:0], xs...)
	checkScan("ScanRun aliased", v, k.ScanRun(v, seed, v))

	// The index forms read xs through a reversed table laid over a reversed
	// copy, so position k still folds xs[k].
	rev := make([]T, len(xs))
	idx := make([]int32, len(xs))
	for i := range xs {
		rev[len(xs)-1-i] = xs[i]
		idx[i] = int32(len(xs) - 1 - i)
	}
	if got := k.FoldSeg(seed, rev, idx, 0, len(xs)); !same(got, final) {
		t.Fatalf("%s FoldSeg = %v, want %v", k.Name(), got, final)
	}
	out := make([]T, len(xs))
	ret := k.ScanSeg(out, seed, rev, idx, 0, len(xs))
	for i, j := range idx {
		v[i] = out[j]
	}
	checkScan("ScanSeg", v, ret)
	ret = k.ScanSeg(rev, seed, rev, idx, 0, len(xs))
	for i, j := range idx {
		v[i] = rev[j]
	}
	checkScan("ScanSeg aliased", v, ret)
}

// sameFloat compares bit for bit, except that any two NaNs match: which
// operand's payload an IEEE add propagates depends on the instruction's
// operand order, which the compiler may swap for a commutative add.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameMat(a, b moebius.Mat2) bool {
	return sameFloat(a.A, b.A) && sameFloat(a.B, b.B) && sameFloat(a.C, b.C) && sameFloat(a.D, b.D)
}

// TestKernelRunsMatchCombine is the kernel conformance test: for every
// monomorphized kernel — the hot monoids and the Möbius ChainOp — the run
// and index folds the blocked replays call must equal a Combine loop bit
// for bit, at lengths around one segment and with aliased arrays.
func TestKernelRunsMatchCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -5e-324}
	float := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 1e3
	}
	for _, n := range []int{0, 1, 2, 7, 255, 256, 257, 1000} {
		ints := make([]int64, n)
		floats := make([]float64, n)
		mats := make([]moebius.Mat2, n)
		for i := 0; i < n; i++ {
			ints[i] = rng.Int63() - rng.Int63()
			floats[i] = float()
			mats[i] = moebius.Mat2{A: rng.NormFloat64(), B: rng.NormFloat64(), C: rng.NormFloat64(), D: rng.NormFloat64()}
			if rng.Intn(16) == 0 {
				mats[i] = moebius.Mat2{B: rng.NormFloat64(), D: 1} // a constant map: det 0
			}
		}
		checkKernel[int64](t, core.IntAdd{}, rng.Int63(), ints, func(a, b int64) bool { return a == b })
		for _, k := range []core.Kernel[float64]{core.Float64Add{}, core.Float64Min{}, core.Float64Max{}} {
			checkKernel(t, k, float(), floats, sameFloat)
		}
		checkKernel[moebius.Mat2](t, moebius.ChainOp{}, moebius.Affine(2, 1), mats, sameMat)
	}
}
