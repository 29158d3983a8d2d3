package scan

import (
	"fmt"

	"indexedrec/internal/core"
)

// This file extends the first-order machinery to ORDER-K linear recurrences
//
//	X[i] = a_1[i]·X[i-1] + a_2[i]·X[i-2] + ... + a_k[i]·X[i-k] + b[i]
//
// via companion matrices: the state vector (X[i], ..., X[i-k+1], 1) advances
// by one (k+1)×(k+1) matrix per step, matrices compose associatively, and a
// parallel prefix over the composition yields every X[i] in O(log n) depth —
// the classical generalization (Kogge–Stone [4]) of what the paper's Möbius
// route does for k = 1, and the machinery behind Livermore kernel 6's
// "general linear recurrence equations" family with fixed order.

// mat is a dense square float64 matrix (row-major).
type mat struct {
	n int
	a []float64
}

func newMat(n int) mat { return mat{n: n, a: make([]float64, n*n)} }

// mul returns x·y.
func (x mat) mul(y mat) mat {
	n := x.n
	out := newMat(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := x.a[i*n+k]
			if v == 0 {
				continue
			}
			row := y.a[k*n:]
			for j := 0; j < n; j++ {
				out.a[i*n+j] += v * row[j]
			}
		}
	}
	return out
}

// matChainOp composes matrices in application order: Combine(first, second)
// represents "apply first, then second", i.e. second·first.
type matChainOp struct{}

func (matChainOp) Name() string         { return "matrix-compose" }
func (matChainOp) Combine(l, r mat) mat { return r.mul(l) }

// KTermRecurrence solves the order-k recurrence sequentially. a[j] is the
// coefficient series for lag j+1 (each of length n); entries with index < k
// are ignored (X[0..k-1] are the given initial values in x0).
func KTermRecurrence(k int, a [][]float64, b []float64, x0 []float64) ([]float64, error) {
	n := len(b)
	if len(a) != k {
		return nil, fmt.Errorf("scan: need %d coefficient series, got %d", k, len(a))
	}
	if len(x0) < k {
		return nil, fmt.Errorf("scan: need %d initial values, got %d", k, len(x0))
	}
	out := make([]float64, n)
	copy(out, x0[:min(len(x0), n)])
	for i := k; i < n; i++ {
		v := b[i]
		for j := 0; j < k; j++ {
			v += a[j][i] * out[i-j-1]
		}
		out[i] = v
	}
	return out, nil
}

// KTermRecurrenceParallel solves the same recurrence with parallel prefix
// over companion matrices, taken by chainPrefix: O(n·k³) work on the
// blocked schedule the plan picks for long chains. A panic inside the
// prefix returns as the error, with every worker joined.
func KTermRecurrenceParallel(k int, a [][]float64, b []float64, x0 []float64, procs int) ([]float64, error) {
	return kTermParallel(matChainOp{}, k, a, b, x0, procs)
}

// kTermParallel is KTermRecurrenceParallel over an explicit composition op,
// the seam the panic-contract test wraps a fault-injecting op around.
func kTermParallel(op core.Semigroup[mat], k int, a [][]float64, b []float64, x0 []float64, procs int) ([]float64, error) {
	n := len(b)
	if len(a) != k {
		return nil, fmt.Errorf("scan: need %d coefficient series, got %d", k, len(a))
	}
	if len(x0) < k {
		return nil, fmt.Errorf("scan: need %d initial values, got %d", k, len(x0))
	}
	out := make([]float64, n)
	copy(out, x0[:min(len(x0), n)])
	if n <= k {
		return out, nil
	}

	// steps[t] advances i = k+t; all share one backing array.
	d := k + 1
	steps := make([]mat, n-k)
	cells := make([]float64, (n-k)*d*d)
	for t := range steps {
		i := k + t
		m := mat{n: d, a: cells[t*d*d : (t+1)*d*d : (t+1)*d*d]}
		for j := 0; j < k; j++ {
			m.a[0*d+j] = a[j][i] // row 0: the recurrence
		}
		m.a[0*d+k] = b[i]
		for r := 1; r < k; r++ {
			m.a[r*d+(r-1)] = 1 // shift rows
		}
		m.a[k*d+k] = 1 // affine 1
		steps[t] = m
	}

	// Inclusive prefix of step compositions; pref[t] maps the initial
	// state to the state after i = k+t.
	pref, err := chainPrefix(op, steps, procs)
	if err != nil {
		return nil, err
	}

	// Initial state: (X[k-1], X[k-2], ..., X[0], 1).
	state := make([]float64, d)
	for j := 0; j < k; j++ {
		state[j] = x0[k-1-j]
	}
	state[k] = 1

	for t, m := range pref {
		// X[k+t] is row 0 of the composed map applied to the state.
		v := 0.0
		for j := 0; j < d; j++ {
			v += m.a[j] * state[j]
		}
		out[k+t] = v
	}
	return out, nil
}
