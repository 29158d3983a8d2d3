package pram

import (
	"fmt"
	"math/bits"
)

// RunParallelScan simulates the Kogge–Stone inclusive scan of xs under op on
// P processors: ⌈log₂ n⌉ phases of out[i] = op(out[i-2^t], out[i]) with
// double buffering — the classical prefix route ([4] Kogge–Stone) in the
// cost model, used to compare it against the OrdinaryIR route at the
// instruction level (experiment E14's simulated variant).
func RunParallelScan(xs []Word, op BinOp, procs int) ([]Word, Stats, error) {
	n := len(xs)
	if procs < 1 {
		return nil, Stats{}, fmt.Errorf("pram: procs must be >= 1")
	}
	// Layout: SRC [0, n), DST [n, 2n); roles swap each phase.
	ma := New(2 * n)
	copy(ma.Mem[0:n], xs)
	copy(ma.Mem[n:2*n], xs)

	chunk := func(id int) (int, int) {
		return id * n / procs, (id + 1) * n / procs
	}
	src, dst := 0, n
	phases := 0
	if n > 1 {
		phases = bits.Len(uint(n - 1))
	}
	for t := 0; t < phases; t++ {
		stride := 1 << t
		err := ma.Phase(procs, func(p *Proc) {
			lo, hi := chunk(p.ID)
			p.ALU(4)
			for i := lo; i < hi; i++ {
				v := p.Load(src + i)
				p.Branch()
				if i >= stride {
					u := p.Load(src + i - stride)
					p.ALU(op.Cost)
					v = op.Apply(u, v)
				}
				p.Store(dst+i, v)
				p.ALU(2)
				p.Branch()
			}
		})
		if err != nil {
			return nil, Stats{}, err
		}
		src, dst = dst, src
	}
	out := make([]Word, n)
	copy(out, ma.Mem[src:src+n])
	return out, ma.Stats(), nil
}

// RunMap simulates an embarrassingly parallel map phase out[i] = f(in[i]) on
// P processors — the "no recurrence" Livermore bucket's cost shape: a single
// phase of ⌈n/P⌉ work.
func RunMap(xs []Word, f func(Word) Word, fCost int, procs int) ([]Word, Stats, error) {
	n := len(xs)
	if procs < 1 {
		return nil, Stats{}, fmt.Errorf("pram: procs must be >= 1")
	}
	ma := New(2 * n)
	copy(ma.Mem[0:n], xs)
	err := ma.Phase(procs, func(p *Proc) {
		lo := p.ID * n / procs
		hi := (p.ID + 1) * n / procs
		p.ALU(4)
		for i := lo; i < hi; i++ {
			v := p.Load(i)
			p.ALU(fCost)
			p.Store(n+i, f(v))
			p.ALU(2)
			p.Branch()
		}
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Word, n)
	copy(out, ma.Mem[n:2*n])
	return out, ma.Stats(), nil
}
