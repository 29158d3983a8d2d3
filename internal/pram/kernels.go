package pram

import (
	"fmt"
	"math/bits"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// BinOp is a word-level associative operation with an instruction cost, the
// ⊗ of the simulated programs.
type BinOp struct {
	Name  string
	Apply func(a, b Word) Word
	// Cost is the ALU instruction count charged per application.
	Cost int
}

// OpAdd is word addition (one ALU instruction).
var OpAdd = BinOp{Name: "add", Apply: func(a, b Word) Word { return a + b }, Cost: 1}

// OpMax is word maximum (compare + conditional move: two instructions).
var OpMax = BinOp{Name: "max", Apply: func(a, b Word) Word {
	if a > b {
		return a
	}
	return b
}, Cost: 2}

// OpMulMod returns multiplication modulo m (multiply + remainder).
func OpMulMod(m Word) BinOp {
	return BinOp{
		Name:  "mulmod",
		Apply: func(a, b Word) Word { return a % m * (b % m) % m },
		Cost:  3,
	}
}

// IRRun is the outcome of simulating an IR loop on the cost-model machine.
type IRRun struct {
	// Values is the final array (length m), extracted from machine memory.
	Values []Word
	// Stats is the machine's instruction accounting.
	Stats Stats
	// Rounds is the number of pointer-jumping rounds (0 for sequential).
	Rounds int
}

// RunSequentialIR simulates the original sequential loop
//
//	for i: A[g(i)] := A[f(i)] ⊗ A[g(i)]
//
// on one processor with immediate stores, charging per iteration: two index
// loads (tables G, F), two value loads, the op, one store, two ALU for
// address arithmetic and one branch — the paper's "Original IR Loop" curve.
func RunSequentialIR(s *core.System, op BinOp, init []Word) (*IRRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Ordinary() {
		return nil, fmt.Errorf("pram: RunSequentialIR wants an ordinary system")
	}
	m, n := s.M, s.N
	// Layout: A [0,m), G [m, m+n), F [m+n, m+2n).
	ma := New(m + 2*n)
	copy(ma.Mem[0:m], init)
	for i := 0; i < n; i++ {
		ma.Mem[m+i] = Word(s.G[i])
		ma.Mem[m+n+i] = Word(s.F[i])
	}
	err := ma.RunUnbuffered(func(p *Proc) {
		for i := 0; i < n; i++ {
			g := int(p.Load(m + i))
			f := int(p.Load(m + n + i))
			av := p.Load(f)
			gv := p.Load(g)
			p.ALU(op.Cost)
			p.Store(g, op.Apply(av, gv))
			p.ALU(2)   // index increment + address arithmetic
			p.Branch() // loop back-edge
		}
	})
	if err != nil {
		return nil, err
	}
	return &IRRun{Values: ma.Snapshot(0, m), Stats: ma.Stats()}, nil
}

// RunParallelOIR simulates the paper's parallel OrdinaryIR on P processors:
// an initialization phase building the length-≤2 traces, then ⌈log₂ L⌉
// lock-step pointer-jumping rounds, each a phase where every processor owns
// ~K/P of the written cells (the "forks only up to P processes" version,
// T(n,P) = (n/P)·log n). Buffer roles alternate by round parity, mirroring
// the register-swap of a real implementation.
//
// The write-chain forest (Next/InitF) is staged into memory by the host;
// building it is a linear scan the paper does not charge to the parallel
// algorithm, and charging it would add the same O(n/P) term to every round
// count without changing any comparison.
func RunParallelOIR(s *core.System, op BinOp, init []Word, procs int) (*IRRun, error) {
	fr, err := ordinary.BuildForest(s)
	if err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("pram: procs must be >= 1, got %d", procs)
	}
	m := s.M
	cells := s.G
	k := len(cells)

	// Layout.
	const (
		baseA = 0
	)
	baseV := m
	baseN := 2 * m
	baseV2 := 3 * m
	baseN2 := 4 * m
	baseNext := 5 * m
	baseInitF := 6 * m
	baseCells := 7 * m
	ma := New(7*m + k)
	copy(ma.Mem[baseA:baseA+m], init)
	for x := 0; x < m; x++ {
		ma.Mem[baseNext+x] = Word(fr.Next[x])
		ma.Mem[baseInitF+x] = Word(fr.InitF[x])
	}
	for idx, x := range cells {
		ma.Mem[baseCells+idx] = Word(x)
	}

	chunk := func(id int) (int, int) {
		lo := id * k / procs
		hi := (id + 1) * k / procs
		return lo, hi
	}

	// Phase 0: build initial traces (V) and live pointers (N) for written
	// cells; unwritten cells keep A as their value (read directly at the
	// end, no copy needed).
	err = ma.Phase(procs, func(p *Proc) {
		lo, hi := chunk(p.ID)
		p.ALU(4) // chunk boundary computation
		for idx := lo; idx < hi; idx++ {
			x := int(p.Load(baseCells + idx))
			nx := p.Load(baseNext + x)
			p.Branch()
			if nx >= 0 {
				av := p.Load(baseA + x)
				p.Store(baseV+x, av)
				p.Store(baseN+x, nx)
			} else {
				initF := int(p.Load(baseInitF + x))
				fv := p.Load(baseA + initF)
				av := p.Load(baseA + x)
				p.ALU(op.Cost)
				p.Store(baseV+x, op.Apply(fv, av))
				p.Store(baseN+x, -1)
			}
			p.ALU(2)
			p.Branch()
		}
	})
	if err != nil {
		return nil, err
	}

	rounds := 0
	if maxLen := fr.MaxChainLen(); maxLen > 1 {
		rounds = bits.Len(uint(maxLen - 1)) // ⌈log₂ maxLen⌉
	}
	srcV, srcN, dstV, dstN := baseV, baseN, baseV2, baseN2
	for r := 0; r < rounds; r++ {
		err = ma.Phase(procs, func(p *Proc) {
			lo, hi := chunk(p.ID)
			p.ALU(4)
			for idx := lo; idx < hi; idx++ {
				x := int(p.Load(baseCells + idx))
				nx := p.Load(srcN + x)
				p.Branch()
				if nx >= 0 {
					vn := p.Load(srcV + int(nx))
					vx := p.Load(srcV + x)
					p.ALU(op.Cost)
					p.Store(dstV+x, op.Apply(vn, vx))
					nn := p.Load(srcN + int(nx))
					p.Store(dstN+x, nn)
				} else {
					p.Store(dstV+x, p.Load(srcV+x))
					p.Store(dstN+x, -1)
				}
				p.ALU(2)
				p.Branch()
			}
		})
		if err != nil {
			return nil, err
		}
		srcV, dstV = dstV, srcV
		srcN, dstN = dstN, srcN
	}

	// Extract: written cells from the live V buffer, others from A.
	out := make([]Word, m)
	copy(out, ma.Mem[baseA:baseA+m])
	for _, x := range cells {
		out[x] = ma.Mem[srcV+x]
	}
	return &IRRun{Values: out, Stats: ma.Stats(), Rounds: rounds}, nil
}

// RunParallelOIRChargedSetup is RunParallelOIR plus fair-accounting of the
// staging the default kernel gets for free: one extra P-processor phase
// that touches every iteration's G/F entry and every cell's Next/InitF slot
// (the O(n/P) cost a real program would pay to materialize the write-chain
// forest from precomputed dependence tables). The ablation in DESIGN.md E10
// uses it to show the (n/P)·log n shape is insensitive to the charge — the
// setup adds one more O(n/P) term to a sum of log n of them.
func RunParallelOIRChargedSetup(s *core.System, op BinOp, init []Word, procs int) (*IRRun, error) {
	if procs < 1 {
		return nil, fmt.Errorf("pram: procs must be >= 1, got %d", procs)
	}
	// Charge the staging phase on a throwaway machine with the same
	// weights, then run the real kernel and fold the costs together.
	stage := New(3 * s.N)
	err := stage.Phase(procs, func(p *Proc) {
		lo := p.ID * s.N / procs
		hi := (p.ID + 1) * s.N / procs
		p.ALU(4)
		for i := lo; i < hi; i++ {
			_ = p.Load(i)       // G[i]
			_ = p.Load(s.N + i) // F[i]
			p.Store(2*s.N+i, 0) // the iteration's forest slot
			p.ALU(2)            // dependence-table arithmetic
			p.Branch()
		}
	})
	if err != nil {
		return nil, err
	}
	run, err := RunParallelOIR(s, op, init, procs)
	if err != nil {
		return nil, err
	}
	st := stage.Stats()
	run.Stats.Time += st.Time
	run.Stats.Work += st.Work
	run.Stats.Phases += st.Phases
	return run, nil
}
