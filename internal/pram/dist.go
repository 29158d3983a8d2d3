package pram

import (
	"fmt"
	"math/bits"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// Dist selects how the written cells are distributed over processors —
// the scheduling knob of the paper's simulator reference ([5] Haber &
// Ben-Asher, on detecting inefficiency caused by "bad" schedulings).
type Dist int

const (
	// DistBlock gives processor p the contiguous slice [p·K/P, (p+1)·K/P).
	// Pathological when the long chains cluster in one block: that
	// processor stays busy every round while the others run out of live
	// cells and idle (lock-step time = per-round MAX over processors).
	DistBlock Dist = iota
	// DistCyclic gives processor p the cells p, p+P, p+2P, ... — spreading
	// clustered imbalance evenly.
	DistCyclic
)

// String returns "block" or "cyclic".
func (d Dist) String() string {
	if d == DistCyclic {
		return "cyclic"
	}
	return "block"
}

// RunParallelOIRSched simulates the paper's EFFICIENT OrdinaryIR variant:
// once a trace completes "we must not continue to concatenate any more
// traces to it", so each processor keeps a private worklist of still-live
// cells (compaction charged one ALU per retained cell per round) and a
// round costs that processor only its live-cell work. Under this model the
// distribution policy matters — the scheduling-inefficiency effect the
// SimParC reference [5] studies — and the sched experiment quantifies it.
func RunParallelOIRSched(s *core.System, op BinOp, init []Word, procs int, dist Dist) (*IRRun, error) {
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

	baseA := 0
	baseV := m
	baseN := 2 * m
	baseV2 := 3 * m
	baseN2 := 4 * m
	baseNext := 5 * m
	baseInitF := 6 * m
	ma := New(7 * m)
	copy(ma.Mem[baseA:baseA+m], init)
	for x := 0; x < m; x++ {
		ma.Mem[baseNext+x] = Word(fr.Next[x])
		ma.Mem[baseInitF+x] = Word(fr.InitF[x])
	}

	// Host-side ownership bookkeeping (the program would hold these in
	// private memory); worklist compaction is charged below.
	owned := make([][]int, procs) // live cells per processor
	switch dist {
	case DistCyclic:
		for idx, x := range cells {
			p := idx % procs
			owned[p] = append(owned[p], x)
		}
	default:
		for idx, x := range cells {
			p := idx * procs / k
			owned[p] = append(owned[p], x)
		}
	}
	// finalBuf[x] records which V bank held cell x's value when its trace
	// completed (completed cells are never touched again).
	finalBuf := make([]int, m)
	for x := range finalBuf {
		finalBuf[x] = -1
	}

	// Init phase: build length-≤2 traces; terminal cells complete at once.
	err = ma.Phase(procs, func(p *Proc) {
		p.ALU(4)
		live := owned[p.ID][:0]
		for _, x := range owned[p.ID] {
			nx := p.Load(baseNext + x)
			p.Branch()
			if nx >= 0 {
				p.Store(baseV+x, p.Load(baseA+x))
				p.Store(baseN+x, nx)
				live = append(live, x)
				p.ALU(1) // worklist retention
			} else {
				initF := int(p.Load(baseInitF + x))
				fv := p.Load(baseA + initF)
				av := p.Load(baseA + x)
				p.ALU(op.Cost)
				p.Store(baseV+x, op.Apply(fv, av))
				finalBuf[x] = baseV
			}
			p.ALU(2)
			p.Branch()
		}
		owned[p.ID] = live
	})
	if err != nil {
		return nil, err
	}

	rounds := 0
	if maxLen := fr.MaxChainLen(); maxLen > 1 {
		rounds = bits.Len(uint(maxLen - 1))
	}
	srcV, srcN, dstV, dstN := baseV, baseN, baseV2, baseN2
	for r := 0; r < rounds; r++ {
		// Phase-start snapshot of the completion table: a predecessor that
		// completes DURING this round was live at round start, so its
		// phase-start V/N banks are the correct ones to read (and the
		// snapshot keeps the host bookkeeping race-free, mirroring the
		// machine's buffered-store semantics).
		snap := append([]int(nil), finalBuf...)
		completions := make([][]int, procs)
		err = ma.Phase(procs, func(p *Proc) {
			p.ALU(4)
			live := owned[p.ID][:0]
			for _, x := range owned[p.ID] {
				// A completed predecessor's value is read from the bank it
				// was frozen in; a live one from the current source bank.
				nx := int(p.Load(srcN + x))
				p.Branch()
				vBank := srcV
				frozen := snap[nx] >= 0
				if frozen {
					vBank = snap[nx]
				}
				vn := p.Load(vBank + nx)
				vx := p.Load(srcV + x)
				p.ALU(op.Cost)
				nv := op.Apply(vn, vx)
				var nn Word = -1
				if !frozen {
					nn = p.Load(srcN + nx)
				}
				p.Store(dstV+x, nv)
				if nn >= 0 {
					p.Store(dstN+x, nn)
					live = append(live, x)
					p.ALU(1) // worklist retention
				} else {
					completions[p.ID] = append(completions[p.ID], x)
				}
				p.ALU(2)
				p.Branch()
			}
			owned[p.ID] = live
		})
		if err != nil {
			return nil, err
		}
		for _, done := range completions {
			for _, x := range done {
				finalBuf[x] = dstV
			}
		}
		srcV, dstV = dstV, srcV
		srcN, dstN = dstN, srcN
	}

	out := make([]Word, m)
	copy(out, ma.Mem[baseA:baseA+m])
	for _, x := range cells {
		if fb := finalBuf[x]; fb >= 0 {
			out[x] = ma.Mem[fb+x]
		} else {
			out[x] = ma.Mem[srcV+x] // safety: should not happen
		}
	}
	return &IRRun{Values: out, Stats: ma.Stats(), Rounds: rounds}, nil
}
