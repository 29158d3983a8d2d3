package simparc

import (
	"fmt"
	"math/bits"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// SeqIRSource is the "Original IR Loop" — the paper's sequential baseline —
// as a SimParC assembly program. Host symbols: NITER, A, G, F (array bases).
const SeqIRSource = `
; Original IR loop:  for i = 0..NITER-1: A[G[i]] := OPX(A[F[i]], A[G[i]])
main:
    LDI  r2, 0            ; i
    LDI  r3, NITER
sloop:
    BGE  r2, r3, sdone
    LDI  r4, G
    ADD  r4, r4, r2
    LD   r5, r4, 0        ; g = G[i]
    LDI  r4, F
    ADD  r4, r4, r2
    LD   r6, r4, 0        ; f = F[i]
    LDI  r4, A
    ADD  r7, r4, r6
    LD   r8, r7, 0        ; A[f]
    ADD  r7, r4, r5
    LD   r9, r7, 0        ; A[g]
    OPX  r8, r8, r9
    ST   r8, r7, 0        ; A[g] := A[f] (x) A[g]
    ADDI r2, r2, 1
    JMP  sloop
sdone:
    HALT
`

// ParallelOIRSource is the paper's parallel OrdinaryIR algorithm as a
// SimParC assembly program: a master forks NPROC workers; each worker owns a
// ~K/NPROC slice of the written-cell list, builds its initial traces, then
// runs ROUNDS lock-step pointer-jumping rounds separated by SYNC barriers,
// swapping source/destination buffer base registers between rounds.
//
// Host symbols: NPROC, K (written-cell count), ROUNDS, and array bases
// A, V, N, V2, N2, NEXT, INITF, CELLS.
const ParallelOIRSource = `
; Parallel OrdinaryIR (pointer jumping), work-shared across NPROC workers.
main:
    LDI  r2, 0
    LDI  r3, NPROC
mloop:
    BGE  r2, r3, mdone
    FORK r2, worker       ; child starts at worker with r1 = r2
    ADDI r2, r2, 1
    JMP  mloop
mdone:
    HALT

worker:
    ; chunk bounds: lo = id*K/NPROC, hi = (id+1)*K/NPROC
    LDI  r2, K
    LDI  r3, NPROC
    MUL  r4, r1, r2
    DIV  r4, r4, r3       ; lo
    ADDI r5, r1, 1
    MUL  r5, r5, r2
    DIV  r5, r5, r3       ; hi

    ; ---- init phase: traces of length <= 2 ----
    MOV  r6, r4           ; idx
iloop:
    BGE  r6, r5, idone
    LDI  r7, CELLS
    ADD  r7, r7, r6
    LD   r8, r7, 0        ; x = CELLS[idx]
    LDI  r7, NEXT
    ADD  r7, r7, r8
    LD   r9, r7, 0        ; nx = NEXT[x]
    LDI  r10, A
    ADD  r10, r10, r8
    LD   r11, r10, 0      ; A[x]
    LDI  r0, 0
    BLT  r9, r0, iinitf
    LDI  r12, V           ; chain continues: V[x]=A[x], N[x]=nx
    ADD  r12, r12, r8
    ST   r11, r12, 0
    LDI  r12, N
    ADD  r12, r12, r8
    ST   r9, r12, 0
    JMP  inext
iinitf:                   ; terminal: V[x]=OPX(A[InitF[x]],A[x]), N[x]=-1
    LDI  r12, INITF
    ADD  r12, r12, r8
    LD   r13, r12, 0
    LDI  r12, A
    ADD  r12, r12, r13
    LD   r13, r12, 0      ; A[InitF[x]]
    OPX  r11, r13, r11
    LDI  r12, V
    ADD  r12, r12, r8
    ST   r11, r12, 0
    LDI  r13, -1
    LDI  r12, N
    ADD  r12, r12, r8
    ST   r13, r12, 0
inext:
    ADDI r6, r6, 1
    JMP  iloop
idone:
    SYNC

    ; ---- pointer-jumping rounds ----
    LDI  r14, 0           ; round counter
    LDI  r2, V            ; src V base
    LDI  r3, N            ; src N base
    LDI  r12, V2          ; dst V base
    LDI  r13, N2          ; dst N base
rloop:
    LDI  r0, ROUNDS
    BGE  r14, r0, rdone
    MOV  r6, r4           ; idx = lo
jloop:
    BGE  r6, r5, jdone
    LDI  r7, CELLS
    ADD  r7, r7, r6
    LD   r8, r7, 0        ; x
    ADD  r7, r3, r8
    LD   r9, r7, 0        ; nx = srcN[x]
    LDI  r0, 0
    BLT  r9, r0, jcopy
    ADD  r7, r2, r9
    LD   r10, r7, 0       ; srcV[nx]
    ADD  r7, r2, r8
    LD   r11, r7, 0       ; srcV[x]
    OPX  r10, r10, r11    ; concatenate sub-traces
    ADD  r7, r12, r8
    ST   r10, r7, 0       ; dstV[x]
    ADD  r7, r3, r9
    LD   r10, r7, 0       ; srcN[nx]
    ADD  r7, r13, r8
    ST   r10, r7, 0       ; dstN[x] (pointer doubling)
    JMP  jnext
jcopy:                    ; completed trace: copy forward
    ADD  r7, r2, r8
    LD   r10, r7, 0
    ADD  r7, r12, r8
    ST   r10, r7, 0
    LDI  r10, -1
    ADD  r7, r13, r8
    ST   r10, r7, 0
jnext:
    ADDI r6, r6, 1
    JMP  jloop
jdone:
    SYNC
    MOV  r0, r2           ; swap buffer roles
    MOV  r2, r12
    MOV  r12, r0
    MOV  r0, r3
    MOV  r3, r13
    MOV  r13, r0
    ADDI r14, r14, 1
    JMP  rloop
rdone:
    HALT
`

// RunResult is the outcome of running one of the shipped programs.
type RunResult struct {
	// Values is the final array (length m).
	Values []int64
	// Cycles is lock-step time; Instrs is total work.
	Cycles, Instrs int64
	// MaxActive is the peak number of simultaneously active processors.
	MaxActive int
	// Rounds is the pointer-jumping round count (parallel program only).
	Rounds int
}

// RunSeqIR assembles and executes the sequential baseline program on the
// given ordinary IR instance.
func RunSeqIR(s *core.System, opx func(a, b int64) int64, init []int64, maxCycles int64) (*RunResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Ordinary() {
		return nil, fmt.Errorf("simparc: RunSeqIR wants an ordinary system")
	}
	m, n := s.M, s.N
	baseA, baseG, baseF := 0, m, m+n
	prog, err := Assemble(SeqIRSource, map[string]int64{
		"NITER": int64(n), "A": int64(baseA), "G": int64(baseG), "F": int64(baseF),
	})
	if err != nil {
		return nil, err
	}
	vm := NewVM(prog, m+2*n)
	vm.OpX = opx
	copy(vm.Mem[baseA:baseA+m], init)
	for i := 0; i < n; i++ {
		vm.Mem[baseG+i] = int64(s.G[i])
		vm.Mem[baseF+i] = int64(s.F[i])
	}
	if err := vm.Run(maxCycles); err != nil {
		return nil, err
	}
	out := make([]int64, m)
	copy(out, vm.Mem[baseA:baseA+m])
	return &RunResult{Values: out, Cycles: vm.Cycles, Instrs: vm.Instrs, MaxActive: vm.MaxActive}, nil
}

// RunParallelOIR assembles and executes the parallel program with nproc
// workers. The write-chain forest is staged into memory by the host (same
// accounting note as pram.RunParallelOIR).
func RunParallelOIR(s *core.System, opx func(a, b int64) int64, init []int64, nproc int, maxCycles int64) (*RunResult, error) {
	fr, err := ordinary.BuildForest(s)
	if err != nil {
		return nil, err
	}
	if nproc < 1 {
		return nil, fmt.Errorf("simparc: nproc must be >= 1, got %d", nproc)
	}
	m := s.M
	cells := s.G
	k := len(cells)
	rounds := 0
	if maxLen := fr.MaxChainLen(); maxLen > 1 {
		rounds = bits.Len(uint(maxLen - 1))
	}

	baseA := 0
	baseV := m
	baseN := 2 * m
	baseV2 := 3 * m
	baseN2 := 4 * m
	baseNext := 5 * m
	baseInitF := 6 * m
	baseCells := 7 * m
	prog, err := Assemble(ParallelOIRSource, map[string]int64{
		"NPROC": int64(nproc), "K": int64(k), "ROUNDS": int64(rounds),
		"A": int64(baseA), "V": int64(baseV), "N": int64(baseN),
		"V2": int64(baseV2), "N2": int64(baseN2),
		"NEXT": int64(baseNext), "INITF": int64(baseInitF), "CELLS": int64(baseCells),
	})
	if err != nil {
		return nil, err
	}
	vm := NewVM(prog, 7*m+k)
	vm.OpX = opx
	copy(vm.Mem[baseA:baseA+m], init)
	for x := 0; x < m; x++ {
		vm.Mem[baseNext+x] = int64(fr.Next[x])
		vm.Mem[baseInitF+x] = int64(fr.InitF[x])
	}
	for idx, x := range cells {
		vm.Mem[baseCells+idx] = int64(x)
	}
	if err := vm.Run(maxCycles); err != nil {
		return nil, err
	}
	// Result buffer: V if rounds is even, V2 if odd (buffers swap/round).
	srcV := baseV
	if rounds%2 == 1 {
		srcV = baseV2
	}
	out := make([]int64, m)
	copy(out, vm.Mem[baseA:baseA+m])
	for _, x := range cells {
		out[x] = vm.Mem[srcV+x]
	}
	return &RunResult{
		Values: out, Cycles: vm.Cycles, Instrs: vm.Instrs,
		MaxActive: vm.MaxActive, Rounds: rounds,
	}, nil
}
