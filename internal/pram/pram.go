// Package pram is a synchronous PRAM cost model: a shared-memory machine
// executing lock-step phases of P processors, counting abstract instructions
// instead of wall-clock time. The paper evaluates its algorithm by counting
// "assembly instructions" on the SimParC simulator; this package is the
// high-level counting machine (package simparc is the instruction-level
// one), and both report
//
//	Time = Σ_phases max_p cost_p     (critical path with P processors)
//	Work = Σ_phases Σ_p   cost_p     (total instructions)
//
// Within a phase, loads observe the memory as it was when the phase started
// and stores are buffered and committed at the phase barrier — textbook
// synchronous CREW/EREW semantics, which is exactly what pointer jumping
// requires. Access conflicts (two stores to one address; for EREW also two
// accesses of any kind) are detected at commit time and reported as errors,
// so algorithm bugs surface instead of silently racing.
package pram

import (
	"errors"
	"fmt"
	"sync"
)

// Word is the machine word.
type Word = int64

// Mode selects the memory access discipline.
type Mode int

const (
	// CREW allows concurrent reads, exclusive writes (the paper's setting:
	// pointer jumping reads shared predecessors concurrently).
	CREW Mode = iota
	// EREW forbids concurrent access of any kind to one address.
	EREW
)

// String returns "CREW" or "EREW".
func (m Mode) String() string {
	if m == EREW {
		return "EREW"
	}
	return "CREW"
}

// Weights are per-instruction-class costs, letting experiments approximate
// a particular target machine. The zero value is invalid; use UnitWeights.
type Weights struct {
	Load, Store, ALU, Branch Word
	// Phase is the per-processor phase entry/exit overhead (fork/barrier),
	// charged once per phase to every participating processor.
	Phase Word
}

// UnitWeights charges one unit for everything and two for phase overhead —
// a generic RISC-ish accounting close to what SimParC counted.
func UnitWeights() Weights {
	return Weights{Load: 1, Store: 1, ALU: 1, Branch: 1, Phase: 2}
}

// Stats accumulates machine activity.
type Stats struct {
	// Time is the simulated critical path: Σ over phases of the maximum
	// per-processor instruction count in that phase.
	Time Word
	// Work is the total instruction count across all processors.
	Work Word
	// Phases is the number of executed phases.
	Phases int
	// MaxProcs is the largest processor count used by any phase.
	MaxProcs int
}

// Machine is a shared-memory PRAM.
type Machine struct {
	// Mem is the shared memory; read/write it directly between phases to
	// stage inputs and extract outputs (host access is free).
	Mem []Word

	mode    Mode
	weights Weights
	stats   Stats
}

// Option configures a Machine.
type Option func(*Machine)

// WithMode sets the access discipline (default CREW).
func WithMode(m Mode) Option { return func(ma *Machine) { ma.mode = m } }

// WithWeights sets the cost table (default UnitWeights).
func WithWeights(w Weights) Option { return func(ma *Machine) { ma.weights = w } }

// New returns a machine with the given number of memory words.
func New(words int, opts ...Option) *Machine {
	m := &Machine{Mem: make([]Word, words), weights: UnitWeights()}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Stats returns the accumulated counters.
func (m *Machine) Stats() Stats { return m.stats }

// ErrConflict reports a memory access conflict detected at a phase barrier.
var ErrConflict = errors.New("pram: memory access conflict")

// Proc is a processor's view of the machine during one phase. Its methods
// are the only way a kernel touches memory, so instruction accounting is
// complete by construction.
type Proc struct {
	// ID is the processor index, 0..P-1.
	ID int

	m      *Machine
	cost   Word
	direct bool // immediate stores (single-processor unbuffered mode)
	writes map[int]Word
	reads  map[int]struct{} // tracked only under EREW
}

// Load reads Mem[addr] as of the phase start (buffered writes by this or
// any other processor are NOT visible — synchronous PRAM semantics).
func (p *Proc) Load(addr int) Word {
	p.cost += p.m.weights.Load
	if p.reads != nil {
		p.reads[addr] = struct{}{}
	}
	return p.m.Mem[addr]
}

// Store buffers a write of w to Mem[addr]; it commits at the phase barrier.
// A later Load in the same phase still sees the old value.
func (p *Proc) Store(addr int, w Word) {
	p.cost += p.m.weights.Store
	if p.direct {
		p.m.Mem[addr] = w
		return
	}
	p.writes[addr] = w
}

// ALU charges n arithmetic/logic instructions.
func (p *Proc) ALU(n int) { p.cost += Word(n) * p.m.weights.ALU }

// Branch charges one branch instruction (loop back-edges, conditionals).
func (p *Proc) Branch() { p.cost += p.m.weights.Branch }

// Cost returns the instructions charged so far in this phase.
func (p *Proc) Cost() Word { return p.cost }

// Phase runs body on P processors in lock-step: all reads see the phase's
// initial memory; all writes commit together at the end. The body runs
// concurrently on real goroutines (each Proc is goroutine-local), then the
// machine merges write buffers, detecting conflicts per the access mode.
func (m *Machine) Phase(procs int, body func(p *Proc)) error {
	if procs < 1 {
		return fmt.Errorf("pram: Phase needs procs >= 1, got %d", procs)
	}
	ps := make([]*Proc, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for id := 0; id < procs; id++ {
		p := &Proc{ID: id, m: m, writes: make(map[int]Word)}
		if m.mode == EREW {
			p.reads = make(map[int]struct{})
		}
		ps[id] = p
		go func() {
			defer wg.Done()
			body(p)
		}()
	}
	wg.Wait()

	// Commit + conflict detection.
	writer := make(map[int]int) // addr -> proc id
	for _, p := range ps {
		for addr, w := range p.writes {
			if prev, clash := writer[addr]; clash {
				return fmt.Errorf("%w: procs %d and %d both store to %d",
					ErrConflict, prev, p.ID, addr)
			}
			writer[addr] = p.ID
			if addr < 0 || addr >= len(m.Mem) {
				return fmt.Errorf("pram: store out of memory bounds: addr %d", addr)
			}
			m.Mem[addr] = w
		}
	}
	if m.mode == EREW {
		reader := make(map[int]int)
		for _, p := range ps {
			for addr := range p.reads {
				if prev, clash := reader[addr]; clash {
					return fmt.Errorf("%w: EREW: procs %d and %d both load %d",
						ErrConflict, prev, p.ID, addr)
				}
				reader[addr] = p.ID
			}
			for addr := range p.reads {
				if w, ok := writer[addr]; ok && w != p.ID {
					return fmt.Errorf("%w: EREW: proc %d loads %d stored by proc %d",
						ErrConflict, p.ID, addr, w)
				}
			}
		}
	}

	// Accounting.
	var maxCost, sumCost Word
	for _, p := range ps {
		c := p.cost + m.weights.Phase
		if c > maxCost {
			maxCost = c
		}
		sumCost += c
	}
	m.stats.Time += maxCost
	m.stats.Work += sumCost
	m.stats.Phases++
	if procs > m.stats.MaxProcs {
		m.stats.MaxProcs = procs
	}
	return nil
}

// Snapshot returns a copy of a memory range [lo, hi) for host inspection.
func (m *Machine) Snapshot(lo, hi int) []Word {
	out := make([]Word, hi-lo)
	copy(out, m.Mem[lo:hi])
	return out
}
