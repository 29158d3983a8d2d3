package parallel

import "runtime"

// DefaultProcs returns the processor count used when a caller passes p <= 0:
// the runtime's GOMAXPROCS setting.
func DefaultProcs() int {
	return runtime.GOMAXPROCS(0)
}

// clampProcs normalizes a requested processor count against n work items.
func clampProcs(p, n int) int {
	if p <= 0 {
		p = DefaultProcs()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// minGrain is the smallest chunk worth crossing a goroutine boundary: with
// n work items and p requested processors, ForCtx caps the worker count at
// ⌈n/minGrain⌉ so n slightly above p never fans 1–2 element chunks out to p
// goroutines (whose handoff costs more than the work).
const minGrain = 32

// grainProcs clamps a requested processor count against n like clampProcs,
// then applies the minGrain sequential cutover.
func grainProcs(p, n int) int {
	p = clampProcs(p, n)
	if maxp := (n + minGrain - 1) / minGrain; p > maxp {
		p = maxp
	}
	return p
}
