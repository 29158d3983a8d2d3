package gir

import "math/big"

// PlanCount returns the exact count of term k of cell x's trace.
func PlanCount(p *Plan, x, k int) *big.Int {
	lo, hi := p.span(x)
	if lo == hi {
		return big.NewInt(1)
	}
	return new(big.Int).Set(p.count(lo+int32(k), new(big.Int)))
}

// WideTerms returns the number of terms in p's overflow table.
func WideTerms(p *Plan) int { return len(p.wide) }

// StoredTerms returns the number of terms p stores: every written cell's.
func StoredTerms(p *Plan) int { return len(p.sink) }

// UnitCounts reports whether p keeps no count table: every stored count is 1.
func UnitCounts(p *Plan) bool { return p.cnt == nil }
