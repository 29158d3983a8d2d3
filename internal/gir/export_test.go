package gir

import "math/big"

// PlanCount returns term t's exact count.
func PlanCount(p *Plan, t int) *big.Int {
	if c := p.cnt[t]; c != 0 {
		return new(big.Int).SetUint64(c)
	}
	return p.wide[int32(t)]
}

// WideTerms returns the number of terms in p's overflow table.
func WideTerms(p *Plan) int { return len(p.wide) }
