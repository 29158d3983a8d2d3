package ir

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"indexedrec/internal/gir"
	"indexedrec/internal/ordinary"
)

// Shard-slice solves: the distribution layer of compiled plans. A plan's
// work divides along structure the paper itself hands us — the ordinary
// solver's write-chain forest is a disjoint union of chains, and the
// general and Möbius families evaluate output cells independently once
// structure is fixed — so a solve scatters into Shards, each executable on
// a different machine against the same PlanData, and gathers back
// bit-identically to Plan.SolveCtx. internal/cluster is the engine built on
// these entry points; workers execute SolveShardCtx, coordinators cut
// Partition and reassemble with MergeShards.

// ErrShard wraps shard-layer failures: bad ranges, incomplete gathers, and
// family/shard mismatches.
var ErrShard = errors.New("ir: bad shard")

// Shard is a half-open slice [Lo, Hi) of a plan's shard domain. The domain
// depends on the family: chains of the write-chain forest for
// FamilyOrdinary (see Plan.ShardUnits), output cells for FamilyGeneral and
// FamilyMoebius.
type Shard struct {
	// Lo and Hi bound the slice, 0 <= Lo <= Hi <= ShardUnits().
	Lo, Hi int
}

// ShardSolution is the result of one shard's solve: a slice of the full
// solution. Ordinary-family shards are sparse (Cells lists the owned cells,
// ascending); general and Möbius shards are dense over [Shard.Lo, Shard.Hi).
// Exactly one of ValuesInt/ValuesFloat/Values is set, as in PlanSolution.
type ShardSolution struct {
	// Shard echoes the request's slice.
	Shard Shard `json:"shard"`
	// Cells lists the cells a sparse (ordinary-family) shard owns,
	// ascending and parallel to the values array; nil for dense shards.
	Cells []int `json:"cells,omitempty"`
	// ValuesInt / ValuesFloat carry ordinary- and general-family values,
	// matching the operator's domain.
	ValuesInt   []int64   `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	// Values carries Möbius-family values.
	Values []float64 `json:"values,omitempty"`
}

// ShardUnits returns the size of the plan's shard domain: the chain count
// for the ordinary family, the cell count for the general and Möbius
// families. Shards slice [0, ShardUnits()).
func (p *Plan) ShardUnits() int {
	switch p.family {
	case FamilyOrdinary:
		return p.ord.NumChains()
	case FamilyGeneral, FamilyMoebius:
		return p.m
	default:
		return 0
	}
}

// Partition cuts the plan's shard domain into at most k contiguous,
// non-empty, collectively exhaustive shards, balanced by work: chain cell
// counts for the ordinary family, uniform per cell otherwise. An empty
// domain yields nil (nothing to distribute — solve locally).
func (p *Plan) Partition(k int) []Shard {
	units := p.ShardUnits()
	if units == 0 || k < 1 {
		return nil
	}
	var weights []int
	if p.family == FamilyOrdinary {
		weights = p.ord.ChainSizes()
	}
	total := units
	if weights != nil {
		total = 0
		for _, w := range weights {
			total += w
		}
	}
	shards := make([]Shard, 0, k)
	lo, done := 0, 0
	for s := 0; s < k && lo < units; s++ {
		left := k - s
		target := (total - done + left - 1) / left
		acc, hi := 0, lo
		for hi < units && (acc < target || acc == 0) {
			if weights != nil {
				acc += weights[hi]
			} else {
				acc++
			}
			hi++
		}
		shards = append(shards, Shard{Lo: lo, Hi: hi})
		lo, done = hi, done+acc
	}
	if lo < units { // leftovers join the last shard
		shards[len(shards)-1].Hi = units
	}
	return shards
}

// SolveShardCtx executes one shard of the plan against data — the
// worker-side entry point of a distributed solve. The returned slice is
// bit-identical to the corresponding cells of Plan.SolveCtx(data);
// reassemble complete shard sets with MergeShards. PlanData.WithPowers is
// not supported here (power traces are a whole-plan artifact).
func (p *Plan) SolveShardCtx(ctx context.Context, data PlanData, sh Shard) (*ShardSolution, error) {
	if sh.Lo < 0 || sh.Hi > p.ShardUnits() || sh.Lo > sh.Hi {
		return nil, fmt.Errorf("%w: [%d, %d) of %d units", ErrShard, sh.Lo, sh.Hi, p.ShardUnits())
	}
	switch p.family {
	case FamilyMoebius:
		values, err := p.mb.SolveRangeCtx(ctx, data.A, data.B, data.C, data.D, data.X0, sh.Lo, sh.Hi,
			ordinary.Options{Procs: data.Opts.Procs})
		if err != nil {
			return nil, err
		}
		return &ShardSolution{Shard: sh, Values: values}, nil
	case FamilyOrdinary, FamilyGeneral:
		// fall through to the operator dispatch below
	default:
		return nil, fmt.Errorf("%w: cannot shard family %v", ErrPlanFamily, p.family)
	}

	iop, err := IntOpByName(data.Op, data.Mod)
	if err != nil {
		return nil, err
	}
	if iop != nil {
		if data.InitInt == nil {
			return nil, fmt.Errorf("ir: op %q has integer domain but PlanData.InitInt is nil", data.Op)
		}
		return solveShardTyped[int64](ctx, p, iop, data.InitInt, sh, data.Opts)
	}
	fop, err := FloatOpByName(data.Op)
	if err != nil {
		return nil, err
	}
	if fop == nil {
		return nil, fmt.Errorf("ir: unknown op %q (one of %v)", data.Op, OpNames())
	}
	if data.InitFloat == nil {
		return nil, fmt.Errorf("ir: op %q has float domain but PlanData.InitFloat is nil", data.Op)
	}
	return solveShardTyped[float64](ctx, p, fop, data.InitFloat, sh, data.Opts)
}

// solveShardTyped runs the ordinary/general shard paths for one value type
// and packs the family-appropriate (sparse or dense) solution.
func solveShardTyped[T int64 | float64](ctx context.Context, p *Plan, op CommutativeMonoid[T], init []T, sh Shard, opt SolveOptions) (*ShardSolution, error) {
	sol := &ShardSolution{Shard: sh}
	var values []T
	if p.family == FamilyOrdinary {
		res, err := ordinary.SolvePlanChainsCtx[T](ctx, p.ord, op, init, sh.Lo, sh.Hi,
			ordinary.Options{Procs: opt.Procs})
		if err != nil {
			return nil, err
		}
		sol.Cells = res.Cells
		values = res.Values
	} else {
		var err error
		values, err = gir.SolvePlanRangeCtx[T](ctx, p.gen, op, init, sh.Lo, sh.Hi, opt.Procs)
		if err != nil {
			return nil, err
		}
	}
	switch v := any(values).(type) {
	case []int64:
		sol.ValuesInt = v
	case []float64:
		sol.ValuesFloat = v
	}
	return sol, nil
}

// MergeShards reassembles a complete set of shard solutions into the
// PlanSolution that Plan.SolveCtx(data) would return, bit-identically:
// dense families must tile [0, M) exactly, sparse (ordinary) shards must
// collectively own every written cell, and unwritten cells come from data's
// init arrays. Aggregate stats (Rounds, Combines, CAPRounds) are read off
// the plan, as every replay reports the same schedule costs. Power traces
// are not reassembled (see SolveShardCtx).
func (p *Plan) MergeShards(data PlanData, parts []*ShardSolution) (*PlanSolution, error) {
	switch p.family {
	case FamilyMoebius:
		values, err := mergeDense(p.m, parts, func(s *ShardSolution) []float64 { return s.Values })
		if err != nil {
			return nil, err
		}
		return &PlanSolution{Values: values}, nil
	case FamilyGeneral:
		sol := &PlanSolution{CAPRounds: p.gen.Rounds()}
		var err error
		if data.InitInt != nil {
			sol.ValuesInt, err = mergeDense(p.m, parts, func(s *ShardSolution) []int64 { return s.ValuesInt })
		} else {
			sol.ValuesFloat, err = mergeDense(p.m, parts, func(s *ShardSolution) []float64 { return s.ValuesFloat })
		}
		if err != nil {
			return nil, err
		}
		return sol, nil
	case FamilyOrdinary:
		sol := &PlanSolution{Rounds: p.ord.Rounds(), Combines: p.ord.Combines()}
		var err error
		if data.InitInt != nil {
			sol.ValuesInt, err = mergeSparse(p, parts, data.InitInt, func(s *ShardSolution) []int64 { return s.ValuesInt })
		} else {
			sol.ValuesFloat, err = mergeSparse(p, parts, data.InitFloat, func(s *ShardSolution) []float64 { return s.ValuesFloat })
		}
		if err != nil {
			return nil, err
		}
		return sol, nil
	default:
		return nil, fmt.Errorf("%w: cannot merge family %v", ErrPlanFamily, p.family)
	}
}

// mergeDense tiles dense shard slices back into one array, verifying the
// shards cover [0, m) exactly once.
func mergeDense[T any](m int, parts []*ShardSolution, pick func(*ShardSolution) []T) ([]T, error) {
	sorted := append([]*ShardSolution(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard.Lo < sorted[j].Shard.Lo })
	out := make([]T, m)
	at := 0
	for _, s := range sorted {
		if s == nil || s.Shard.Lo != at {
			return nil, fmt.Errorf("%w: gather gap at cell %d", ErrShard, at)
		}
		vals := pick(s)
		if len(vals) != s.Shard.Hi-s.Shard.Lo {
			return nil, fmt.Errorf("%w: shard [%d, %d) carries %d values", ErrShard, s.Shard.Lo, s.Shard.Hi, len(vals))
		}
		copy(out[at:], vals)
		at = s.Shard.Hi
	}
	if at != m {
		return nil, fmt.Errorf("%w: gather covers %d of %d cells", ErrShard, at, m)
	}
	return out, nil
}

// mergeSparse overlays sparse ordinary shards on the init array, verifying
// every written cell arrived exactly once.
func mergeSparse[T any](p *Plan, parts []*ShardSolution, init []T, pick func(*ShardSolution) []T) ([]T, error) {
	if len(init) != p.m {
		return nil, fmt.Errorf("%w: len(init) = %d, want m = %d", ErrShard, len(init), p.m)
	}
	out := make([]T, p.m)
	copy(out, init)
	owned := 0
	for _, s := range parts {
		if s == nil {
			return nil, fmt.Errorf("%w: missing shard solution", ErrShard)
		}
		vals := pick(s)
		if len(vals) != len(s.Cells) {
			return nil, fmt.Errorf("%w: shard [%d, %d): %d cells, %d values", ErrShard, s.Shard.Lo, s.Shard.Hi, len(s.Cells), len(vals))
		}
		for k, x := range s.Cells {
			if x < 0 || x >= p.m {
				return nil, fmt.Errorf("%w: shard cell %d out of range", ErrShard, x)
			}
			out[x] = vals[k]
		}
		owned += len(s.Cells)
	}
	// g is distinct, so an ordinary plan writes exactly N cells.
	if want := p.ord.N; owned != want {
		return nil, fmt.Errorf("%w: gather owns %d of %d written cells", ErrShard, owned, want)
	}
	return out, nil
}

// FamilyByName resolves the wire name of a solver family ("ordinary",
// "general", "moebius", "grid2d") — the inverse of Family.String for the
// concrete families.
func FamilyByName(name string) (Family, error) {
	switch name {
	case "ordinary":
		return FamilyOrdinary, nil
	case "general":
		return FamilyGeneral, nil
	case "moebius":
		return FamilyMoebius, nil
	case "grid2d":
		return FamilyGrid2D, nil
	default:
		return FamilyAuto, fmt.Errorf("%w: unknown family %q", ErrShard, name)
	}
}
