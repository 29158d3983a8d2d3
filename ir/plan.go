package ir

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"indexedrec/internal/gir"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
)

// Compiled solve plans: the compile-once/solve-many split of the solver
// runtime. Every solver family spends a large, data-independent fraction of
// its work on structure-only preprocessing — the ordinary solver's
// chain/trace decomposition depends only on (g, f, n, m), the general
// solver's path counts (CAP) only on (g, f, h, n, m), and
// the Möbius reduction's shadow rewrite and composition schedule only on
// (m, g, f). Compile runs that preprocessing once into an immutable Plan;
// the Solve*PlanCtx functions (and the non-generic Plan.SolveCtx
// convenience) replay it against fresh operator/coefficient/init data with
// results bit-identical to the direct Solve* paths.
//
// Plans are safe for concurrent replays from any number of goroutines, and
// report their resident size so callers (internal/server's LRU plan cache)
// can bound them. A plan does not carry its key: callers that cache plans
// hash the structure with PlanFingerprint (or SparseFingerprint,
// Grid2DFingerprint) before the lookup, and only a miss compiles.

// Family identifies which solver family a Plan was compiled for.
type Family int

const (
	// FamilyAuto (compile option only) selects FamilyOrdinary when the
	// system qualifies (H = G, G distinct) and FamilyGeneral otherwise.
	FamilyAuto Family = iota
	// FamilyOrdinary is the pointer-jumping solver (SolveOrdinaryCtx).
	FamilyOrdinary
	// FamilyGeneral is the dependence-graph + CAP solver (SolveGeneralCtx).
	FamilyGeneral
	// FamilyMoebius is the fractional-linear family (SolveLinearCtx,
	// SolveLinearExtendedCtx, SolveMoebiusCtx — one structure, three data
	// shapes).
	FamilyMoebius
	// FamilyGrid2D is the 2-D recurrence-grid family (SolveGrid2DCtx):
	// wavefronts over anti-diagonals of tiles of semiring cell updates.
	FamilyGrid2D
)

// String names the family as it appears in fingerprints and metrics.
func (f Family) String() string {
	switch f {
	case FamilyAuto:
		return "auto"
	case FamilyOrdinary:
		return "ordinary"
	case FamilyGeneral:
		return "general"
	case FamilyMoebius:
		return "moebius"
	case FamilyGrid2D:
		return "grid2d"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// CompileOptions configure plan compilation.
type CompileOptions struct {
	// Family forces a solver family; FamilyAuto (the zero value) picks
	// FamilyOrdinary when eligible, else FamilyGeneral. Forcing
	// FamilyGeneral on an ordinary-eligible system is valid (the general
	// solver covers it); forcing FamilyOrdinary on a general system fails.
	Family Family
	// Procs is ignored: every family's compile is one sequential pass.
	// Replays take their procs from SolveOptions.
	//
	// Deprecated: Procs has no effect and will be removed.
	Procs int
	// MaxExponentBits caps CAP path-count growth for general-family
	// compilation, exactly as SolveOptions.MaxExponentBits does for direct
	// solves; <= 0 means unlimited. It is part of the plan's fingerprint,
	// because it changes the compiled artifact.
	MaxExponentBits int
	// MaxTerms caps the path-count terms a general-family compile builds
	// over all its iteration nodes; <= 0 means unlimited. A compile that
	// would pass it fails with ErrCompileBudget before it allocates them.
	// It bounds the compile, not the plan, so it is not part of the
	// fingerprint.
	MaxTerms int
}

// ErrPlanFamily is returned when a plan is replayed through the wrong
// family's entry point, or compilation is forced onto an ineligible family.
var ErrPlanFamily = errors.New("ir: plan family mismatch")

// Plan is a compiled indexed-recurrence solve: the structure-only artifacts
// of one family, ready to replay against new data. Immutable and safe for
// concurrent use.
type Plan struct {
	family Family
	n, m   int
	size   int64

	// cells and globalM tag plans compiled from a sparse system (see
	// CompileSparseCtx): the sorted touched global ids the compact values
	// map to, and the global cell count. nil cells means a dense plan.
	cells   []int
	globalM int

	ord *ordinary.Plan
	gen *gir.Plan
	mb  *moebius.Plan
	g2  *grid2d.Plan
}

// Family reports which solver family the plan replays.
func (p *Plan) Family() Family { return p.family }

// N returns the compiled iteration count.
func (p *Plan) N() int { return p.n }

// M returns the compiled cell count.
func (p *Plan) M() int { return p.m }

// SizeBytes estimates the plan's resident size, for cache accounting.
func (p *Plan) SizeBytes() int64 { return p.size }

// Schedule names the combine schedule the plan replays: "blocked-scan" (the
// work-optimal O(n) schedule, picked automatically for ordinary systems
// whose write chains are long paths) or "pointer-jumping" for the other
// ordinary plans and the Möbius family (whose float matrix products pin the
// jumping association for bit-identity with the direct solver); "cap" for
// the general family. The selection is a pure function of the system's
// structure, so plans sharing a PlanFingerprint share a schedule.
func (p *Plan) Schedule() string {
	switch p.family {
	case FamilyOrdinary:
		return p.ord.Schedule()
	case FamilyGeneral:
		return "cap"
	case FamilyGrid2D:
		return "wavefront"
	default:
		return "pointer-jumping"
	}
}

// PlanFingerprint returns a canonical fingerprint of a system's structure:
// a hash over (family, n, m, g, f, h, maxExponentBits). Two solves share a
// fingerprint exactly when they can share a compiled plan. h may be nil
// (ordinary and Möbius families); maxExponentBits only matters for the
// general family and should be 0 otherwise.
func PlanFingerprint(family Family, n, m int, g, f, h []int, maxExponentBits int) string {
	hs := newStructHasher(family)
	hs.int(n)
	hs.int(m)
	hs.int(maxExponentBits)
	hs.slice('g', g)
	hs.slice('f', f)
	hs.slice('h', h)
	return hs.sum(family.String())
}

// structHasher streams the fingerprint byte format (DESIGN §9.2) into
// sha256: a family byte, then little-endian 8-byte integers, each index
// slice as a tag byte, its length and its values. Bytes collect in a block
// buffer so the hash sees a few large writes rather than one per integer;
// the hashed stream — and so every fingerprint — is the same either way.
type structHasher struct {
	h   hash.Hash
	n   int
	buf [8192]byte
}

// newStructHasher starts a fingerprint stream with its family byte.
func newStructHasher(family Family) *structHasher {
	hs := &structHasher{h: sha256.New()}
	hs.byte(byte(family))
	return hs
}

func (hs *structHasher) flush() {
	hs.h.Write(hs.buf[:hs.n])
	hs.n = 0
}

func (hs *structHasher) byte(b byte) {
	if hs.n == len(hs.buf) {
		hs.flush()
	}
	hs.buf[hs.n] = b
	hs.n++
}

func (hs *structHasher) int(v int) {
	if hs.n+8 > len(hs.buf) {
		hs.flush()
	}
	binary.LittleEndian.PutUint64(hs.buf[hs.n:], uint64(v))
	hs.n += 8
}

// slice packs the values a whole buffer block at a time, with no flush
// check per integer.
func (hs *structHasher) slice(tag byte, s []int) {
	hs.byte(tag)
	hs.int(len(s))
	for len(s) > 0 {
		if hs.n+8 > len(hs.buf) {
			hs.flush()
		}
		k := min(len(s), (len(hs.buf)-hs.n)/8)
		b := hs.buf[hs.n : hs.n+8*k]
		for _, v := range s[:k] {
			binary.LittleEndian.PutUint64(b, uint64(v))
			b = b[8:]
		}
		hs.n += 8 * k
		s = s[k:]
	}
}

// sum finishes the stream as "<prefix>:<first 16 digest bytes in hex>".
func (hs *structHasher) sum(prefix string) string {
	hs.flush()
	return prefix + ":" + hex.EncodeToString(hs.h.Sum(nil)[:16])
}

// Compile precomputes the structure-only artifacts of a solve — see the
// file comment. It is CompileCtx with a background context.
func Compile(s *System, opt CompileOptions) (*Plan, error) {
	return CompileCtx(context.Background(), s, opt)
}

// ResolveFamily returns the family CompileCtx compiles s under when asked
// for family: FamilyAuto becomes FamilyOrdinary when s qualifies (H = G, G
// distinct) and FamilyGeneral otherwise; any other family is returned as
// is.
func ResolveFamily(s *System, family Family) Family {
	if family != FamilyAuto {
		return family
	}
	if s.Ordinary() && s.GDistinct() {
		return FamilyOrdinary
	}
	return FamilyGeneral
}

// CompileCtx compiles a system into a Plan. For the ordinary family this
// builds the write-chain forest and records the combine schedule; for the
// general family it counts the paths of the versioned dependence graph in
// one pass over the iterations and keeps each cell's final (sink, count)
// terms — the dominant cost of a general solve, so warm replays skip almost
// everything. FamilyMoebius compiles s's M, G and F as CompileMoebiusCtx
// does. Compile only compiles: the plan's cache key is
// PlanFingerprint's, hashed by whoever keys a cache. Cancelling ctx stops
// compilation; errors follow the hardened-solver contract.
func CompileCtx(ctx context.Context, s *System, opt CompileOptions) (*Plan, error) {
	// A union of contiguous runs resolves to FamilyOrdinary (its H is nil
	// and its strictly increasing g is distinct), so under FamilyAuto the
	// run path goes first and its one read of g is the only one.
	if opt.Family == FamilyAuto {
		if op := ordinary.CompileRuns(s); op != nil {
			return &Plan{family: FamilyOrdinary, n: s.N, m: s.M, ord: op, size: op.SizeBytes()}, nil
		}
	}
	family := ResolveFamily(s, opt.Family)
	switch family {
	case FamilyOrdinary:
		if !s.Ordinary() {
			return nil, fmt.Errorf("%w: %v is not ordinary (H != G)", ErrPlanFamily, s)
		}
	case FamilyGeneral:
	case FamilyMoebius:
		return CompileMoebiusCtx(ctx, s.M, s.G, s.F)
	default:
		return nil, fmt.Errorf("%w: cannot compile family %v", ErrPlanFamily, family)
	}
	p := &Plan{family: family, n: s.N, m: s.M}
	if family == FamilyOrdinary {
		op, err := ordinary.CompilePlan(ctx, s)
		if err != nil {
			return nil, err
		}
		p.ord, p.size = op, op.SizeBytes()
		return p, nil
	}
	gp, err := gir.CompilePlanCtx(ctx, s, opt.MaxExponentBits, opt.MaxTerms)
	if err != nil {
		return nil, err
	}
	p.gen, p.size = gp, gp.SizeBytes()
	return p, nil
}

// CompileMoebius compiles the shared structure of the Möbius family —
// the shadow-cell rewrite and the matrix-composition schedule over
// (m, g, f). One Möbius plan serves the plain linear, extended linear and
// full fractional-linear forms: they differ only in data.
func CompileMoebius(m int, g, f []int) (*Plan, error) {
	return CompileMoebiusCtx(context.Background(), m, g, f)
}

// CompileMoebiusCtx is CompileMoebius bounded by ctx.
func CompileMoebiusCtx(ctx context.Context, m int, g, f []int) (*Plan, error) {
	mp, err := moebius.CompilePlan(ctx, m, g, f)
	if err != nil {
		return nil, err
	}
	return &Plan{family: FamilyMoebius, n: len(g), m: m, mb: mp, size: mp.SizeBytes()}, nil
}

// SolveOrdinaryPlanCtx replays an ordinary-family plan against a fresh
// operator and init array. The replay folds each chain's operand sequence
// in the order SolveOrdinaryCtx consumes it, so results are bit-identical
// to the direct solve's for exactly associative ops; a plan whose Schedule
// is "blocked-scan" re-associates the fold (still the same ordered
// operands), so float results may differ from the direct solve by rounding
// only. Replays draw scratch from the plan's arena pool, so a warm replay's
// only allocation is the returned result.
func SolveOrdinaryPlanCtx[T any](ctx context.Context, p *Plan, op Semigroup[T], init []T, opt SolveOptions) (*OrdinaryResult[T], error) {
	if p.family != FamilyOrdinary {
		return nil, fmt.Errorf("%w: plan is %v, want ordinary", ErrPlanFamily, p.family)
	}
	res, err := ordinary.SolvePlanPooledCtx[T](ctx, p.ord, op, init, ordinary.Options{Procs: opt.Procs})
	if err != nil {
		return nil, err
	}
	return &OrdinaryResult[T]{Values: res.Values, Rounds: res.Rounds, Combines: res.Combines}, nil
}

// SolveGeneralPlanCtx replays a general-family plan: only the
// power-evaluation phase runs (the path counts are baked into the plan),
// bit-identical to SolveGeneralCtx.
func SolveGeneralPlanCtx[T any](ctx context.Context, p *Plan, op CommutativeMonoid[T], init []T, opt SolveOptions) (*GeneralResult[T], error) {
	if p.family != FamilyGeneral {
		return nil, fmt.Errorf("%w: plan is %v, want general", ErrPlanFamily, p.family)
	}
	return solveGeneralPlan(ctx, p.gen, op, init, opt, true)
}

// solveGeneralPlan is the general replay path of SolveGeneralPlanCtx and
// Plan.SolveCtx. withPowers renders the per-cell traces.
func solveGeneralPlan[T any](ctx context.Context, gp *gir.Plan, op CommutativeMonoid[T], init []T, opt SolveOptions, withPowers bool) (*GeneralResult[T], error) {
	values, err := gir.SolvePlanCtx[T](ctx, gp, op, init, opt.Procs)
	if err != nil {
		return nil, err
	}
	return generalResult(gp, values, withPowers), nil
}

// generalResult wraps a general solve's values, from a replay or from
// SolveGeneralCtx's compile-and-solve, with the plan's rounds and traces.
func generalResult[T any](gp *gir.Plan, values []T, withPowers bool) *GeneralResult[T] {
	out := &GeneralResult[T]{Values: values, CAPRounds: gp.Rounds()}
	if withPowers {
		out.Powers = generalPowers(gp)
	}
	return out
}

// generalPowers renders every cell's trace as PowerTerms over one shared
// backing array, sorted by cell as the plan stores them.
func generalPowers(gp *gir.Plan) [][]PowerTerm {
	flat := make([]PowerTerm, gp.NumTerms())
	powers := make([][]PowerTerm, gp.M())
	for x := range powers {
		k := gp.Terms(x)
		cell := flat[:k:k]
		for j := range cell {
			cell[j].Cell, cell[j].Exp = gp.Term(x, j)
		}
		powers[x], flat = cell, flat[k:]
	}
	return powers
}

// SolveMoebiusPlanCtx replays a Möbius-family plan against fresh
// coefficients and initial values, bit-identical to SolveMoebiusCtx.
// For the plain linear form pass nil c and d (the affine form c = 0,
// d = 1); for the extended form rewrite b[i] += x0[g[i]] first, as
// SolveLinearExtendedCtx does.
func SolveMoebiusPlanCtx(ctx context.Context, p *Plan, a, b, c, d, x0 []float64, opt SolveOptions) ([]float64, error) {
	if p.family != FamilyMoebius {
		return nil, fmt.Errorf("%w: plan is %v, want moebius", ErrPlanFamily, p.family)
	}
	return p.mb.SolveCtx(ctx, a, b, c, d, x0, ordinary.Options{Procs: opt.Procs})
}

// PlanData is the per-solve data a compiled plan is replayed against — the
// complement of the structure captured at compile time. Exactly one family's
// fields apply:
//
//   - ordinary/general: Op (and Mod for the modular operators) plus exactly
//     one of InitInt/InitFloat, matching the operator's domain;
//   - moebius: the coefficient arrays A, B (and C, D for the full
//     fractional-linear form; omitted means the affine c=0, d=1) plus X0.
type PlanData struct {
	// Op names the operator (see OpNames); Mod parameterizes the modular
	// operators. Ordinary and general families only.
	Op  string
	Mod int64
	// InitInt / InitFloat is the initial array for integer / float
	// operators. Ordinary and general families only.
	InitInt   []int64
	InitFloat []float64
	// WithPowers requests the symbolic power traces in the solution
	// (general family; they can be large, so default off).
	WithPowers bool
	// A, B, C, D are the per-iteration Möbius coefficients; nil C and D
	// select the affine form. Möbius family only.
	A, B, C, D []float64
	// X0 is the initial value array. Möbius family only.
	X0 []float64
	// Grid is the full 2-D system (coefficient grids + boundaries); the
	// plan only fixes its structure. Grid2D family only.
	Grid *Grid2DSystem
	// Opts carries replay-time options (Procs; MaxExponentBits is a
	// compile-time property of general plans and is ignored here).
	Opts SolveOptions
}

// PlanSolution is the family-tagged result of Plan.SolveCtx. For the
// ordinary and general families exactly one of ValuesInt/ValuesFloat is set,
// matching the operator's domain; for the Möbius family Values is set.
type PlanSolution struct {
	// ValuesInt / ValuesFloat is the final array (ordinary and general).
	ValuesInt   []int64
	ValuesFloat []float64
	// Values is the final array (moebius).
	Values []float64
	// Rounds and Combines report the replayed ordinary schedule's cost.
	Rounds   int
	Combines int64
	// CAPRounds reports the compiled CAP round count, ⌈log₂⌉ of the
	// longest dependence path (general).
	CAPRounds int
	// Powers carries the symbolic traces when PlanData.WithPowers was set.
	Powers [][]PowerTerm
}

// SolveCtx replays the plan against data, dispatching on the plan's family.
// It is the non-generic convenience over SolveOrdinaryPlanCtx /
// SolveGeneralPlanCtx / SolveMoebiusPlanCtx for callers (like the solve
// service) whose operator arrives as a name; results are bit-identical to
// the corresponding direct Solve*Ctx call.
func (p *Plan) SolveCtx(ctx context.Context, data PlanData) (*PlanSolution, error) {
	switch p.family {
	case FamilyMoebius:
		values, err := SolveMoebiusPlanCtx(ctx, p, data.A, data.B, data.C, data.D, data.X0, data.Opts)
		if err != nil {
			return nil, err
		}
		return &PlanSolution{Values: values}, nil
	case FamilyGrid2D:
		res, err := SolveGrid2DPlanCtx(ctx, p, data.Grid, data.Opts)
		if err != nil {
			return nil, err
		}
		return &PlanSolution{Values: res.Values, Rounds: res.Rounds}, nil
	case FamilyOrdinary, FamilyGeneral:
		// fall through to the operator dispatch below
	default:
		return nil, fmt.Errorf("%w: cannot replay family %v", ErrPlanFamily, p.family)
	}

	iop, err := IntOpByName(data.Op, data.Mod)
	if err != nil {
		return nil, err
	}
	if iop != nil {
		if data.InitInt == nil {
			return nil, fmt.Errorf("ir: op %q has integer domain but PlanData.InitInt is nil", data.Op)
		}
		if p.family == FamilyOrdinary {
			res, err := SolveOrdinaryPlanCtx[int64](ctx, p, iop, data.InitInt, data.Opts)
			if err != nil {
				return nil, err
			}
			return &PlanSolution{ValuesInt: res.Values, Rounds: res.Rounds, Combines: res.Combines}, nil
		}
		res, err := solveGeneralPlan[int64](ctx, p.gen, iop, data.InitInt, data.Opts, data.WithPowers)
		if err != nil {
			return nil, err
		}
		return &PlanSolution{ValuesInt: res.Values, CAPRounds: res.CAPRounds, Powers: res.Powers}, nil
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
	if p.family == FamilyOrdinary {
		res, err := SolveOrdinaryPlanCtx[float64](ctx, p, fop, data.InitFloat, data.Opts)
		if err != nil {
			return nil, err
		}
		return &PlanSolution{ValuesFloat: res.Values, Rounds: res.Rounds, Combines: res.Combines}, nil
	}
	res, err := solveGeneralPlan[float64](ctx, p.gen, fop, data.InitFloat, data.Opts, data.WithPowers)
	if err != nil {
		return nil, err
	}
	return &PlanSolution{ValuesFloat: res.Values, CAPRounds: res.CAPRounds, Powers: res.Powers}, nil
}
