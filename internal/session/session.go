package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"indexedrec/internal/gir"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/ir"
)

// ErrClosed is returned by operations on a closed (deleted, drained or
// evicted) session.
var ErrClosed = errors.New("session: closed")

// ErrLimit is returned when an append would push the concatenated system
// past the session's configured iteration bound.
var ErrLimit = errors.New("session: iteration limit exceeded")

// Spec describes the system a session opens from. Exactly one family shape
// applies: System/Op/Init for the ordinary and general families, the
// M/G/F/coefficient arrays for the Möbius family (as everywhere in the
// repo, nil C and D select the affine form).
type Spec struct {
	// Family selects the solver family; FamilyAuto resolves like
	// ir.CompileCtx (ordinary when eligible, else general).
	Family ir.Family
	// System is the initial system (N may be 0) — ordinary/general.
	System *ir.System
	// Op names the operator, Mod parameterizes the modular ones —
	// ordinary/general. Exactly one of InitInt/InitFloat must match the
	// operator's domain.
	Op        string
	Mod       int64
	InitInt   []int64
	InitFloat []float64
	// M, G, F, A, B, C, D, X0 describe the Möbius-family prefix (G may be
	// empty).
	M          int
	G, F       []int
	A, B, C, D []float64
	X0         []float64
	// MaxN bounds the concatenated iteration count across the session's
	// lifetime (<= 0 means unbounded).
	MaxN int
	// Opts carries solver options for plan compiles and cold re-solves.
	Opts ir.SolveOptions
	// MaxExponentBits caps CAP growth for general-family plan compiles.
	MaxExponentBits int
	// Plan optionally seeds the session with a pre-compiled plan of the
	// initial system (e.g. resolved through a server plan cache). The
	// session keeps its own reference, so cache eviction never invalidates
	// it; nil compiles one.
	Plan *ir.Plan
}

// Batch is one append: k more iterations for the session's family. For
// ordinary/general sessions G, F (and H for general) apply; for Möbius
// sessions G, F and the coefficient rows apply (nil C/D = affine).
type Batch struct {
	G, F, H    []int
	A, B, C, D []float64
}

// Result reports an append: the updated values of the cells the batch
// wrote (aligned with Batch.G) and the concatenated iteration count.
// Exactly one of the value slices is set, matching the session's domain.
type Result struct {
	N           int
	ValuesInt   []int64
	ValuesFloat []float64
	Values      []float64
}

// Session is one live incremental solve. All methods are safe for
// concurrent use; appends serialize on an internal lock so the state always
// reflects a prefix of the append stream.
type Session struct {
	mu     sync.Mutex
	closed bool

	family ir.Family
	m      int
	maxN   int
	opts   ir.SolveOptions
	bits   int

	// sys is the concatenated system so far (ordinary/general families).
	sys *ir.System
	op  string
	mod int64
	// resInt/resFloat is the ordinary resume state; genInt/genFloat the
	// general family's materialized state. Exactly one is non-nil.
	resInt   *ordinary.Resume[int64]
	resFloat *ordinary.Resume[float64]
	genInt   []int64
	genFloat []float64
	iop      ir.CommutativeMonoid[int64]
	fop      ir.CommutativeMonoid[float64]

	// ms/x0/mres is the Möbius family's concatenated system and state.
	ms   *moebius.MoebiusSystem
	x0   []float64
	mres *moebius.Resume

	// plan is the compiled structure as of planN iterations; appends past
	// the staleness threshold recompile it lazily through Plan.ExtendCtx.
	plan  *ir.Plan
	planN int

	appends int64
}

// Open creates a session from a spec, seeding the state with a fold of the
// initial system (the semantic oracle, so the state is exact from the
// start) and compiling — or adopting — the structure plan.
func Open(ctx context.Context, spec Spec) (*Session, error) {
	if spec.Family == ir.FamilyMoebius {
		return openMoebius(ctx, spec)
	}
	if spec.System == nil {
		return nil, fmt.Errorf("%w: missing system", ir.ErrInvalidSystem)
	}
	sys := spec.System.Clone()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxN > 0 && sys.N > spec.MaxN {
		return nil, fmt.Errorf("%w: n = %d > %d", ErrLimit, sys.N, spec.MaxN)
	}
	family := spec.Family
	switch family {
	case ir.FamilyAuto:
		family = ir.ResolveFamily(sys, family)
	case ir.FamilyOrdinary:
		if !sys.Ordinary() {
			return nil, fmt.Errorf("%w: H != G", ir.ErrPlanFamily)
		}
		if !sys.GDistinct() {
			return nil, fmt.Errorf("%w: %v", ordinary.ErrGNotDistinct, sys)
		}
	case ir.FamilyGeneral:
	default:
		return nil, fmt.Errorf("%w: cannot open family %v", ir.ErrPlanFamily, family)
	}
	s := &Session{
		family: family,
		m:      sys.M,
		maxN:   spec.MaxN,
		opts:   spec.Opts,
		bits:   spec.MaxExponentBits,
		sys:    sys,
		op:     spec.Op,
		mod:    spec.Mod,
	}
	iop, err := ir.IntOpByName(spec.Op, spec.Mod)
	if err != nil {
		return nil, err
	}
	if iop != nil {
		if spec.InitInt == nil {
			return nil, fmt.Errorf("%w: op %q has integer domain but InitInt is nil", ir.ErrInvalidSystem, spec.Op)
		}
		if len(spec.InitInt) != sys.M {
			return nil, fmt.Errorf("%w: len(init) = %d, want m = %d", ir.ErrInvalidSystem, len(spec.InitInt), sys.M)
		}
		s.iop = iop
		cur := ir.RunSequential[int64](sys, iop, spec.InitInt)
		if family == ir.FamilyOrdinary {
			s.resInt, err = ordinary.NewResume[int64](iop, cur, ordinary.WrittenSet(sys))
			if err != nil {
				return nil, err
			}
		} else {
			s.genInt = cur
		}
	} else {
		fop, err := ir.FloatOpByName(spec.Op)
		if err != nil {
			return nil, err
		}
		if fop == nil {
			return nil, fmt.Errorf("%w: unknown op %q", ir.ErrInvalidSystem, spec.Op)
		}
		if spec.InitFloat == nil {
			return nil, fmt.Errorf("%w: op %q has float domain but InitFloat is nil", ir.ErrInvalidSystem, spec.Op)
		}
		if len(spec.InitFloat) != sys.M {
			return nil, fmt.Errorf("%w: len(init) = %d, want m = %d", ir.ErrInvalidSystem, len(spec.InitFloat), sys.M)
		}
		s.fop = fop
		cur := ir.RunSequential[float64](sys, fop, spec.InitFloat)
		if family == ir.FamilyOrdinary {
			s.resFloat, err = ordinary.NewResume[float64](fop, cur, ordinary.WrittenSet(sys))
			if err != nil {
				return nil, err
			}
		} else {
			s.genFloat = cur
		}
	}
	if err := s.adoptPlan(ctx, spec.Plan); err != nil {
		return nil, err
	}
	return s, nil
}

// openMoebius is the Möbius-family Open.
func openMoebius(ctx context.Context, spec Spec) (*Session, error) {
	ms := &moebius.MoebiusSystem{
		M: spec.M,
		G: append([]int(nil), spec.G...),
		F: append([]int(nil), spec.F...),
		A: append([]float64(nil), spec.A...),
		B: append([]float64(nil), spec.B...),
		C: append([]float64(nil), spec.C...),
		D: append([]float64(nil), spec.D...),
	}
	n := len(ms.G)
	if ms.C == nil {
		ms.C = make([]float64, n)
	}
	if ms.D == nil {
		ms.D = make([]float64, n)
		for i := range ms.D {
			ms.D[i] = 1
		}
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if err := ms.CheckFinite(); err != nil {
		return nil, err
	}
	if spec.MaxN > 0 && n > spec.MaxN {
		return nil, fmt.Errorf("%w: n = %d > %d", ErrLimit, n, spec.MaxN)
	}
	res, err := moebius.NewResume(ms.M, spec.X0)
	if err != nil {
		return nil, err
	}
	if err := res.Append(ms.G, ms.F, ms.A, ms.B, ms.C, ms.D); err != nil {
		return nil, err
	}
	s := &Session{
		family: ir.FamilyMoebius,
		m:      ms.M,
		maxN:   spec.MaxN,
		opts:   spec.Opts,
		ms:     ms,
		x0:     append([]float64(nil), spec.X0...),
		mres:   res,
	}
	if err := s.adoptPlan(ctx, spec.Plan); err != nil {
		return nil, err
	}
	return s, nil
}

// adoptPlan installs a caller-provided plan when its fingerprint matches
// the session's current structure, else compiles a fresh one. The session
// keeps its own reference, so external cache eviction cannot touch it.
func (s *Session) adoptPlan(ctx context.Context, p *ir.Plan) error {
	fp := s.fingerprintLocked()
	if p != nil && p.Fingerprint() == fp {
		s.plan, s.planN = p, p.N()
		return nil
	}
	var err error
	switch s.family {
	case ir.FamilyMoebius:
		s.plan, err = ir.CompileMoebiusCtx(ctx, s.ms.M, s.ms.G, s.ms.F)
	default:
		s.plan, err = ir.CompileCtx(ctx, s.sys, ir.CompileOptions{
			Family: s.family, MaxExponentBits: s.bits,
		})
	}
	if err != nil {
		return err
	}
	s.planN = s.plan.N()
	return nil
}

// fingerprintLocked computes the concatenated structure's fingerprint.
func (s *Session) fingerprintLocked() string {
	switch s.family {
	case ir.FamilyMoebius:
		return ir.PlanFingerprint(ir.FamilyMoebius, len(s.ms.G), s.ms.M, s.ms.G, s.ms.F, nil, 0)
	case ir.FamilyGeneral:
		return ir.PlanFingerprint(ir.FamilyGeneral, s.sys.N, s.sys.M, s.sys.G, s.sys.F, s.sys.H, s.bits)
	default:
		return ir.PlanFingerprint(ir.FamilyOrdinary, s.sys.N, s.sys.M, s.sys.G, s.sys.F, nil, 0)
	}
}

// Append folds a batch into the session, in order, and returns the updated
// values of the batch's written cells. The fold is the sequential loop body
// itself, so the post-append state is bit-identical to RunSequential of the
// concatenated system. A validation error leaves the state untouched; an
// ErrNonFinite mid-batch (Möbius) poisons the batch exactly where the
// sequential loop would.
func (s *Session) Append(ctx context.Context, b Batch) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	k := len(b.G)
	if s.maxN > 0 && s.nLocked()+k > s.maxN {
		return nil, fmt.Errorf("%w: n would reach %d > %d", ErrLimit, s.nLocked()+k, s.maxN)
	}
	switch s.family {
	case ir.FamilyMoebius:
		if err := s.mres.Append(b.G, b.F, b.A, b.B, b.C, b.D); err != nil {
			return nil, err
		}
		s.ms.G = append(s.ms.G, b.G...)
		s.ms.F = append(s.ms.F, b.F...)
		s.ms.A = append(s.ms.A, b.A...)
		s.ms.B = append(s.ms.B, b.B...)
		s.ms.C = appendCoeff(s.ms.C, b.C, k, 0)
		s.ms.D = appendCoeff(s.ms.D, b.D, k, 1)
	case ir.FamilyOrdinary:
		if b.H != nil {
			return nil, fmt.Errorf("%w: ordinary session append has H", ir.ErrPlanFamily)
		}
		if s.resInt != nil {
			if err := s.resInt.Append(b.G, b.F); err != nil {
				return nil, err
			}
		} else {
			if err := s.resFloat.Append(b.G, b.F); err != nil {
				return nil, err
			}
		}
		s.sys.G = append(s.sys.G, b.G...)
		s.sys.F = append(s.sys.F, b.F...)
		s.sys.N += k
	default: // general
		if s.genInt != nil {
			if err := gir.AppendFold[int64](s.genInt, s.iop, b.G, b.F, b.H); err != nil {
				return nil, err
			}
		} else {
			if err := gir.AppendFold[float64](s.genFloat, s.fop, b.G, b.F, b.H); err != nil {
				return nil, err
			}
		}
		h := b.H
		if h == nil {
			h = b.G
		}
		if s.sys.H == nil && b.H != nil {
			s.sys.H = append([]int(nil), s.sys.G...)
		}
		s.sys.G = append(s.sys.G, b.G...)
		s.sys.F = append(s.sys.F, b.F...)
		if s.sys.H != nil {
			s.sys.H = append(s.sys.H, h...)
		}
		s.sys.N += k
	}
	s.appends++
	s.maybeRecompile(ctx)
	out := &Result{N: s.nLocked()}
	switch {
	case s.family == ir.FamilyMoebius:
		out.Values = gather(s.mres.Values(), b.G)
	case s.resInt != nil:
		out.ValuesInt = gather(s.resInt.Values(), b.G)
	case s.resFloat != nil:
		out.ValuesFloat = gather(s.resFloat.Values(), b.G)
	case s.genInt != nil:
		out.ValuesInt = gather(s.genInt, b.G)
	default:
		out.ValuesFloat = gather(s.genFloat, b.G)
	}
	return out, nil
}

// appendCoeff extends a stored coefficient row with a batch's (possibly nil
// = constant fill) row.
func appendCoeff(dst, src []float64, k int, fill float64) []float64 {
	if src != nil {
		return append(dst, src...)
	}
	for i := 0; i < k; i++ {
		dst = append(dst, fill)
	}
	return dst
}

func gather[T any](vals []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, x := range idx {
		out[i] = vals[x]
	}
	return out
}

// maybeRecompile refreshes the cached plan once the appended suffix passes
// the staleness threshold, so a cold re-solve (re-home, verification) stays
// one compile behind at most. Compile failure is non-fatal here — the state
// is already exact; the stale plan stays until a later append retries.
func (s *Session) maybeRecompile(ctx context.Context) {
	if !gir.Stale(s.planN, s.nLocked()-s.planN, 0) {
		return
	}
	if s.family == ir.FamilyMoebius {
		if p, err := ir.CompileMoebiusCtx(ctx, s.ms.M, s.ms.G, s.ms.F); err == nil {
			s.plan, s.planN = p, p.N()
		}
		return
	}
	// Exercise the public extension path: the base is the system as of the
	// last compile (a prefix view of the concatenated slices).
	base := &ir.System{M: s.sys.M, N: s.planN, G: s.sys.G[:s.planN], F: s.sys.F[:s.planN]}
	var h []int
	if s.sys.H != nil {
		base.H = s.sys.H[:s.planN]
		h = s.sys.H[s.planN:]
	}
	_, p, err := s.plan.ExtendCtx(ctx, base,
		s.sys.G[s.planN:], s.sys.F[s.planN:], h,
		ir.CompileOptions{MaxExponentBits: s.bits})
	if err == nil {
		s.plan, s.planN = p, p.N()
	}
}

// nLocked is the concatenated iteration count; callers hold s.mu.
func (s *Session) nLocked() int {
	if s.family == ir.FamilyMoebius {
		return len(s.ms.G)
	}
	return s.sys.N
}

// Family reports the session's solver family.
func (s *Session) Family() ir.Family { return s.family }

// M reports the cell count.
func (s *Session) M() int { return s.m }

// N reports the concatenated iteration count so far.
func (s *Session) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nLocked()
}

// Appends reports how many append batches have landed.
func (s *Session) Appends() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// Fingerprint returns the concatenated structure's current fingerprint.
func (s *Session) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fingerprintLocked()
}

// Plan returns the session's own compiled plan (possibly staleness-lagged
// behind the newest appends; see maybeRecompile). Never nil on an open
// session.
func (s *Session) Plan() *ir.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Values returns a copy of the full current arrays; exactly one slice is
// non-nil, matching the session's family and domain.
func (s *Session) Values() (valuesInt []int64, valuesFloat []float64, values []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.family == ir.FamilyMoebius:
		values = append([]float64(nil), s.mres.Values()...)
	case s.resInt != nil:
		valuesInt = append([]int64(nil), s.resInt.Values()...)
	case s.resFloat != nil:
		valuesFloat = append([]float64(nil), s.resFloat.Values()...)
	case s.genInt != nil:
		valuesInt = append([]int64(nil), s.genInt...)
	default:
		valuesFloat = append([]float64(nil), s.genFloat...)
	}
	return
}

// System returns a clone of the concatenated system (ordinary/general
// families; nil for Möbius), for cold verification solves.
func (s *Session) System() *ir.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys == nil {
		return nil
	}
	return s.sys.Clone()
}

// Moebius returns copies of the concatenated Möbius system and its initial
// array (nil for other families).
func (s *Session) Moebius() (*moebius.MoebiusSystem, []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ms == nil {
		return nil, nil
	}
	ms := &moebius.MoebiusSystem{
		M: s.ms.M,
		G: append([]int(nil), s.ms.G...),
		F: append([]int(nil), s.ms.F...),
		A: append([]float64(nil), s.ms.A...),
		B: append([]float64(nil), s.ms.B...),
		C: append([]float64(nil), s.ms.C...),
		D: append([]float64(nil), s.ms.D...),
	}
	return ms, append([]float64(nil), s.x0...)
}

// Op reports the operator spec (ordinary/general families).
func (s *Session) Op() (name string, mod int64) { return s.op, s.mod }

// IntDomain reports whether the session's values are int64 (false = float64
// or Möbius).
func (s *Session) IntDomain() bool {
	return s.resInt != nil || s.genInt != nil
}

// Close marks the session closed; later appends fail with ErrClosed. An
// append already holding the lock finishes first — state is never freed
// under it. Idempotent; reports whether this call closed it.
func (s *Session) Close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	return true
}

// Closed reports whether Close ran.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// SizeBytes estimates the session's resident size (state arrays, the
// concatenated structure and the compiled plan) for store accounting.
func (s *Session) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b int64
	if s.sys != nil {
		b += int64(len(s.sys.G)+len(s.sys.F)+len(s.sys.H)) * 8
	}
	if s.ms != nil {
		b += int64(len(s.ms.G)+len(s.ms.F)) * 8
		b += int64(len(s.ms.A)+len(s.ms.B)+len(s.ms.C)+len(s.ms.D)+len(s.x0)) * 8
		b += int64(s.m) * (8 + 32 + 8 + 1) // cur + comp + root + written
	}
	b += int64(len(s.genInt)+len(s.genFloat)) * 8
	if s.resInt != nil || s.resFloat != nil {
		b += int64(s.m) * 9 // cur + written
	}
	if s.plan != nil {
		b += s.plan.SizeBytes()
	}
	return b
}
