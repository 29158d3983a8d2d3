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
	// Opts is ignored: a session compiles nothing and folds sequentially.
	//
	// Deprecated: Opts has no effect and will be removed.
	Opts ir.SolveOptions
	// MaxExponentBits keys a general-family session's fingerprint, exactly
	// as it keys the one-shot general plan of the same structure.
	MaxExponentBits int
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
	bits   int

	// sys is the concatenated structure so far, kept for the fingerprint:
	// G/F for every family, H for a general session that appended one.
	sys *ir.System
	op  string
	mod int64
	// resInt/resFloat is the ordinary resume state, genInt/genFloat the
	// general family's materialized state, mres the Möbius family's. Exactly
	// one is non-nil.
	resInt   *ordinary.Resume[int64]
	resFloat *ordinary.Resume[float64]
	genInt   []int64
	genFloat []float64
	mres     *moebius.Resume
	iop      ir.CommutativeMonoid[int64]
	fop      ir.CommutativeMonoid[float64]

	appends int64
}

// Open creates a session from a spec, seeding the state with a fold of the
// initial system (the semantic oracle, so the state is exact from the
// start). It compiles nothing: the fold state is all a session keeps.
func Open(ctx context.Context, spec Spec) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Family == ir.FamilyMoebius {
		return openMoebius(spec)
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
	if family == ir.FamilyOrdinary {
		sys.H = nil // H == G: the ordinary fingerprint and fold never read it
	}
	s := &Session{
		family: family,
		m:      sys.M,
		maxN:   spec.MaxN,
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
	return s, nil
}

// openMoebius is the Möbius-family Open. The opening rows are validated as
// a whole system, folded into the resume state and then dropped: only G and
// F stay, for the fingerprint.
func openMoebius(spec Spec) (*Session, error) {
	n := len(spec.G)
	ms := &moebius.MoebiusSystem{M: spec.M, G: spec.G, F: spec.F,
		A: spec.A, B: spec.B, C: spec.C, D: spec.D}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if err := ms.CheckFinite(); err != nil {
		return nil, err
	}
	if spec.MaxN > 0 && n > spec.MaxN {
		return nil, fmt.Errorf("%w: n = %d > %d", ErrLimit, n, spec.MaxN)
	}
	res, err := moebius.NewResume(spec.M, spec.X0)
	if err != nil {
		return nil, err
	}
	if err := res.Append(spec.G, spec.F, spec.A, spec.B, spec.C, spec.D); err != nil {
		return nil, err
	}
	return &Session{
		family: ir.FamilyMoebius,
		m:      spec.M,
		maxN:   spec.MaxN,
		sys: &ir.System{M: spec.M, N: n,
			G: append([]int(nil), spec.G...), F: append([]int(nil), spec.F...)},
		mres: res,
	}, nil
}

// fingerprintLocked computes the concatenated structure's fingerprint.
func (s *Session) fingerprintLocked() string {
	if s.family == ir.FamilyGeneral {
		return ir.PlanFingerprint(ir.FamilyGeneral, s.sys.N, s.sys.M, s.sys.G, s.sys.F, s.sys.H, s.bits)
	}
	// Ordinary and Möbius keys drop H and the exponent bits.
	return ir.PlanFingerprint(s.family, s.sys.N, s.sys.M, s.sys.G, s.sys.F, nil, 0)
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
	if s.maxN > 0 && s.sys.N+k > s.maxN {
		return nil, fmt.Errorf("%w: n would reach %d > %d", ErrLimit, s.sys.N+k, s.maxN)
	}
	var err error
	switch {
	case s.mres != nil:
		err = s.mres.Append(b.G, b.F, b.A, b.B, b.C, b.D)
	case s.family == ir.FamilyOrdinary && b.H != nil:
		err = fmt.Errorf("%w: ordinary session append has H", ir.ErrPlanFamily)
	case s.resInt != nil:
		err = s.resInt.Append(b.G, b.F)
	case s.resFloat != nil:
		err = s.resFloat.Append(b.G, b.F)
	case s.genInt != nil:
		err = gir.AppendFold[int64](s.genInt, s.iop, b.G, b.F, b.H)
	default:
		err = gir.AppendFold[float64](s.genFloat, s.fop, b.G, b.F, b.H)
	}
	if err != nil {
		return nil, err
	}
	s.extendLocked(b)
	s.appends++
	out := &Result{N: s.sys.N}
	switch {
	case s.mres != nil:
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

// extendLocked appends a folded batch's structure to the concatenated
// system; callers hold s.mu.
func (s *Session) extendLocked(b Batch) {
	sys := s.sys
	if b.H != nil && sys.H == nil {
		sys.H = append([]int(nil), sys.G...)
	}
	if sys.H != nil {
		h := b.H
		if h == nil {
			h = b.G
		}
		sys.H = append(sys.H, h...)
	}
	sys.G = append(sys.G, b.G...)
	sys.F = append(sys.F, b.F...)
	sys.N += len(b.G)
}

func gather[T any](vals []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, x := range idx {
		out[i] = vals[x]
	}
	return out
}

// Family reports the session's solver family.
func (s *Session) Family() ir.Family { return s.family }

// M reports the cell count.
func (s *Session) M() int { return s.m }

// N reports the concatenated iteration count so far.
func (s *Session) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.N
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

// Values returns a copy of the full current arrays; exactly one slice is
// non-nil, matching the session's family and domain.
func (s *Session) Values() (valuesInt []int64, valuesFloat []float64, values []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.mres != nil:
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

// Op reports the operator spec (ordinary/general families).
func (s *Session) Op() (name string, mod int64) { return s.op, s.mod }

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

// SizeBytes is the session's resident size for store accounting: the
// concatenated structure's backing arrays plus the family's fold state.
func (s *Session) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := int64(cap(s.sys.G)+cap(s.sys.F)+cap(s.sys.H)) * 8
	switch {
	case s.mres != nil:
		b += int64(s.m) * (8 + 32 + 8 + 1) // cur + comp + root + written
	case s.resInt != nil || s.resFloat != nil:
		b += int64(s.m) * (8 + 1) // cur + written
	default:
		b += int64(s.m) * 8 // cur
	}
	return b
}
