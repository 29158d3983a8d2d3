package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"indexedrec/internal/moebius"
	"indexedrec/ir"
)

// The single decode point for ordinary and general requests. irserved's
// /v1/solve/{ordinary,general}, the /v1/shard/solve worker endpoint and the
// coordinator front-end all turn a wire system plus operator plus init into
// a SolveRequest here, and all of them then run one path: resolve the plan
// by Fingerprint (compiling with Compile on a miss), replay it against Data,
// and shape the answer with Response. A dense request is simply one whose
// Sparse field is nil; a sparse one solves its compact system, which is a
// valid dense system over touched-cell ids (DESIGN §16.2), so the two
// encodings differ only in the plan key and in the Cells relabel at the
// edges.

// Limits bounds what DecodeSolve accepts: MaxN caps iterations and touched
// cells (the global cell count of a sparse system is deliberately unbounded,
// since work scales with the touched count), and MaxExponentBits is the
// ceiling a general request may lower but not raise.
type Limits struct {
	MaxN            int
	MaxExponentBits int
}

// SolveRequest is one decoded ordinary or general solve.
type SolveRequest struct {
	// Family is FamilyOrdinary or FamilyGeneral.
	Family ir.Family
	// Sys is the system that gets compiled: Sparse.Compact for a sparse
	// request, the dense system otherwise.
	Sys *ir.System
	// Sparse is the touched-cell encoding, nil for a dense request.
	Sparse *ir.SparseSystem
	// Bits is the effective MaxExponentBits of a general plan (0 for
	// ordinary); it is part of the plan fingerprint.
	Bits int
	// Data is the replay data: operator, init in Sys order, options.
	Data ir.PlanData
	// TimeoutMs is the client's requested deadline (0 = server default).
	TimeoutMs int
}

// DecodeSolveBody unmarshals an OrdinaryRequest or GeneralRequest body,
// by family, and decodes it with DecodeSolve. It takes the one-pass walk
// directly, not json.Unmarshal, so encoding/json's validation pass over the
// whole body is skipped (the walk checks the grammar itself). Init is read
// in place, without a copy: body does not change during the call.
func DecodeSolveBody(family ir.Family, body []byte, lim Limits) (*SolveRequest, error) {
	var req GeneralRequest
	var err error
	if family == ir.FamilyOrdinary {
		var o OrdinaryRequest
		err = decodeBody(body, &o, true)
		req = GeneralRequest{System: o.System, Op: o.Op, Mod: o.Mod, Init: o.Init, Opts: o.Opts}
	} else {
		err = decodeBody(body, &req, true)
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	return DecodeSolve(family, req.System, req.Op, req.Mod, req.Init, req.WithPowers, req.Opts, lim)
}

// DecodeSolve validates a wire ordinary/general system against lim,
// resolves the operator, decodes init into PlanData and checks its length
// against Sys.M — the global cell count for a dense request, the touched
// count for a sparse one. Sparse-encoding defects wrap ir.ErrInvalidSparse
// (422 on the wire); dense defects answer 400. Procs are not clamped here:
// each server applies its own budget to Data.Opts.Procs.
func DecodeSolve(family ir.Family, w ir.SystemWire, op string, mod int64, init json.RawMessage, withPowers bool, ow ir.OptionsWire, lim Limits) (*SolveRequest, error) {
	if n := max(w.N, len(w.G), len(w.Cells)); n > lim.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", n, lim.MaxN)
	}
	r := &SolveRequest{Family: family, TimeoutMs: ow.TimeoutMs}
	if w.IsSparse() {
		sp, err := w.Sparse()
		if err != nil {
			return nil, err
		}
		r.Sparse, r.Sys = sp, sp.Compact
	} else {
		sys, err := w.System()
		if err != nil {
			return nil, err
		}
		r.Sys = sys
	}
	opt, err := ow.Options()
	if err != nil {
		return nil, err
	}
	if family == ir.FamilyGeneral {
		r.Bits = lim.MaxExponentBits
		if b := ow.MaxExponentBits; b > 0 && b < r.Bits {
			r.Bits = b
		}
	} else if !r.Sys.Ordinary() {
		return nil, r.invalid("the ordinary family requires H = G (use /v1/solve/general)")
	}
	r.Data = ir.PlanData{Op: op, Mod: mod, WithPowers: withPowers, Opts: opt}
	if r.Data.InitInt, r.Data.InitFloat, err = decodeInit(op, mod, init); err != nil {
		return nil, err
	}
	if n := len(r.Data.InitInt) + len(r.Data.InitFloat); n != r.Sys.M {
		want := "m ="
		if r.Sparse != nil {
			want = "touched-cell count"
		}
		return nil, r.invalid("len(init) = %d, want %s %d", n, want, r.Sys.M)
	}
	return r, nil
}

// invalid builds a validation error typed by the request's encoding.
func (r *SolveRequest) invalid(format string, args ...any) error {
	kind := ir.ErrInvalidSystem
	if r.Sparse != nil {
		kind = ir.ErrInvalidSparse
	}
	return fmt.Errorf("%w: "+format, append([]any{kind}, args...)...)
}

// Fingerprint is the request's plan-cache key: ir.SparseFingerprint for a
// sparse request, ir.PlanFingerprint otherwise (H and the exponent bits
// drop out of ordinary keys, as in the compiled plan's own fingerprint).
func (r *SolveRequest) Fingerprint() string {
	if r.Sparse != nil {
		return ir.SparseFingerprint(r.Family, r.Sparse, r.Bits)
	}
	h := r.Sys.H
	if r.Family == ir.FamilyOrdinary {
		h = nil
	}
	return ir.PlanFingerprint(r.Family, r.Sys.N, r.Sys.M, r.Sys.G, r.Sys.F, h, r.Bits)
}

// Compile builds the request's plan: ir.CompileSparseCtx for a sparse
// request, ir.CompileCtx otherwise.
func (r *SolveRequest) Compile(ctx context.Context) (*ir.Plan, error) {
	opt := ir.CompileOptions{Family: r.Family, MaxExponentBits: r.Bits}
	if r.Sparse != nil {
		return ir.CompileSparseCtx(ctx, r.Sparse, opt)
	}
	return ir.CompileCtx(ctx, r.Sys, opt)
}

// Wire is the request's system in wire form, for forwarding to workers.
func (r *SolveRequest) Wire() ir.SystemWire {
	if r.Sparse != nil {
		return ir.WireFromSparse(r.Sparse)
	}
	return ir.WireFromSystem(r.Sys)
}

// Response shapes a solution as the endpoint's OrdinaryResponse or
// GeneralResponse. A sparse request's response echoes Cells, and its
// power-trace cells (compact sinks in sol) are mapped to global ids.
func (r *SolveRequest) Response(sol *ir.PlanSolution, elapsed time.Duration) any {
	elapsedMs := float64(elapsed.Microseconds()) / 1000
	var cells []int
	if r.Sparse != nil {
		cells = r.Sparse.Cells
		for _, terms := range sol.Powers {
			for k := range terms {
				terms[k].Cell = cells[terms[k].Cell]
			}
		}
	}
	if r.Family == ir.FamilyOrdinary {
		return OrdinaryResponse{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat, Cells: cells,
			Rounds: sol.Rounds, Combines: sol.Combines, ElapsedMs: elapsedMs}
	}
	return GeneralResponse{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat, Cells: cells,
		Powers: sol.Powers, CAPRounds: sol.CAPRounds, ElapsedMs: elapsedMs}
}

// decodeInit resolves an operator name and decodes the raw init array in
// its domain: exactly one of the returned slices is set.
func decodeInit(op string, mod int64, raw json.RawMessage) ([]int64, []float64, error) {
	iop, err := intOp(op, mod)
	if err != nil {
		return nil, nil, err
	}
	if iop != nil {
		ints, err := DecodeInitInt(raw)
		return ints, nil, err
	}
	fop, err := floatOp(op)
	if err != nil {
		return nil, nil, err
	}
	if fop == nil {
		return nil, nil, fmt.Errorf("unknown op %q (one of %s)", op, strings.Join(OpNames(), ", "))
	}
	floats, err := DecodeInitFloat(raw)
	return nil, floats, err
}

// DecodeMoebius turns a /v1/solve/linear or /v1/solve/moebius body into a
// validated Möbius system plus its x0 and wire options. The linear forms
// leave C and D nil (the affine form), and the extended one is rewritten to
// the plain one here, so callers see one shape.
func DecodeMoebius(endpoint string, body []byte, maxN int) (*moebius.MoebiusSystem, []float64, ir.OptionsWire, error) {
	var ms *moebius.MoebiusSystem
	var x0 []float64
	var opts ir.OptionsWire
	var extended bool
	switch endpoint {
	case "linear":
		var req LinearRequest
		if err := decodeBody(body, &req, true); err != nil {
			return nil, nil, opts, fmt.Errorf("bad request body: %v", err)
		}
		ms = &moebius.MoebiusSystem{M: req.M, G: req.G, F: req.F, A: req.A, B: req.B}
		x0, opts, extended = req.X0, req.Opts, req.Extended
	case "moebius":
		var req MoebiusRequest
		if err := decodeBody(body, &req, true); err != nil {
			return nil, nil, opts, fmt.Errorf("bad request body: %v", err)
		}
		ms = &moebius.MoebiusSystem{M: req.M, G: req.G, F: req.F, A: req.A, B: req.B, C: req.C, D: req.D}
		x0, opts = req.X0, req.Opts
	default:
		panic("unreachable endpoint " + endpoint)
	}
	if len(ms.G) > maxN {
		return nil, nil, opts, fmt.Errorf("n = %d exceeds the server limit %d", len(ms.G), maxN)
	}
	if err := ms.Validate(); err != nil {
		return nil, nil, opts, err
	}
	if len(x0) != ms.M {
		return nil, nil, opts, fmt.Errorf("len(x0) = %d, want m = %d", len(x0), ms.M)
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, opts, fmt.Errorf("x0[%d] = %v is not finite", i, v)
		}
	}
	if extended {
		// NewExtended's rewrite b[i] = x0[g[i]] + b[i], in place on the
		// decoded row. It reads b[i] and x0[g[i]] for every iteration, so
		// it runs only on a valid plain form; the sum can overflow to ±Inf,
		// which CheckFinite refuses.
		for i, x := range ms.G {
			ms.B[i] = x0[x] + ms.B[i]
		}
	}
	if err := ms.CheckFinite(); err != nil {
		return nil, nil, opts, err
	}
	return ms, x0, opts, nil
}

// ValidateGrid2D bounds a grid's rows×cols by maxN — in int64, so huge
// dimensions cannot overflow past the check — then validates it
// structurally.
func ValidateGrid2D(sys *ir.Grid2DSystem, maxN int) error {
	if cells := int64(sys.Rows) * int64(sys.Cols); sys.Rows > 0 && sys.Cols > 0 && cells > int64(maxN) {
		return fmt.Errorf("grid %dx%d = %d cells exceeds the server limit %d", sys.Rows, sys.Cols, cells, maxN)
	}
	return sys.Validate()
}
