package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"indexedrec/internal/jsonwire"
	"indexedrec/internal/moebius"
	"indexedrec/ir"
)

// The single request of every plan family. irserved's solve routes, its
// /v1/shard/solve worker endpoint and the coordinator front-end all turn a
// body into a SolveRequest here, and all of them then run one path:
// resolve the plan by Fingerprint (compiling with Compile on a miss),
// replay it against Data — whole, or one shard of it with SolveShard — and
// shape the answer with Response or shardResponse. The coordinator builds
// the body of each shard with ShardRequest, and the worker reads it back
// with DecodeShard, in this file. The families differ only in where their
// structure and data sit:
//
//   - ordinary/general: the system in Sys (and the touched-cell encoding
//     in Sparse, whose compact system Sys then is), the operator and init
//     in Data. A sparse system is a valid dense system over touched-cell
//     ids (DESIGN §16.2), so the two encodings differ only in the plan key
//     and in the Cells relabel at the edges;
//   - moebius (the linear and moebius routes): M, N, G and F in Sys, the
//     coefficients in Data.A..D and Data.X0 (nil C, D: the affine form);
//   - grid2d: the whole grid in Data.Grid, and Sys nil.

// Limits bounds what the decoders accept: MaxN caps iterations, touched
// cells and grid cells (the global cell count of a sparse system is
// deliberately unbounded, since work scales with the touched count), and
// MaxExponentBits is the ceiling a general request may lower but not raise.
type Limits struct {
	MaxN            int
	MaxExponentBits int
}

// CompileTerms is the term budget of a general compile of n iterations
// (ir.CompileOptions.MaxTerms): two terms an iteration, as when it merges
// two leaves, plus MaxN more for the traces that accumulate. A one-cell
// scatter of n iterations holds about n²/2 terms, so Scatter(16384, 1) is
// refused after about 4.2 M terms (a 50 MiB arena) instead of holding
// gigabytes.
func (l Limits) CompileTerms(n int) int { return l.MaxN + 2*n }

// SolveRequest is one decoded solve of any plan family.
type SolveRequest struct {
	// Family is the plan family.
	Family ir.Family
	// Sys is the structure that gets compiled: Sparse.Compact for a sparse
	// request, the dense system for ordinary/general, M, N, G, F for
	// Möbius; nil for grid2d.
	Sys *ir.System
	// Sparse is the touched-cell encoding, nil for a dense request.
	Sparse *ir.SparseSystem
	// Bits is the effective MaxExponentBits of a general plan (0 for the
	// other families); it is part of the plan fingerprint.
	Bits int
	// Terms is the term budget of a general compile (0 = unlimited); it
	// bounds the compile only and is not part of the fingerprint.
	Terms int
	// Data is the replay data: the operator and init in Sys order, the
	// Möbius coefficients, or the grid, plus options.
	Data ir.PlanData
	// TimeoutMs is the client's requested deadline (0 = server default).
	TimeoutMs int
}

// Routes lists the solve routes under APIPrefix that Decode reads.
var Routes = []string{"ordinary", "general", "linear", "moebius", "grid2d"}

// Decode reads a body posted to APIPrefix+route, one of Routes.
func Decode(route string, body []byte, lim Limits) (*SolveRequest, error) {
	switch route {
	case "ordinary":
		return DecodeSolveBody(ir.FamilyOrdinary, body, lim)
	case "general":
		return DecodeSolveBody(ir.FamilyGeneral, body, lim)
	case "linear", "moebius":
		return DecodeMoebius(route, body, lim)
	case "grid2d":
		return DecodeGrid2D(body, lim)
	}
	return nil, fmt.Errorf("unknown solve route %q", route)
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
// resolves the family (FamilyAuto through ir.ResolveFamily) and the
// operator, decodes init into PlanData and checks its length against Sys.M
// — the global cell count for a dense request, the touched count for a
// sparse one. Sparse-encoding defects wrap ir.ErrInvalidSparse (422 on the
// wire); dense defects answer 400. Procs are not clamped here: each server
// applies its own budget to Data.Opts.Procs.
func DecodeSolve(family ir.Family, w ir.SystemWire, op string, mod int64, init json.RawMessage, withPowers bool, ow ir.OptionsWire, lim Limits) (*SolveRequest, error) {
	if n := max(w.N, len(w.G), len(w.Cells)); n > lim.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", n, lim.MaxN)
	}
	r := &SolveRequest{TimeoutMs: ow.TimeoutMs}
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
	r.Family = ir.ResolveFamily(r.Sys, family)
	if r.Family == ir.FamilyGeneral {
		r.Bits, r.Terms = lim.MaxExponentBits, lim.CompileTerms(r.Sys.N)
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

// DecodeMoebius reads a /v1/solve/linear or /v1/solve/moebius body into a
// validated Möbius-family request with decodeMoebius.
func DecodeMoebius(endpoint string, body []byte, lim Limits) (*SolveRequest, error) {
	var req MoebiusRequest
	var extended bool
	var err error
	if endpoint == "linear" {
		var lin LinearRequest
		err = decodeBody(body, &lin, true)
		req = MoebiusRequest{M: lin.M, G: lin.G, F: lin.F, A: lin.A, B: lin.B, X0: lin.X0, Opts: lin.Opts}
		extended = lin.Extended
	} else {
		err = decodeBody(body, &req, true)
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	return decodeMoebius(&req, extended, lim)
}

// decodeMoebius validates a decoded linear or Möbius system — the solve
// routes' and the session open's alike. The linear forms leave C and D nil
// (the affine form), and the extended one is rewritten to the plain one
// here, so callers see one shape. The rewrite writes a fresh b row, never
// req's: the coordinator keeps a session's open request and replays it,
// extended flag and all, on a re-home.
func decodeMoebius(req *MoebiusRequest, extended bool, lim Limits) (*SolveRequest, error) {
	ms := &moebius.MoebiusSystem{M: req.M, G: req.G, F: req.F, A: req.A, B: req.B, C: req.C, D: req.D}
	x0 := req.X0
	if len(ms.G) > lim.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", len(ms.G), lim.MaxN)
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != ms.M {
		return nil, fmt.Errorf("len(x0) = %d, want m = %d", len(x0), ms.M)
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("x0[%d] = %v is not finite", i, v)
		}
	}
	if extended {
		// NewExtended's rewrite b[i] = x0[g[i]] + b[i]. It reads b[i] and
		// x0[g[i]] for every iteration, so it runs only on a valid plain
		// form; the sum can overflow to ±Inf, which CheckFinite refuses.
		b := make([]float64, len(ms.G))
		for i, x := range ms.G {
			b[i] = x0[x] + ms.B[i]
		}
		ms.B = b
	}
	if err := ms.CheckFinite(); err != nil {
		return nil, err
	}
	opt, err := req.Opts.Options()
	if err != nil {
		return nil, err
	}
	return &SolveRequest{
		Family:    ir.FamilyMoebius,
		Sys:       &ir.System{M: ms.M, N: len(ms.G), G: ms.G, F: ms.F},
		Data:      ir.PlanData{A: ms.A, B: ms.B, C: ms.C, D: ms.D, X0: x0, Opts: opt},
		TimeoutMs: req.Opts.TimeoutMs,
	}, nil
}

// DecodeGrid2D reads a /v1/solve/grid2d body into a validated grid2d-family
// request.
func DecodeGrid2D(body []byte, lim Limits) (*SolveRequest, error) {
	var req Grid2DRequest
	if err := decodeBody(body, &req, true); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	if err := validateGrid2D(&req.System, lim.MaxN); err != nil {
		return nil, err
	}
	opt, err := req.Opts.Options()
	if err != nil {
		return nil, err
	}
	return &SolveRequest{Family: ir.FamilyGrid2D, Data: ir.PlanData{Grid: &req.System, Opts: opt},
		TimeoutMs: req.Opts.TimeoutMs}, nil
}

// validateGrid2D bounds a grid's rows×cols by maxN — in int64, so huge
// dimensions cannot overflow past the check — then validates it
// structurally.
func validateGrid2D(sys *ir.Grid2DSystem, maxN int) error {
	if cells := int64(sys.Rows) * int64(sys.Cols); sys.Rows > 0 && sys.Cols > 0 && cells > int64(maxN) {
		return fmt.Errorf("grid %dx%d = %d cells exceeds the server limit %d", sys.Rows, sys.Cols, cells, maxN)
	}
	return sys.Validate()
}

// Fingerprint is the request's plan-cache key: ir.Grid2DFingerprint for a
// grid, ir.SparseFingerprint for a sparse request, and ir.PlanFingerprint
// otherwise (H and the exponent bits drop out of every key but the
// general family's, as in the compiled plan's own fingerprint). A decoded
// grid is valid, so its key cannot fail; an invalid one keys as "", and
// Compile then reports the defect.
func (r *SolveRequest) Fingerprint() string {
	switch {
	case r.Family == ir.FamilyGrid2D:
		fp, _ := ir.Grid2DFingerprint(r.Data.Grid)
		return fp
	case r.Sparse != nil:
		return ir.SparseFingerprint(r.Family, r.Sparse, r.Bits)
	}
	h := r.Sys.H
	if r.Family != ir.FamilyGeneral {
		h = nil
	}
	return ir.PlanFingerprint(r.Family, r.Sys.N, r.Sys.M, r.Sys.G, r.Sys.F, h, r.Bits)
}

// Compile builds the request's plan.
func (r *SolveRequest) Compile(ctx context.Context) (*ir.Plan, error) {
	if r.Family == ir.FamilyGrid2D {
		return ir.CompileGrid2DCtx(ctx, r.Data.Grid)
	}
	opt := ir.CompileOptions{Family: r.Family, MaxExponentBits: r.Bits, MaxTerms: r.Terms}
	if r.Sparse != nil {
		return ir.CompileSparseCtx(ctx, r.Sparse, opt)
	}
	return ir.CompileCtx(ctx, r.Sys, opt)
}

// Response shapes a solution as the route's response: MoebiusResponse,
// Grid2DResponse, OrdinaryResponse or GeneralResponse. A sparse request's
// response echoes Cells, and its power-trace cells (compact sinks in sol)
// are mapped to global ids.
func (r *SolveRequest) Response(sol *ir.PlanSolution, elapsed time.Duration) any {
	elapsedMs := float64(elapsed.Microseconds()) / 1000
	switch r.Family {
	case ir.FamilyMoebius:
		// BatchSize is always 1: every request is solved alone.
		return MoebiusResponse{Values: sol.Values, BatchSize: 1, ElapsedMs: elapsedMs}
	case ir.FamilyGrid2D:
		return Grid2DResponse{Values: sol.Values, Rounds: sol.Rounds,
			Cells: int64(r.Data.Grid.Rows) * int64(r.Data.Grid.Cols), ElapsedMs: elapsedMs}
	}
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

// ShardRequest builds the body of every shard of the request but its Shard
// field: the structure a worker keys and compiles its plan by, the replay
// data, the procs option, and the time left before ctx's deadline as
// timeout_ms, so workers bound their own admission. A sparse request ships
// its compact structure plus the touched-cell list — O(n) on the wire
// however large the global array. A grid request ships no structure here:
// each band attaches its own Grid. The init row is written as json.Marshal
// writes it.
func (r *SolveRequest) ShardRequest(ctx context.Context) (ShardRequest, error) {
	req := ShardRequest{Family: r.Family.String(), Opts: ir.OptionsWire{Procs: r.Data.Opts.Procs}}
	if dl, ok := ctx.Deadline(); ok {
		req.Opts.TimeoutMs = int(max(time.Until(dl).Milliseconds(), 1))
	}
	switch r.Family {
	case ir.FamilyMoebius:
		req.System = ir.SystemWire{M: r.Sys.M, N: len(r.Sys.G), G: r.Sys.G, F: r.Sys.F}
		req.A, req.B, req.C, req.D, req.X0 = r.Data.A, r.Data.B, r.Data.C, r.Data.D, r.Data.X0
	case ir.FamilyOrdinary, ir.FamilyGeneral:
		if r.Sparse != nil {
			req.System = ir.WireFromSparse(r.Sparse)
		} else {
			req.System = ir.WireFromSystem(r.Sys)
		}
		req.Opts.MaxExponentBits = r.Bits
		req.Op, req.Mod = r.Data.Op, r.Data.Mod
		if r.Data.InitInt != nil {
			req.Init = jsonwire.AppendInts(nil, r.Data.InitInt)
		} else if init, ok := jsonwire.AppendFloats(nil, r.Data.InitFloat); ok {
			req.Init = init
		} else {
			_, err := json.Marshal(r.Data.InitFloat) // json.Marshal's error for a non-finite value
			return req, err
		}
	}
	return req, nil
}

// DecodeShard reads a /v1/shard/solve body back into the request and the
// shard of it to execute. Ordinary and general bodies decode exactly like
// the solve routes (DecodeSolve), so a sparse shard's range and response
// cells address the compact plan; the coordinator holds the touched-cell
// list to map them back. A Möbius body's structure is read from
// System.M/G/F alone; its coefficients are checked by the replay. A grid
// body carries one band: a contiguous row slice of the full grid whose
// North/NorthWest boundaries hold the halo (the previous band's last output
// row), solved like any whole grid, with Shard its row range in the
// original grid.
func DecodeShard(body []byte, lim Limits) (*SolveRequest, ir.Shard, error) {
	var req ShardRequest
	if err := decodeBody(body, &req, true); err != nil {
		return nil, ir.Shard{}, fmt.Errorf("bad request body: %v", err)
	}
	fam, err := ir.FamilyByName(req.Family)
	if err != nil {
		return nil, ir.Shard{}, err
	}
	sh := ir.Shard{Lo: req.Shard.Lo, Hi: req.Shard.Hi}
	if sh.Lo < 0 || sh.Hi < sh.Lo {
		return nil, sh, fmt.Errorf("%w: [%d, %d)", ir.ErrShard, sh.Lo, sh.Hi)
	}
	if fam == ir.FamilyOrdinary || fam == ir.FamilyGeneral {
		r, err := DecodeSolve(fam, req.System, req.Op, req.Mod, req.Init, false, req.Opts, lim)
		return r, sh, err
	}
	r := &SolveRequest{Family: fam, TimeoutMs: req.Opts.TimeoutMs}
	if fam == ir.FamilyMoebius {
		w := req.System
		if len(w.G) > lim.MaxN {
			return nil, sh, fmt.Errorf("n = %d exceeds the server limit %d", len(w.G), lim.MaxN)
		}
		r.Sys = &ir.System{M: w.M, N: len(w.G), G: w.G, F: w.F}
		r.Data = ir.PlanData{A: req.A, B: req.B, C: req.C, D: req.D, X0: req.X0}
	} else {
		if req.Grid == nil {
			return nil, sh, fmt.Errorf("%w: grid2d shard request missing grid", ir.ErrInvalidSystem)
		}
		if err := validateGrid2D(req.Grid, lim.MaxN); err != nil {
			return nil, sh, err
		}
		if sh.Hi-sh.Lo != req.Grid.Rows {
			return nil, sh, fmt.Errorf("%w: band [%d, %d) carries %d rows", ir.ErrShard, sh.Lo, sh.Hi, req.Grid.Rows)
		}
		r.Data.Grid = req.Grid
	}
	if r.Data.Opts, err = req.Opts.Options(); err != nil {
		return nil, sh, err
	}
	return r, sh, nil
}

// SolveShard replays shard sh of the request's plan p. A grid band is a
// whole sub-grid, so it is solved whole and sh only echoed; every other
// family executes its slice with ir.Plan.SolveShardCtx.
func (r *SolveRequest) SolveShard(ctx context.Context, p *ir.Plan, sh ir.Shard) (*ir.ShardSolution, error) {
	if r.Family != ir.FamilyGrid2D {
		return p.SolveShardCtx(ctx, r.Data, sh)
	}
	sol, err := p.SolveCtx(ctx, r.Data)
	if err != nil {
		return nil, err
	}
	return &ir.ShardSolution{Shard: sh, Values: sol.Values}, nil
}

// shardResponse shapes a shard solution for the wire.
func shardResponse(part *ir.ShardSolution, elapsed time.Duration) ShardResponse {
	return ShardResponse{
		Shard:       ShardWire{Lo: part.Shard.Lo, Hi: part.Shard.Hi},
		Cells:       part.Cells,
		ValuesInt:   part.ValuesInt,
		ValuesFloat: part.ValuesFloat,
		Values:      part.Values,
		ElapsedMs:   float64(elapsed.Microseconds()) / 1000,
	}
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
