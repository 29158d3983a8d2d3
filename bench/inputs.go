package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"indexedrec/internal/core"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/internal/session"
	"indexedrec/ir"
)

// servedInput is one pre-generated served operation: the typed client call
// that sends it, the oracle check of its answer, and (through layered) the
// same request replayed layer by layer without traffic.
type servedInput interface {
	layered
	// kind names the request family ("ordinary", "sparse", "general",
	// "linear", "grid2d" or "append").
	kind() string
	// key identifies the structure the server compiles for the request.
	key() string
	// loop runs the sequential loop on the same input; the served load
	// times it beside every operation.
	loop()
	// before and after run untimed around call (session open and close).
	before(ctx context.Context, c *client.Client) error
	call(ctx context.Context, c *client.Client) (any, error)
	after(ctx context.Context, c *client.Client) error
	check(resp any) error
}

// stateless gives the one-shot solve inputs no-op before/after hooks.
type stateless struct{}

func (stateless) before(context.Context, *client.Client) error { return nil }
func (stateless) after(context.Context, *client.Client) error  { return nil }

// procs is the solver parallelism of the engine workloads and the layer
// phase: every core. (irserved's defaults give each solve GOMAXPROCS divided
// by its worker count, which is every core on hosts of up to three.)
var procs = runtime.NumCPU()

// generalExponentBits is irserved's default -max exponent bits, which the
// server folds into general-family fingerprints and compiles.
const generalExponentBits = 16384

var bg = context.Background()

func kb(b []byte) float64 { return float64(len(b)) / 1024 }

// ordinaryInput is a dense or sparse int64 ordinary solve.
type ordinaryInput struct {
	stateless
	req server.OrdinaryRequest
	op  ir.CommutativeMonoid[int64]
	// seqSys/seqInit is the loop the answer is read against: the dense
	// system, or a sparse system's compact form (the same iterations).
	seqSys  *ir.System
	seqInit []int64
	// want is the loop's answer (compact order for sparse requests, whose
	// response must also echo cells).
	want  []int64
	cells []int
	fp    string
}

func (in *ordinaryInput) kind() string {
	if in.cells != nil {
		return "sparse"
	}
	return "ordinary"
}
func (in *ordinaryInput) key() string { return in.fp }
func (in *ordinaryInput) loop()       { core.RunSequential[int64](in.seqSys, in.op, in.seqInit) }

func (in *ordinaryInput) call(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveOrdinary(ctx, in.req)
}

func (in *ordinaryInput) check(resp any) error {
	r := resp.(*server.OrdinaryResponse)
	if !slices.Equal(r.Cells, in.cells) {
		return fmt.Errorf("%w: response cells differ from the touched set", errMismatch)
	}
	return sameInts(r.ValuesInt, in.want)
}

func (in *ordinaryInput) layers(l *layerRun) {
	var body, out []byte
	var req server.OrdinaryRequest
	var init []int64
	var sys *ir.System
	var sp *ir.SparseSystem
	var fp string
	var res *ir.OrdinaryResult[int64]
	var resp server.OrdinaryResponse
	l.time("client.encode", func() (err error) {
		body, err = json.Marshal(in.req)
		l.count("client.request_kb", kb(body))
		return err
	})
	l.time("server.decode", func() error {
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		var err error
		init, err = server.DecodeInitInt(req.Init)
		return err
	})
	l.time("server.validate", func() (err error) {
		if req.System.IsSparse() {
			sp, err = req.System.Sparse()
		} else {
			sys, err = req.System.System()
		}
		return err
	})
	l.time("ir.fingerprint", func() error {
		if sp != nil {
			fp = ir.SparseFingerprint(ir.FamilyOrdinary, sp, 0)
		} else {
			fp = ir.PlanFingerprint(ir.FamilyOrdinary, sys.N, sys.M, sys.G, sys.F, nil, 0)
		}
		return nil
	})
	p := l.plan(fp, func() (*ir.Plan, error) {
		opt := ir.CompileOptions{Family: ir.FamilyOrdinary, Procs: procs}
		if sp != nil {
			return ir.CompileSparseCtx(bg, sp, opt)
		}
		return ir.CompileCtx(bg, sys, opt)
	})
	l.time("ordinary.solve", func() (err error) {
		res, err = ir.SolveOrdinaryPlanCtx[int64](bg, p, in.op, init, ir.SolveOptions{Procs: procs})
		if err == nil {
			l.count("ordinary.combines", float64(res.Combines))
			l.count("ordinary.rounds", float64(res.Rounds))
		}
		return err
	})
	l.time("server.encode", func() (err error) {
		out, err = json.Marshal(server.OrdinaryResponse{ValuesInt: res.Values, Cells: in.cells,
			Rounds: res.Rounds, Combines: res.Combines})
		l.count("client.response_kb", kb(out))
		return err
	})
	l.time("client.decode", func() error { return json.Unmarshal(out, &resp) })
	l.time("core.seq", func() error {
		in.loop()
		return nil
	})
	l.check(func() error { return in.check(&resp) })
}

// generalInput is a dense int64 general (CAP) solve.
type generalInput struct {
	stateless
	req  server.GeneralRequest
	op   ir.CommutativeMonoid[int64]
	sys  *ir.System
	init []int64
	want []int64
	fp   string
}

func (in *generalInput) kind() string { return "general" }
func (in *generalInput) key() string  { return in.fp }
func (in *generalInput) loop()        { core.RunSequential[int64](in.sys, in.op, in.init) }

func (in *generalInput) call(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveGeneral(ctx, in.req)
}

func (in *generalInput) check(resp any) error {
	return sameInts(resp.(*server.GeneralResponse).ValuesInt, in.want)
}

func (in *generalInput) layers(l *layerRun) {
	var body, out []byte
	var req server.GeneralRequest
	var init []int64
	var sys *ir.System
	var fp string
	var res *ir.GeneralResult[int64]
	var resp server.GeneralResponse
	l.time("client.encode", func() (err error) {
		body, err = json.Marshal(in.req)
		l.count("client.request_kb", kb(body))
		return err
	})
	l.time("server.decode", func() error {
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		var err error
		init, err = server.DecodeInitInt(req.Init)
		return err
	})
	l.time("server.validate", func() (err error) {
		sys, err = req.System.System()
		return err
	})
	l.time("ir.fingerprint", func() error {
		fp = ir.PlanFingerprint(ir.FamilyGeneral, sys.N, sys.M, sys.G, sys.F, sys.H, generalExponentBits)
		return nil
	})
	p := l.plan(fp, func() (*ir.Plan, error) {
		return ir.CompileCtx(bg, sys, ir.CompileOptions{Family: ir.FamilyGeneral, Procs: procs,
			MaxExponentBits: generalExponentBits})
	})
	l.time("gir.solve", func() (err error) {
		res, err = ir.SolveGeneralPlanCtx[int64](bg, p, in.op, init, ir.SolveOptions{Procs: procs})
		return err
	})
	l.time("server.encode", func() (err error) {
		out, err = json.Marshal(server.GeneralResponse{ValuesInt: res.Values, CAPRounds: res.CAPRounds})
		l.count("client.response_kb", kb(out))
		return err
	})
	l.time("client.decode", func() error { return json.Unmarshal(out, &resp) })
	l.time("core.seq", func() error {
		in.loop()
		return nil
	})
	l.check(func() error { return in.check(&resp) })
}

// linearInput is an affine recurrence solved through irserved's coalescer.
type linearInput struct {
	stateless
	req  server.LinearRequest
	ms   *moebius.MoebiusSystem // the same recurrence, for the loop
	want []float64              // ir.SolveLinearCtx on the same input
	fp   string
}

func (in *linearInput) kind() string { return "linear" }
func (in *linearInput) key() string  { return in.fp }
func (in *linearInput) loop()        { in.ms.RunSequential(in.req.X0) }

func (in *linearInput) call(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveLinear(ctx, in.req)
}

func (in *linearInput) check(resp any) error {
	return sameBits(resp.(*server.MoebiusResponse).Values, in.want)
}

func (in *linearInput) layers(l *layerRun) {
	var body, out []byte
	var req server.LinearRequest
	var ms *moebius.MoebiusSystem
	var fp string
	var vals []float64
	var resp server.MoebiusResponse
	l.time("client.encode", func() (err error) {
		body, err = json.Marshal(in.req)
		l.count("client.request_kb", kb(body))
		return err
	})
	l.time("server.decode", func() error { return json.Unmarshal(body, &req) })
	l.time("server.validate", func() error {
		ms = moebius.NewLinear(req.M, req.G, req.F, req.A, req.B)
		if err := ms.Validate(); err != nil {
			return err
		}
		return ms.CheckFinite()
	})
	l.time("ir.fingerprint", func() error {
		fp = ir.PlanFingerprint(ir.FamilyMoebius, len(ms.G), ms.M, ms.G, ms.F, nil, 0)
		return nil
	})
	p := l.plan(fp, func() (*ir.Plan, error) { return ir.CompileMoebiusCtx(bg, ms.M, ms.G, ms.F) })
	l.time("moebius.solve", func() (err error) {
		vals, err = ir.SolveMoebiusPlanCtx(bg, p, ms.A, ms.B, ms.C, ms.D, req.X0, ir.SolveOptions{Procs: procs})
		return err
	})
	l.time("server.encode", func() (err error) {
		out, err = json.Marshal(server.MoebiusResponse{Values: vals, BatchSize: 1})
		l.count("client.response_kb", kb(out))
		return err
	})
	l.time("client.decode", func() error { return json.Unmarshal(out, &resp) })
	l.time("core.seq", func() error {
		ms.RunSequential(req.X0)
		return nil
	})
	l.check(func() error { return in.check(&resp) })
}

// gridInput is a 2-D grid (edit distance) solved by wavefronts.
type gridInput struct {
	stateless
	req  server.Grid2DRequest
	want []float64 // grid2d.SolveSequential on the same input
	fp   string
}

func (in *gridInput) kind() string { return "grid2d" }
func (in *gridInput) key() string  { return in.fp }
func (in *gridInput) loop()        { _, _ = grid2d.SolveSequential(engineGrid(&in.req.System)) }

func (in *gridInput) call(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveGrid2D(ctx, in.req)
}

func (in *gridInput) check(resp any) error {
	return sameBits(resp.(*server.Grid2DResponse).Values, in.want)
}

func (in *gridInput) layers(l *layerRun) {
	var body, out []byte
	var req server.Grid2DRequest
	var resp server.Grid2DResponse
	l.time("client.encode", func() (err error) {
		body, err = json.Marshal(in.req)
		l.count("client.request_kb", kb(body))
		return err
	})
	l.time("server.decode", func() error { return json.Unmarshal(body, &req) })
	l.time("server.validate", func() error { return req.System.Validate() })
	res := gridLayers(l, &req.System)
	l.time("server.encode", func() (err error) {
		out, err = json.Marshal(server.Grid2DResponse{Values: res.Values, Rounds: res.Rounds, Cells: res.Cells})
		l.count("client.response_kb", kb(out))
		return err
	})
	l.time("client.decode", func() error { return json.Unmarshal(out, &resp) })
	l.check(func() error { return in.check(&resp) })
}

// gridLayers times the ir and grid2d layers of one grid solve — the part a
// served grid request and the wavefront engine workload share — and returns
// the solution (an empty one after a failure).
func gridLayers(l *layerRun, gs *ir.Grid2DSystem) *ir.Grid2DResult {
	var fp string
	res := &ir.Grid2DResult{}
	l.time("ir.fingerprint", func() (err error) {
		fp, err = ir.Grid2DFingerprint(gs)
		return err
	})
	p := l.plan(fp, func() (*ir.Plan, error) { return ir.CompileGrid2DCtx(bg, gs) })
	l.time("grid2d.solve", func() (err error) {
		r, err := ir.SolveGrid2DPlanCtx(bg, p, gs, ir.SolveOptions{Procs: procs})
		if err == nil {
			res = r
			l.count("grid2d.rounds", float64(r.Rounds))
		}
		return err
	})
	l.time("grid2d.seq", func() error {
		_, err := grid2d.SolveSequential(engineGrid(gs))
		return err
	})
	return res
}

// engineGrid converts the wire grid to the engine's system for the
// row-major oracle (slices shared).
func engineGrid(s *ir.Grid2DSystem) *grid2d.System {
	ring, err := grid2d.RingByName(s.Semiring)
	if err != nil {
		panic("bench: generated grid has an unknown semiring: " + err.Error())
	}
	return &grid2d.System{Rows: s.Rows, Cols: s.Cols, Ring: ring,
		A: s.A, B: s.B, D: s.Diag, C: s.C, North: s.North, West: s.West, NW: s.NorthWest}
}

// sessionStream is one pre-generated linear append stream: a chain
// X[i+1] := a[i]·X[i] + b[i] over m cells cut into fixed-size batches.
type sessionStream struct {
	m, batch int
	x0, a, b []float64
	// want is MoebiusSystem.RunSequential over the whole stream; batch j
	// writes cells j·batch+1 .. (j+1)·batch, whose final values are
	// want[j·batch+1 : (j+1)·batch+1].
	want []float64
	// local, zero and one shape the batch-local loop (see append).
	local     []int
	zero, one []float64
}

func (s *sessionStream) appends() int { return (s.m - 1) / s.batch }

func (s *sessionStream) request(j int) server.SessionAppendRequest {
	lo := j * s.batch
	g := make([]int, s.batch)
	f := make([]int, s.batch)
	for i := range g {
		g[i], f[i] = lo+i+1, lo+i
	}
	return server.SessionAppendRequest{G: g, F: f, A: s.a[lo : lo+s.batch], B: s.b[lo : lo+s.batch]}
}

// append returns batch j for client state st: its request, and the loop a
// caller holding the state would run for it — the batch's rows in place
// over cells 0..batch, cell 0 holding the value the previous batch left.
func (s *sessionStream) append(st *sessionState, j int) *appendInput {
	lo := j * s.batch
	x0 := make([]float64, s.batch+1)
	x0[0] = s.want[lo]
	return &appendInput{st: st, stream: s, j: j, last: j == s.appends()-1, req: s.request(j),
		seq: &moebius.MoebiusSystem{M: s.batch + 1, G: s.local[1:], F: s.local[:s.batch],
			A: s.a[lo : lo+s.batch], B: s.b[lo : lo+s.batch], C: s.zero, D: s.one},
		seqX0: x0}
}

func (s *sessionStream) batchWant(j int) []float64 {
	return s.want[j*s.batch+1 : (j+1)*s.batch+1]
}

// sessionState is one client's live session on the server.
type sessionState struct{ id string }

// appendInput is batch j of a stream, appended to the client's session;
// the session opens before batch 0 and closes after the last batch.
type appendInput struct {
	st     *sessionState
	stream *sessionStream
	j      int
	last   bool
	req    server.SessionAppendRequest
	seq    *moebius.MoebiusSystem
	seqX0  []float64
	// local is the in-process session the layer phase appends to.
	local **session.Session
}

func (in *appendInput) kind() string { return "append" }
func (in *appendInput) key() string  { return fmt.Sprintf("session-open:m=%d", in.stream.m) }
func (in *appendInput) loop()        { in.seq.RunSequential(in.seqX0) }

func (in *appendInput) before(ctx context.Context, c *client.Client) error {
	if in.j != 0 && in.st.id != "" {
		return nil
	}
	in.st.id = ""
	r, err := c.OpenSession(ctx, server.SessionOpenRequest{Family: "linear", M: in.stream.m, X0: in.stream.x0})
	if err != nil {
		return fmt.Errorf("opening session: %w", err)
	}
	in.st.id = r.ID
	if in.j != 0 {
		// Reopened mid-stream after a failure: replay the earlier batches
		// so the state matches the oracle again.
		for k := 0; k < in.j; k++ {
			if _, err := c.Append(ctx, r.ID, in.stream.request(k)); err != nil {
				return fmt.Errorf("replaying batch %d: %w", k, err)
			}
		}
	}
	return nil
}

func (in *appendInput) call(ctx context.Context, c *client.Client) (any, error) {
	r, err := c.Append(ctx, in.st.id, in.req)
	if err != nil {
		// The server may or may not have applied the batch: abandon the
		// session (its idle TTL reclaims it) so the next batch reopens.
		in.st.id = ""
		return nil, err
	}
	return r, nil
}

func (in *appendInput) after(ctx context.Context, c *client.Client) error {
	if !in.last || in.st.id == "" {
		return nil
	}
	id := in.st.id
	in.st.id = ""
	return c.CloseSession(ctx, id)
}

func (in *appendInput) check(resp any) error {
	return sameBits(resp.(*server.SessionAppendResponse).Values, in.stream.batchWant(in.j))
}

func (in *appendInput) layers(l *layerRun) {
	var body, out []byte
	var req server.SessionAppendRequest
	var res *session.Result
	var resp server.SessionAppendResponse
	if *in.local == nil || in.j == 0 {
		s, err := session.Open(bg, session.Spec{Family: ir.FamilyMoebius, M: in.stream.m,
			X0: in.stream.x0, Opts: ir.SolveOptions{Procs: procs}})
		if err != nil {
			l.err = fmt.Errorf("session.Open: %w", err)
			return
		}
		*in.local = s
	}
	sess := *in.local
	l.time("client.encode", func() (err error) {
		body, err = json.Marshal(in.req)
		l.count("client.request_kb", kb(body))
		return err
	})
	l.time("server.decode", func() error { return json.Unmarshal(body, &req) })
	l.time("session.append", func() (err error) {
		res, err = sess.Append(bg, session.Batch{G: req.G, F: req.F, A: req.A, B: req.B})
		return err
	})
	l.time("server.encode", func() (err error) {
		out, err = json.Marshal(server.SessionAppendResponse{N: res.N, Appends: sess.Appends(), Values: res.Values})
		l.count("client.response_kb", kb(out))
		return err
	})
	l.time("client.decode", func() error { return json.Unmarshal(out, &resp) })
	l.time("core.seq", func() error {
		in.loop()
		return nil
	})
	l.check(func() error { return in.check(&resp) })
}
