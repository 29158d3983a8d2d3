package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"indexedrec/internal/core"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/session"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// sizes fixes every input dimension; full is the benchmark, small the
// smoke test's reduced run.
type sizes struct {
	variants       int // data variants per hot structure
	ordinaryN      int
	mixN           int
	mixSparseM     int
	mixSparseBands int
	mixBuckets     int
	mixGridSide    int
	churnN         int
	churnBuckets   int
	churnPerSecond int // pool structures per measured second
	sessionM       int
	sessionBatch   int
	sessionStreams int
	scanN          int
	waveSide       int
	setupRepeats   int
}

const (
	// layerSamples is how many inputs the layer phase replays per request
	// kind.
	layerSamples = 20
	// engineVariants is how many init vectors or grids an engine workload
	// alternates over one structure.
	engineVariants = 2
	// churnHold is how many requests each churn structure serves before the
	// next one starts.
	churnHold = 4
)

var fullSizes = sizes{
	variants: 8, ordinaryN: 131072,
	mixN: 2048, mixSparseM: 1 << 20, mixSparseBands: 8, mixBuckets: 256, mixGridSide: 64,
	churnN: 4096, churnBuckets: 512, churnPerSecond: 60,
	sessionM: 65537, sessionBatch: 256, sessionStreams: 4,
	scanN: 1 << 22, waveSide: 1024, setupRepeats: 5,
}

var smallSizes = sizes{
	variants: 2, ordinaryN: 4096,
	mixN: 256, mixSparseM: 1 << 14, mixSparseBands: 4, mixBuckets: 32, mixGridSide: 16,
	churnN: 512, churnBuckets: 64, churnPerSecond: 200,
	sessionM: 1025, sessionBatch: 32, sessionStreams: 2,
	scanN: 1 << 14, waveSide: 64, setupRepeats: 2,
}

// inputHash is a sha256 over every generated input, so a run records
// exactly which data it measured.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (h *inputHash) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.h.Write(b[:])
}

func (h *inputHash) ints(xs []int) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *inputHash) i64s(xs []int64) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *inputHash) f64s(xs []float64) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

func (h *inputHash) system(s *ir.System) {
	h.word(uint64(s.M))
	h.ints(s.G)
	h.ints(s.F)
	h.ints(s.H)
}

func (h *inputHash) grid(s *ir.Grid2DSystem) {
	h.word(uint64(s.Rows))
	h.word(uint64(s.Cols))
	h.h.Write([]byte(s.Semiring))
	for _, xs := range [][]float64{s.A, s.B, s.Diag, s.C, s.North, s.West, {s.NorthWest}} {
		h.f64s(xs)
	}
}

func (h *inputHash) sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// servedSet is a served workload's generated traffic.
type servedSet struct {
	// warm returns client c's requests, one per hot structure: set-up sends
	// warm(0), then every client sends its own before the clock starts.
	warm func(c int) []servedInput
	// next returns client c's i-th operation, or nil when its sequence is
	// exhausted.
	next func(c, i int) servedInput
	// layer holds the inputs the traced run replays layer by layer.
	layer []servedInput
}

func intOp(name string, mod int64) ir.CommutativeMonoid[int64] {
	op, err := ir.IntOpByName(name, mod)
	if err != nil || op == nil {
		panic(fmt.Sprintf("bench: int operator %q is not registered", name))
	}
	return op
}

func rawInts(xs []int64) json.RawMessage {
	raw, err := json.Marshal(xs)
	if err != nil {
		panic("bench: encoding an int64 slice: " + err.Error())
	}
	return raw
}

// newOrdinary builds an int64-add ordinary request over a dense system, or
// over sp's sparse encoding when sp is non-nil, with its oracle answer.
func newOrdinary(sys *ir.System, sp *ir.SparseSystem, init []int64) (*ordinaryInput, error) {
	op := intOp("int64-add", 0)
	in := &ordinaryInput{op: op, seqInit: init}
	in.req = server.OrdinaryRequest{Op: "int64-add", Init: rawInts(init)}
	if sp == nil {
		in.req.System = ir.WireFromSystem(sys)
		in.seqSys = sys
		in.fp = ir.PlanFingerprint(ir.FamilyOrdinary, sys.N, sys.M, sys.G, sys.F, nil, 0)
		in.want = core.RunSequential[int64](sys, op, init)
		return in, nil
	}
	in.req.System = ir.WireFromSparse(sp)
	in.seqSys, in.cells = sp.Compact, sp.Cells
	in.fp = ir.SparseFingerprint(ir.FamilyOrdinary, sp, 0)
	// The oracle is the dense loop over the whole global array; the timed
	// loop (loop) runs the same iterations over the touched cells only.
	full, err := core.ExpandInit(sp, init)
	if err != nil {
		return nil, err
	}
	if in.want, err = core.GatherTouched(sp, core.RunSequential[int64](sp.Dense(), op, full)); err != nil {
		return nil, err
	}
	return in, nil
}

const mulModulus = 1000003

func newGeneral(sys *ir.System, init []int64) *generalInput {
	op := intOp("mul-mod", mulModulus)
	in := &generalInput{op: op, sys: sys, init: init}
	in.req = server.GeneralRequest{System: ir.WireFromSystem(sys), Op: "mul-mod", Mod: mulModulus, Init: rawInts(init)}
	in.fp = ir.PlanFingerprint(ir.FamilyGeneral, sys.N, sys.M, sys.G, sys.F, sys.H, generalExponentBits)
	in.want = core.RunSequential[int64](sys, op, init)
	return in
}

// newLinear builds a chain X[i+1] := a[i]·X[i] + b[i] over n+1 cells. The
// oracle is the facade's own solve; the loop must agree within 1e-9
// relative to max(|loop|, 1).
func newLinear(rng *rand.Rand, n int, h *inputHash) (*linearInput, error) {
	m := n + 1
	g, f := make([]int, n), make([]int, n)
	a, b := make([]float64, n), make([]float64, n)
	for i := range g {
		g[i], f[i] = i+1, i
		a[i] = (0.5 + 0.5*rng.Float64()) * float64(1-2*rng.Intn(2))
		b[i] = 2*rng.Float64() - 1
	}
	x0 := make([]float64, m)
	for i := range x0 {
		x0[i] = 2*rng.Float64() - 1
	}
	h.f64s(a)
	h.f64s(b)
	h.f64s(x0)
	want, err := ir.SolveLinearCtx(bg, m, g, f, a, b, x0, ir.SolveOptions{Procs: procs})
	if err != nil {
		return nil, err
	}
	ms := moebius.NewLinear(m, g, f, a, b)
	loop := ms.RunSequential(x0)
	for i := range loop {
		if d := math.Abs(want[i] - loop[i]); d > 1e-9*max(math.Abs(loop[i]), 1) {
			return nil, fmt.Errorf("linear solve cell %d = %v is %g from the loop's %v", i, want[i], d, loop[i])
		}
	}
	return &linearInput{
		req:  server.LinearRequest{M: m, G: g, F: f, A: a, B: b, X0: x0},
		ms:   ms,
		want: want,
		fp:   ir.PlanFingerprint(ir.FamilyMoebius, n, m, g, f, nil, 0),
	}, nil
}

func randomDNA(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[rng.Intn(4)]
	}
	return string(b)
}

// newGrid builds an edit-distance grid of two random strings with its
// row-major oracle answer.
func newGrid(rng *rand.Rand, side int, h *inputHash) (*ir.Grid2DSystem, []float64, error) {
	gs := workload.EditDistance(randomDNA(rng, side), randomDNA(rng, side))
	h.grid(gs)
	res, err := grid2d.SolveSequential(engineGrid(gs))
	if err != nil {
		return nil, nil, err
	}
	return gs, res.Values, nil
}

// genServed generates a served workload's traffic from rng.
func genServed(name string, rng *rand.Rand, sz sizes, seconds float64, h *inputHash) (*servedSet, error) {
	switch name {
	case "served-ordinary-131k":
		sys := workload.RandomOrdinary(rng, sz.ordinaryN, sz.ordinaryN)
		h.system(sys)
		var ins []servedInput
		for k := 0; k < sz.variants; k++ {
			init := workload.InitInt64(rng, sys.M, 1_000_000)
			h.i64s(init)
			in, err := newOrdinary(sys, nil, init)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
		return &servedSet{
			warm:  func(int) []servedInput { return ins[:1] },
			next:  func(c, i int) servedInput { return ins[(c+i)%len(ins)] },
			layer: cycle(ins, layerSamples),
		}, nil

	case "served-small-mix":
		kinds, err := genMix(rng, sz, h)
		if err != nil {
			return nil, err
		}
		var warm []servedInput
		set := &servedSet{
			warm: func(int) []servedInput { return warm },
			next: func(c, i int) servedInput {
				k := kinds[(c+i)%len(kinds)]
				return k[(i/len(kinds))%len(k)]
			},
		}
		for _, k := range kinds {
			warm = append(warm, k[0])
			set.layer = append(set.layer, cycle(k, layerSamples)...)
		}
		return set, nil

	case "served-general-churn":
		// The pool holds enough structures that it never wraps within the
		// run; a run that would exhaust it ends its window early instead.
		pool := make([]servedInput, max(layerSamples, int(math.Ceil(seconds))*sz.churnPerSecond)+1)
		for k := range pool {
			sys := workload.Scatter(rng, sz.churnN, sz.churnBuckets)
			init := workload.InitInt64(rng, sys.M, mulModulus)
			h.system(sys)
			h.i64s(init)
			pool[k] = newGeneral(sys, init)
		}
		warm, pool := pool[0], pool[1:]
		return &servedSet{
			warm: func(int) []servedInput { return []servedInput{warm} },
			next: func(c, i int) servedInput {
				if k := i / churnHold; k < len(pool) {
					return pool[k]
				}
				return nil
			},
			layer: pool[:layerSamples],
		}, nil

	case "served-session-append":
		streams := make([]*sessionStream, sz.sessionStreams)
		for k := range streams {
			streams[k] = genStream(rng, sz.sessionM, sz.sessionBatch, h)
		}
		// Two client slots: the load never exceeds two clients.
		states := []*sessionState{{}, {}}
		per := streams[0].appends()
		var local *session.Session
		set := &servedSet{
			next: func(c, i int) servedInput {
				s, j := i/per, i%per
				return streams[(c+2*s)%len(streams)].append(states[c], j)
			},
		}
		// Warm-up opens a session, appends one batch and closes it; each
		// client gets its own session state.
		set.warm = func(int) []servedInput {
			in := streams[0].append(&sessionState{}, 0)
			in.last = true
			return []servedInput{in}
		}
		for j := 0; j < layerSamples; j++ {
			in := streams[0].append(nil, j)
			in.local = &local
			set.layer = append(set.layer, in)
		}
		return set, nil
	}
	return nil, fmt.Errorf("unknown served workload %q", name)
}

// genMix generates served-small-mix's five request kinds, each one hot
// structure with several data variants.
func genMix(rng *rand.Rand, sz sizes, h *inputHash) ([][]servedInput, error) {
	kinds := make([][]servedInput, 5)
	dense := workload.RandomOrdinary(rng, sz.mixN, sz.mixN)
	sparse := workload.SparseBanded(sz.mixSparseM, sz.mixN, sz.mixSparseBands)
	scatter := workload.Scatter(rng, sz.mixN, sz.mixBuckets)
	h.system(dense)
	h.word(uint64(sparse.M))
	h.ints(sparse.Cells)
	h.system(sparse.Compact)
	h.system(scatter)
	for v := 0; v < sz.variants; v++ {
		lin, err := newLinear(rng, sz.mixN, h)
		if err != nil {
			return nil, err
		}
		init := workload.InitInt64(rng, dense.M, 1_000_000)
		h.i64s(init)
		ord, err := newOrdinary(dense, nil, init)
		if err != nil {
			return nil, err
		}
		init = workload.InitInt64(rng, sparse.NumCells(), 1_000_000)
		h.i64s(init)
		sp, err := newOrdinary(nil, sparse, init)
		if err != nil {
			return nil, err
		}
		init = workload.InitInt64(rng, scatter.M, mulModulus)
		h.i64s(init)
		gen := newGeneral(scatter, init)
		gs, want, err := newGrid(rng, sz.mixGridSide, h)
		if err != nil {
			return nil, err
		}
		fp, err := ir.Grid2DFingerprint(gs)
		if err != nil {
			return nil, err
		}
		grid := &gridInput{req: server.Grid2DRequest{System: *gs}, want: want, fp: fp}
		for k, in := range []servedInput{lin, ord, sp, gen, grid} {
			kinds[k] = append(kinds[k], in)
		}
	}
	return kinds, nil
}

// genStream draws one session append stream and its loop answer.
func genStream(rng *rand.Rand, m, batch int, h *inputHash) *sessionStream {
	n := m - 1
	s := &sessionStream{m: m, batch: batch, x0: make([]float64, m), a: make([]float64, n), b: make([]float64, n)}
	for i := range s.x0 {
		s.x0[i] = 2*rng.Float64() - 1
	}
	g, f := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		g[i], f[i] = i+1, i
		s.a[i] = (0.5 + 0.5*rng.Float64()) * float64(1-2*rng.Intn(2))
		s.b[i] = 2*rng.Float64() - 1
	}
	h.f64s(s.x0)
	h.f64s(s.a)
	h.f64s(s.b)
	s.want = moebius.NewLinear(m, g, f, s.a, s.b).RunSequential(s.x0)
	s.local = make([]int, batch+1)
	for i := range s.local {
		s.local[i] = i
	}
	s.zero, s.one = make([]float64, batch), make([]float64, batch)
	for i := range s.one {
		s.one[i] = 1
	}
	return s
}

// cycle returns n inputs taken round-robin from ins.
func cycle(ins []servedInput, n int) []servedInput {
	out := make([]servedInput, n)
	for i := range out {
		out[i] = ins[i%len(ins)]
	}
	return out
}
