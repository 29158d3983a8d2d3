package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// jsonOnly is a transport that turns the typed client back into a JSON
// client: it re-encodes a packed request body as JSON, counting them, and
// drops the Accept header, so irserved answers JSON.
type jsonOnly struct{ repacked *int }

func (j jsonOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Del("Accept")
	if r.Body != nil {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		if r.Header.Get("Content-Type") == server.PackedType {
			if b, err = server.PackedToJSON(b); err != nil {
				return nil, err
			}
			r.Header.Set("Content-Type", "application/json")
			*j.repacked++
		}
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCanonicalBodiesTakeOnePass: every body the typed client emits on the
// solve, session and shard routes, and every response irserved writes there
// without power traces, decodes through the one-pass walk when it travels
// as JSON, and through the packed decoder as the client sends it. A
// fallback to encoding/json would still give the right answer, so only
// this count shows the speed-up is there.
func TestCanonicalBodiesTakeOnePass(t *testing.T) {
	t.Run("json", func(t *testing.T) {
		var repacked int
		checkOnePass(t, jsonOnly{&repacked})
		if repacked == 0 {
			t.Fatal("no request body travelled as JSON")
		}
	})
	t.Run("packed", func(t *testing.T) { checkOnePass(t, nil) })
}

// checkOnePass sends every body through a typed client over transport (nil
// for the default one) and counts the decodes that fell back.
func checkOnePass(t *testing.T, transport http.RoundTripper) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	c := client.New(ts.URL)
	if transport != nil {
		c.HTTP = &http.Client{Transport: transport}
	}
	ctx := context.Background()

	const n = 64
	dense := ir.SystemWire{M: n + 1, N: n}
	scatter := ir.SystemWire{M: 8}
	for i := range n {
		dense.G = append(dense.G, i+1)
		dense.F = append(dense.F, i)
		scatter.G = append(scatter.G, i%8)
		scatter.F = append(scatter.F, (i+3)%8)
		scatter.H = append(scatter.H, (i+5)%8)
	}
	scatter.N = n
	// Touched cells 10, 20, ..., 90 of a 1000-cell array: a chain over
	// compact ids 0..8.
	sparse := ir.SystemWire{M: 1000, N: 8}
	for i := range 9 {
		sparse.Cells = append(sparse.Cells, 10*(i+1))
	}
	for i := range 8 {
		sparse.G = append(sparse.G, i+1)
		sparse.F = append(sparse.F, i)
	}
	ints := func(m int) json.RawMessage {
		v := make([]int64, m)
		for i := range v {
			v[i] = int64(i*7919%1000) - 500
		}
		b, _ := json.Marshal(v)
		return b
	}
	floats := func(m int) json.RawMessage {
		v := make([]float64, m)
		for i := range v {
			v[i] = float64(i)/3 - 2.5e-7
		}
		b, _ := json.Marshal(v)
		return b
	}
	opts := ir.OptionsWire{Procs: 2, TimeoutMs: 5000}

	ordinary := []server.OrdinaryRequest{
		{System: dense, Op: "int64-add", Init: ints(n + 1)},
		{System: dense, Op: "float64-add", Init: floats(n + 1), Opts: opts},
		{System: sparse, Op: "int64-max", Init: ints(9)},
		{System: sparse, Op: "float64-mul", Init: floats(9), Opts: opts},
	}
	general := []server.GeneralRequest{
		{System: scatter, Op: "mul-mod", Mod: 1_000_003, Init: ints(8)},
		{System: scatter, Op: "float64-add", Init: floats(8), Opts: ir.OptionsWire{MaxExponentBits: 64}},
		{System: sparse, Op: "add-mod", Mod: 97, Init: ints(9), Opts: opts},
	}
	before := server.OnePassFallbacks()
	for _, req := range ordinary {
		if _, err := c.SolveOrdinary(ctx, req); err != nil {
			t.Fatalf("%s over %+v: %v", req.Op, req.System, err)
		}
	}
	for _, req := range general {
		if _, err := c.SolveGeneral(ctx, req); err != nil {
			t.Fatalf("%s over %+v: %v", req.Op, req.System, err)
		}
	}
	if d := server.OnePassFallbacks() - before; d != 0 {
		t.Fatalf("%d of %d request and response decodes fell back to encoding/json", d, 2*(len(ordinary)+len(general)))
	}

	// The float routes: linear, extended linear, Möbius, grid2d, a session
	// open, append and snapshot, and a shard of each family. Coefficients
	// and x0 mix literals that take the exact float path and ones that do
	// not.
	coeffs := func(k int, scale float64) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = scale * (float64(i%7) - 2.5) / 3
		}
		return v
	}
	x0 := coeffs(n+1, 1e-3)
	lin := server.LinearRequest{M: n + 1, G: dense.G, F: dense.F, A: coeffs(n, 0.1), B: coeffs(n, 1), X0: x0, Opts: opts}
	ext := lin
	ext.Extended = true
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	grid := ir.Grid2DSystem{Rows: 3, Cols: 4, Semiring: "minplus", A: ones[:12], B: ones[:12], Diag: coeffs(12, 1),
		North: []float64{1, 2, 3, 4}, West: []float64{1, 2, 3}, NorthWest: -0.5}
	before = server.OnePassFallbacks()
	steps := []func() error{
		func() error { _, err := c.SolveLinear(ctx, lin); return err },
		func() error { _, err := c.SolveLinear(ctx, ext); return err },
		func() error {
			_, err := c.SolveMoebius(ctx, server.MoebiusRequest{M: n + 1, G: dense.G, F: dense.F,
				A: lin.A, B: lin.B, C: coeffs(n, 1e-4), D: ones, X0: x0})
			return err
		},
		func() error { _, err := c.SolveGrid2D(ctx, server.Grid2DRequest{System: grid, Opts: opts}); return err },
		func() error {
			open, err := c.OpenSession(ctx, server.SessionOpenRequest{Family: "linear", M: n + 1, X0: x0, Opts: opts})
			if err != nil {
				return err
			}
			if _, err := c.Append(ctx, open.ID, server.SessionAppendRequest{G: dense.G[:8], F: dense.F[:8],
				A: lin.A[:8], B: lin.B[:8]}); err != nil {
				return err
			}
			_, err = c.GetSession(ctx, open.ID)
			return err
		},
		func() error {
			_, err := c.SolveShard(ctx, server.ShardRequest{Family: "ordinary", System: dense,
				Shard: server.ShardWire{Lo: 0, Hi: 1}, Op: "int64-add", Init: ints(n + 1)})
			return err
		},
		func() error {
			_, err := c.SolveShard(ctx, server.ShardRequest{Family: "moebius", System: ir.SystemWire{M: n + 1, G: dense.G, F: dense.F},
				Shard: server.ShardWire{Lo: 0, Hi: n + 1}, A: lin.A, B: lin.B, X0: x0})
			return err
		},
		func() error {
			_, err := c.SolveShard(ctx, server.ShardRequest{Family: "grid2d", Shard: server.ShardWire{Lo: 0, Hi: 3}, Grid: &grid})
			return err
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("float route %d: %v", i, err)
		}
	}
	if d := server.OnePassFallbacks() - before; d != 0 {
		t.Fatalf("float routes: %d request and response decodes fell back to encoding/json", d)
	}

	// A with_powers request still takes the walk; only its response, whose
	// power traces stay with encoding/json, falls back.
	before = server.OnePassFallbacks()
	withPowers := general[0]
	withPowers.WithPowers = true
	resp, err := c.SolveGeneral(ctx, withPowers)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Powers) != scatter.M {
		t.Fatalf("%d power traces, want %d", len(resp.Powers), scatter.M)
	}
	if d := server.OnePassFallbacks() - before; d != 1 {
		t.Fatalf("with_powers round trip: %d fallbacks, want 1 (the response)", d)
	}
}

// FuzzDecodeInitFloat holds the one-pass float init decode to its
// reference, json.Unmarshal into a []float64 plus the finiteness check:
// the same values bit for bit (nil included) or the same error text.
func FuzzDecodeInitFloat(f *testing.F) {
	for _, s := range []string{
		`[1.5,2,-0,1e-7,5e-324,1.7976931348623157e308]`, `[ 1 , 2e3 ]`, `[]`, `null`, ``,
		`[1,null]`, `[1e999]`, `["1"]`, `[1,]`, `[01]`, `[1.]`, `{"a":1}`, `[9007199254740993]`, `[1] x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := server.DecodeInitFloat(raw)
		want, wantErr := func() ([]float64, error) {
			if len(raw) == 0 {
				return nil, fmt.Errorf("missing \"init\"")
			}
			var out []float64
			if err := json.Unmarshal(raw, &out); err != nil {
				return nil, fmt.Errorf("bad \"init\": %v", err)
			}
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("init[%d] = %v is not finite", i, v)
				}
			}
			return out, nil
		}()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: err %v, json.Unmarshal %v", raw, err, wantErr)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%q: %v, json.Unmarshal %v", raw, got, want)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: [%d] = %v, json.Unmarshal %v", raw, i, got[i], want[i])
			}
		}
	})
}
