package server_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// TestCanonicalBodiesTakeOnePass: every body the typed client emits, and
// every response irserved writes without power traces, decodes through the
// one-pass walk. A fallback to encoding/json would still give the right
// answer, so only this count shows the speed-up is there.
func TestCanonicalBodiesTakeOnePass(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	c := client.New(ts.URL)
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
