package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"indexedrec/ir"
)

// sparseChain builds a sparse ordinary chain of n iterations strided over a
// global array of m cells, plus its compact init [1, 1, ...].
func sparseChain(t *testing.T, n, stride, m int) (*ir.SparseSystem, []int64) {
	t.Helper()
	g := make([]int, n)
	f := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = stride * (i + 1)
		f[i] = stride * i
	}
	sp, err := ir.NewSparseSystem(m, g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int64, sp.NumCells())
	for i := range init {
		init[i] = 1
	}
	return sp, init
}

func rawInts(t *testing.T, init []int64) json.RawMessage {
	t.Helper()
	blob, err := json.Marshal(init)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSparseOrdinaryEndpoint solves a sparse-encoded system over HTTP and
// checks the compact values and cell echo against the in-process solver,
// then repeats the request and asserts the compiled sparse plan was reused
// from the cache (keyed by the sparse fingerprint).
func TestSparseOrdinaryEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	sp, init := sparseChain(t, 400, 997, 1_000_000)
	want, err := ir.SolveSparseOrdinaryCtx[int64](context.Background(), sp, ir.IntAdd{}, init, ir.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	req := OrdinaryRequest{System: ir.WireFromSparse(sp), Op: "int64-add", Init: rawInts(t, init)}
	var out OrdinaryResponse
	for pass := 0; pass < 2; pass++ {
		resp, data := post(t, ts.URL+APIPrefix+"ordinary", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
		}
		out = OrdinaryResponse{}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.ValuesInt) != sp.NumCells() || len(out.Cells) != sp.NumCells() {
			t.Fatalf("pass %d: got %d values over %d cells, want %d", pass, len(out.ValuesInt), len(out.Cells), sp.NumCells())
		}
		for i, v := range out.ValuesInt {
			if v != want.Values[i] || out.Cells[i] != sp.Cells[i] {
				t.Fatalf("pass %d: compact id %d: value %d cell %d, want %d at %d",
					pass, i, v, out.Cells[i], want.Values[i], sp.Cells[i])
			}
		}
	}
	if hits := s.metrics.planHits.Value(); hits < 1 {
		t.Fatalf("plan cache hits = %d after identical sparse re-solve", hits)
	}
	if got := s.metrics.sparseSolves.Value("sparse"); got != 2 {
		t.Fatalf(`sparse_solves_total{mode="sparse"} = %d, want 2`, got)
	}
}

// TestSparseOrdinaryFloatEndpoint covers the float operator arm of the
// sparse path.
func TestSparseOrdinaryFloatEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	sp, _ := sparseChain(t, 16, 1000, 50_000)
	init := make([]float64, sp.NumCells())
	for i := range init {
		init[i] = 0.5
	}
	blob, _ := json.Marshal(init)
	req := OrdinaryRequest{System: ir.WireFromSparse(sp), Op: "float64-add", Init: blob}
	resp, data := post(t, ts.URL+APIPrefix+"ordinary", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out OrdinaryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	// The chain sums 0.5 down 16 links: the last touched cell holds 8.5.
	last := out.ValuesFloat[len(out.ValuesFloat)-1]
	if last != 8.5 {
		t.Fatalf("chain tail = %v, want 8.5", last)
	}
}

// TestSparseGeneralEndpoint solves a sparse general (H != G) system with
// power traces and checks the cell echo plus global power-trace cell ids.
func TestSparseGeneralEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	n, stride := 10, 2000
	g := make([]int, n)
	f := make([]int, n)
	h := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = stride * (i + 2)
		f[i] = stride * (i + 1)
		h[i] = stride * i
	}
	sp, err := ir.NewSparseSystem(stride*(n+2)+1, g, f, h)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int64, sp.NumCells())
	for i := range init {
		init[i] = 2
	}
	want, err := ir.SolveSparseGeneralCtx[int64](context.Background(), sp, ir.MulMod{M: 1_000_003}, init, ir.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	req := GeneralRequest{
		System: ir.WireFromSparse(sp), Op: "mul-mod", Mod: 1_000_003,
		Init: rawInts(t, init), WithPowers: true,
	}
	resp, data := post(t, ts.URL+APIPrefix+"general", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out GeneralResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.ValuesInt) != sp.NumCells() || len(out.Cells) != sp.NumCells() {
		t.Fatalf("got %d values over %d cells, want %d", len(out.ValuesInt), len(out.Cells), sp.NumCells())
	}
	for i, v := range out.ValuesInt {
		if v != want.Values[i] {
			t.Fatalf("compact id %d: %d, want %d", i, v, want.Values[i])
		}
	}
	if len(out.Powers) == 0 {
		t.Fatal("with_powers returned no traces")
	}
	for _, terms := range out.Powers {
		for _, term := range terms {
			if term.Cell%stride != 0 {
				t.Fatalf("power trace names cell %d: not a global touched cell", term.Cell)
			}
		}
	}
}

// TestSparseErrorPaths posts malformed sparse encodings and asserts each is
// refused with 422 and a typed JSON error naming the sparse validation.
func TestSparseErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	sp, init := sparseChain(t, 8, 100, 2_000)
	good := ir.WireFromSparse(sp)

	mutate := func(fn func(w *ir.SystemWire)) ir.SystemWire {
		w := good
		w.Cells = append([]int(nil), good.Cells...)
		w.G = append([]int(nil), good.G...)
		fn(&w)
		return w
	}
	cases := []struct {
		name string
		req  OrdinaryRequest
	}{
		{"unsorted cells", OrdinaryRequest{
			System: mutate(func(w *ir.SystemWire) { w.Cells[0], w.Cells[1] = w.Cells[1], w.Cells[0] }),
			Op:     "int64-add", Init: rawInts(t, init)}},
		{"duplicate cells", OrdinaryRequest{
			System: mutate(func(w *ir.SystemWire) { w.Cells[1] = w.Cells[0] }),
			Op:     "int64-add", Init: rawInts(t, init)}},
		{"cell out of range", OrdinaryRequest{
			System: mutate(func(w *ir.SystemWire) { w.Cells[len(w.Cells)-1] = w.M }),
			Op:     "int64-add", Init: rawInts(t, init)}},
		{"compact id out of range", OrdinaryRequest{
			System: mutate(func(w *ir.SystemWire) { w.G[0] = len(w.Cells) }),
			Op:     "int64-add", Init: rawInts(t, init)}},
		{"init length mismatch", OrdinaryRequest{
			System: good, Op: "int64-add", Init: rawInts(t, init[:len(init)-1])}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+APIPrefix+"ordinary", tc.req)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("HTTP %d: %s, want 422", resp.StatusCode, data)
			}
			var e ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body not JSON: %s", data)
			}
			if e.Code != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "sparse") {
				t.Fatalf("error %+v does not name the sparse validation", e)
			}
		})
	}
}

// TestSparseShardEndpoint partitions a sparse plan and executes each shard
// over the /v1/shard/solve endpoint, then checks the shards tile the
// compact value set of a whole solve.
func TestSparseShardEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	ctx := context.Background()
	sp, init := sparseChain(t, 300, 500, 2_000_000)
	p, err := ir.CompileSparseCtx(ctx, sp, ir.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := p.SolveCtx(ctx, ir.PlanData{Op: "int64-add", InitInt: init})
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[int]int64)
	for _, sh := range p.Partition(3) {
		req := ShardRequest{
			Family: "ordinary",
			System: ir.WireFromSparse(sp),
			Shard:  ShardWire{Lo: sh.Lo, Hi: sh.Hi},
			Op:     "int64-add",
			Init:   rawInts(t, init),
		}
		resp, data := post(t, ts.URL+ShardPrefix+"solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard [%d,%d): HTTP %d: %s", sh.Lo, sh.Hi, resp.StatusCode, data)
		}
		var out ShardResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Cells) != len(out.ValuesInt) {
			t.Fatalf("shard cells/values mismatch: %d vs %d", len(out.Cells), len(out.ValuesInt))
		}
		for i, c := range out.Cells {
			if _, dup := got[c]; dup {
				t.Fatalf("compact cell %d owned by two shards", c)
			}
			got[c] = out.ValuesInt[i]
		}
	}
	// Shards own written cells; init-only cells (the chain seed) stay with
	// the coordinator's init.
	written := make(map[int]bool)
	for _, gi := range sp.Compact.G {
		written[gi] = true
	}
	if len(got) != len(written) {
		t.Fatalf("shards cover %d compact cells, want %d written", len(got), len(written))
	}
	for c, v := range got {
		if v != whole.ValuesInt[c] {
			t.Fatalf("compact cell %d: sharded %d, whole %d", c, v, whole.ValuesInt[c])
		}
	}
}
