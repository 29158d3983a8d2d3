package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"indexedrec/internal/server"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// postFront posts a JSON body to the coordinator front-end and returns the
// status plus raw response.
func postFront(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// sparseClusterReq builds a sparse ordinary request over a banded system
// scattered across a global array of m cells, far beyond the dense limit.
func sparseClusterReq(t *testing.T, m, n, bands int) (*ir.SparseSystem, server.OrdinaryRequest, []int64) {
	t.Helper()
	sp := workload.SparseBanded(m, n, bands)
	init := make([]int64, sp.NumCells())
	for i := range init {
		init[i] = int64(i%97) + 1
	}
	blob, err := json.Marshal(init)
	if err != nil {
		t.Fatal(err)
	}
	return sp, server.OrdinaryRequest{
		System: ir.WireFromSparse(sp),
		Op:     "int64-add",
		Init:   blob,
	}, init
}

// TestClusterSparseScatter drives a sparse solve through the coordinator
// front-end over a live fleet: the global array (50M cells) is over 10x the
// coordinator's dense limit, so only the compact encoding can carry it, and
// the scattered answer must match the local compact solve bit-for-bit.
func TestClusterSparseScatter(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, _, down := newFleet(t, 2, nil)
		front := httptest.NewServer(co.Handler())
		defer front.Close()

		sp, req, init := sparseClusterReq(t, 50_000_000, 2048, 8)
		want, err := ir.SolveSparseOrdinaryCtx[int64](context.Background(), sp, ir.IntAdd{}, init, ir.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}

		code, data := postFront(t, front.URL+server.APIPrefix+"ordinary", req)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, data)
		}
		var out server.OrdinaryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.ValuesInt) != sp.NumCells() || len(out.Cells) != sp.NumCells() {
			t.Fatalf("got %d values over %d cells, want %d", len(out.ValuesInt), len(out.Cells), sp.NumCells())
		}
		for i := range want.Values {
			if out.ValuesInt[i] != want.Values[i] || out.Cells[i] != sp.Cells[i] {
				t.Fatalf("compact id %d: value %d cell %d, want %d at %d",
					i, out.ValuesInt[i], out.Cells[i], want.Values[i], sp.Cells[i])
			}
		}
		if co.metrics.shards.Value() == 0 {
			t.Fatal("sparse solve never scattered")
		}
		if co.metrics.fallbacks.Value() != 0 {
			t.Fatalf("%d local fallbacks in a healthy fleet", co.metrics.fallbacks.Value())
		}
		down()
	}()
	leak()
}

// TestClusterSparseNoWorkersFallback asserts a coordinator with an empty
// fleet still answers sparse solves by degrading to a local compact solve.
func TestClusterSparseNoWorkersFallback(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, _, down := newFleet(t, 0, nil)
		front := httptest.NewServer(co.Handler())
		defer front.Close()

		sp, req, init := sparseClusterReq(t, 10_000_000, 512, 4)
		want, err := ir.SolveSparseOrdinaryCtx[int64](context.Background(), sp, ir.IntAdd{}, init, ir.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		code, data := postFront(t, front.URL+server.APIPrefix+"ordinary", req)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, data)
		}
		var out server.OrdinaryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		for i := range want.Values {
			if out.ValuesInt[i] != want.Values[i] {
				t.Fatalf("compact id %d: %d, want %d", i, out.ValuesInt[i], want.Values[i])
			}
		}
		if co.metrics.fallbacks.Value() == 0 {
			t.Fatal("empty fleet produced no local fallback")
		}
		down()
	}()
	leak()
}

// TestClusterSparseErrors posts malformed sparse encodings to the
// coordinator and asserts the same 422 typed-error contract as irserved.
func TestClusterSparseErrors(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, _, down := newFleet(t, 1, nil)
		front := httptest.NewServer(co.Handler())
		defer front.Close()
		_ = co

		_, good, _ := sparseClusterReq(t, 1_000_000, 64, 2)

		unsorted := good
		unsorted.System.Cells = append([]int(nil), good.System.Cells...)
		unsorted.System.Cells[0], unsorted.System.Cells[1] = unsorted.System.Cells[1], unsorted.System.Cells[0]

		outOfRange := good
		outOfRange.System.Cells = append([]int(nil), good.System.Cells...)
		outOfRange.System.Cells[len(outOfRange.System.Cells)-1] = good.System.M

		shortInit := good
		shortInit.Init = json.RawMessage(`[1, 2, 3]`)

		for name, req := range map[string]server.OrdinaryRequest{
			"unsorted cells": unsorted, "cell out of range": outOfRange, "init length mismatch": shortInit,
		} {
			code, data := postFront(t, front.URL+server.APIPrefix+"ordinary", req)
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: HTTP %d: %s, want 422", name, code, data)
			}
			var e server.ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: error body %s not the typed 422 schema", name, data)
			}
		}
		down()
	}()
	leak()
}
