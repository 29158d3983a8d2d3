package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/ir"
)

func startService(t *testing.T, cfg server.Config) (*server.Server, *Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, New(ts.URL)
}

// TestClientEndToEnd drives every typed client method against an in-process
// service: ≥32 concurrent linear solves on one structure that must all
// answer correctly and replay one cached plan, plus one call per remaining
// endpoint.
func TestClientEndToEnd(t *testing.T) {
	const workers = 2
	_, c := startService(t, server.Config{Workers: workers, QueueDepth: 128})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if ready, err := c.Readyz(ctx); err != nil || !ready {
		t.Fatalf("Readyz = %v, %v", ready, err)
	}

	// 40 concurrent linear chains X[i] := 2*X[i-1] over x0[0] = 1, all on
	// one structure.
	const reqs, n = 40, 8
	var wg sync.WaitGroup
	errCh := make(chan error, reqs)
	for k := 0; k < reqs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := server.LinearRequest{M: n + 1, X0: make([]float64, n+1)}
			req.X0[0] = 1
			for i := 0; i < n; i++ {
				req.G = append(req.G, i+1)
				req.F = append(req.F, i)
				req.A = append(req.A, 2)
				req.B = append(req.B, 0)
			}
			out, err := c.SolveLinear(ctx, req)
			if err != nil {
				errCh <- fmt.Errorf("request %d: %v", k, err)
				return
			}
			want := 1.0
			for i := 0; i <= n; i++ {
				if out.Values[i] != want {
					errCh <- fmt.Errorf("request %d: X[%d] = %v, want %v", k, i, out.Values[i], want)
					return
				}
				want *= 2
			}
			if out.BatchSize != 1 {
				errCh <- fmt.Errorf("request %d: batch_size = %d, want 1", k, out.BatchSize)
			}
		}(k)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Concurrent misses compile at most once per worker; every other
	// request replays the cached plan.
	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	hits := -1
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, "irserved_plan_cache_hits_total "); ok {
			if hits, err = strconv.Atoi(v); err != nil {
				t.Fatalf("plan-cache hits sample %q: %v", line, err)
			}
		}
	}
	if hits < reqs-workers {
		t.Errorf("plan-cache hits = %d, want >= %d (requests - workers)", hits, reqs-workers)
	}

	// Ordinary via wire system types.
	sys := ir.FromFuncs(8, 9, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	ord, err := c.SolveOrdinary(ctx, server.OrdinaryRequest{
		System: ir.WireFromSystem(sys),
		Op:     "int64-add",
		Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1]`),
	})
	if err != nil {
		t.Fatalf("SolveOrdinary: %v", err)
	}
	for i, v := range ord.ValuesInt {
		if v != int64(i+1) {
			t.Fatalf("ordinary ValuesInt = %v", ord.ValuesInt)
		}
	}

	// General: repeated squaring mod p.
	gsys := ir.FromFuncs(3, 1, func(i int) int { return 0 }, func(i int) int { return 0 },
		func(i int) int { return 0 })
	gen, err := c.SolveGeneral(ctx, server.GeneralRequest{
		System: ir.WireFromSystem(gsys),
		Op:     "mul-mod",
		Mod:    1000003,
		Init:   json.RawMessage(`[2]`),
	})
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	if gen.ValuesInt[0] != 256 {
		t.Fatalf("general value = %v, want 256", gen.ValuesInt)
	}

	// Möbius continued fraction.
	mreq := server.MoebiusRequest{M: 4, X0: []float64{1, 0, 0, 0}}
	for i := 0; i < 3; i++ {
		mreq.G = append(mreq.G, i+1)
		mreq.F = append(mreq.F, i)
		mreq.A = append(mreq.A, 0)
		mreq.B = append(mreq.B, 1)
		mreq.C = append(mreq.C, 1)
		mreq.D = append(mreq.D, 1)
	}
	mo, err := c.SolveMoebius(ctx, mreq)
	if err != nil {
		t.Fatalf("SolveMoebius: %v", err)
	}
	if diff := mo.Values[3] - 0.6; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("moebius x[3] = %v, want 0.6", mo.Values[3])
	}

	// Loop source round trip.
	lo, err := c.SolveLoop(ctx, server.LoopRequest{
		Loop:   "for i = 1 to n do X[i] := X[i-1] + X[i]",
		N:      4,
		Arrays: map[string][]float64{"X": {1, 1, 1, 1, 1}},
	})
	if err != nil {
		t.Fatalf("SolveLoop: %v", err)
	}
	if lo.Arrays["X"][4] != 5 {
		t.Fatalf("loop X = %v", lo.Arrays["X"])
	}
	if !strings.Contains(lo.Strategy, "Moebius") && !strings.Contains(lo.Strategy, "GIR") &&
		!strings.Contains(lo.Strategy, "Ordinary") {
		t.Errorf("strategy = %q", lo.Strategy)
	}

	// Metrics text is fetchable and mentions the traffic we created.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if !strings.Contains(text, `irserved_requests_total{code="200",endpoint="linear"}`) {
		t.Errorf("metrics missing linear counter:\n%s", text)
	}
}

// TestClientAPIError asserts typed errors surface status, message and the
// shed/backoff hint.
func TestClientAPIError(t *testing.T) {
	_, c := startService(t, server.Config{})
	ctx := context.Background()
	_, err := c.SolveLinear(ctx, server.LinearRequest{M: 2, G: []int{5}, F: []int{0},
		A: []float64{1}, B: []float64{1}, X0: []float64{1, 0}})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != 400 || ae.Message == "" {
		t.Errorf("APIError = %+v", ae)
	}
	if ae.IsShed() {
		t.Error("400 must not read as shed")
	}
	if (&APIError{Status: 429}).IsShed() != true || (&APIError{Status: 503}).IsShed() != true {
		t.Error("429/503 must read as shed")
	}
}

// TestClientSpeaksPacked: the typed client sends a wire type packed and
// gets a packed answer, while a loop request (no packed form) and a curl
// body without an Accept header stay JSON both ways. Both clients read the
// same values.
func TestClientSpeaksPacked(t *testing.T) {
	s := server.New(server.Config{})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	type exchange struct{ reqType, respType string }
	var mu sync.Mutex
	var seen []exchange
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		mu.Lock()
		seen = append(seen, exchange{r.Header.Get("Content-Type"), rec.Header().Get("Content-Type")})
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()
	req := server.OrdinaryRequest{
		System: ir.SystemWire{M: 4, N: 3, G: []int{1, 2, 3}, F: []int{0, 1, 2}},
		Op:     "int64-add", Init: json.RawMessage(`[1,2,3,4]`),
	}
	packed, err := c.SolveOrdinary(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveLoop(ctx, server.LoopRequest{Loop: "for i = 1 to n do X[i] := X[i-1] + X[i]", N: 1,
		Arrays: map[string][]float64{"X": {1, 1}}}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+server.APIPrefix+"ordinary", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var plain server.OrdinaryResponse
	if err := json.Unmarshal(data, &plain); err != nil {
		t.Fatalf("curl answer %q: %v", data, err)
	}
	want := []exchange{{server.PackedType, server.PackedType}, {"application/json", "application/json"},
		{"application/json", "application/json"}}
	if !slices.Equal(seen, want) {
		t.Errorf("content types %v, want %v", seen, want)
	}
	if !slices.Equal(packed.ValuesInt, []int64{1, 3, 6, 10}) || !slices.Equal(plain.ValuesInt, packed.ValuesInt) {
		t.Errorf("packed %v, JSON %v, want [1 3 6 10]", packed.ValuesInt, plain.ValuesInt)
	}
}
