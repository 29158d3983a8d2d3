package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// checkGoroutines snapshots the goroutine count and returns an assertion
// that it settles back (exiting workers need a beat to be reaped).
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: started with %d, still %d", base, runtime.NumGoroutine())
	}
}

// post sends a JSON body and returns status, headers and decoded-into-map
// body bytes.
func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// chainLinear builds a length-n linear chain request: X[i] := X[i-1] + 1
// over m = n+1 cells, whose solution is X = [1, 2, ..., n+1].
func chainLinear(n int) LinearRequest {
	g := make([]int, n)
	f := make([]int, n)
	a := make([]float64, n)
	b := make([]float64, n)
	x0 := make([]float64, n+1)
	x0[0] = 1
	for i := 0; i < n; i++ {
		g[i] = i + 1
		f[i] = i
		a[i] = 1
		b[i] = 1
	}
	return LinearRequest{M: n + 1, G: g, F: f, A: a, B: b, X0: x0}
}

// newTestServer starts a server over httptest and returns it plus a
// teardown func (also registered as a cleanup backstop — Shutdown is
// idempotent, so calling it early inside a test body is fine and lets the
// goroutine-leak assertions run after teardown).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	down := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}
	t.Cleanup(down)
	return s, ts, down
}

// TestOverloadSheds saturates a tiny queue and asserts shed requests get
// 429 + Retry-After while every accepted request still succeeds.
func TestOverloadSheds(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		defer down()
		hold := make(chan struct{})
		s.testHook = func() { <-hold }

		sys := OrdinaryRequest{
			System: systemWireChain(16),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]`),
		}
		const reqs = 12
		type result struct {
			code       int
			retryAfter string
			body       []byte
		}
		results := make(chan result, reqs)
		var wg sync.WaitGroup
		for k := 0; k < reqs; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, data := post(t, ts.URL+APIPrefix+"ordinary", sys)
				results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), data}
			}()
		}
		// Give every request time to reach admission, then release the
		// single worker.
		time.Sleep(300 * time.Millisecond)
		close(hold)
		wg.Wait()
		close(results)

		var ok, shed int
		for r := range results {
			switch r.code {
			case http.StatusOK:
				ok++
				var out OrdinaryResponse
				if err := json.Unmarshal(r.body, &out); err != nil {
					t.Fatalf("bad 200 body: %v", err)
				}
				if out.ValuesInt[16] != 17 {
					t.Errorf("accepted request got wrong answer: %v", out.ValuesInt)
				}
			case http.StatusTooManyRequests:
				shed++
				if r.retryAfter == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("unexpected status %d: %s", r.code, r.body)
			}
		}
		if ok == 0 {
			t.Error("no request was accepted")
		}
		if shed == 0 {
			t.Error("no request was shed despite queue depth 1 and a held worker")
		}
		if got := s.metrics.shed.Value("ordinary"); got != int64(shed) {
			t.Errorf("shed metric = %d, want %d", got, shed)
		}
		t.Logf("%d accepted, %d shed", ok, shed)
	}()
	leak()
}

// systemWireChain builds the ordinary chain system A[i+1] = A[i] + A[i+1]
// over m = n+1 cells as wire JSON.
func systemWireChain(n int) (w ir.SystemWire) {
	w.M = n + 1
	w.N = n
	for i := 0; i < n; i++ {
		w.G = append(w.G, i+1)
		w.F = append(w.F, i)
	}
	return w
}

// TestDrain starts a long solve, begins Shutdown, and asserts /readyz flips
// to 503 and new solves are refused while the in-flight solve still
// completes — then everything exits with no leaked goroutines.
func TestDrain(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s := New(Config{Workers: 1, QueueDepth: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		hold := make(chan struct{})
		s.testHook = func() { <-hold }

		// Readiness starts green.
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before drain: HTTP %d", resp.StatusCode)
		}

		inflightDone := make(chan []byte, 1)
		go func() {
			resp, data := post(t, ts.URL+APIPrefix+"linear", chainLinear(8))
			if resp.StatusCode != http.StatusOK {
				inflightDone <- []byte(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, data))
				return
			}
			inflightDone <- nil
		}()
		// Wait until the solve is actually running (held in the hook).
		waitFor(t, time.Second, func() bool { return s.metrics.inflight.Value() >= 1 && s.pool.depth() == 0 })

		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownDone <- s.Shutdown(ctx)
		}()
		// readyz flips to 503 with the solve still in flight.
		waitFor(t, time.Second, func() bool {
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			return resp.StatusCode == http.StatusServiceUnavailable
		})
		// New solves are refused during drain.
		resp2, data := post(t, ts.URL+APIPrefix+"linear", chainLinear(4))
		if resp2.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("solve during drain: HTTP %d (%s), want 503", resp2.StatusCode, data)
		}
		if resp2.Header.Get("Retry-After") == "" {
			t.Error("503 during drain without Retry-After")
		}

		close(hold) // let the in-flight solve finish
		if msg := <-inflightDone; msg != nil {
			t.Errorf("in-flight solve failed during drain: %s", msg)
		}
		if err := <-shutdownDone; err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	leak()
}

// TestShutdownCancelsOnExpiry holds a solve and a session append in the
// worker hook and calls Shutdown with a 50 ms ctx: the expired drain must
// cancel both requests, so each client gets a non-2xx promptly, and
// Shutdown reports the interrupted drain well before either job's own
// deadline.
func TestShutdownCancelsOnExpiry(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{Workers: 2})
		defer down()
		resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{
			Family: "linear",
			M:      4, G: []int{1}, F: []int{0},
			A: []float64{1}, B: []float64{1}, X0: []float64{1, 0, 0, 0},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open: HTTP %d: %s", resp.StatusCode, data)
		}
		var open SessionOpenResponse
		if err := json.Unmarshal(data, &open); err != nil {
			t.Fatal(err)
		}

		held := make(chan struct{}, 2)
		release := make(chan struct{})
		defer close(release)
		s.testHook = func() {
			held <- struct{}{}
			<-release
		}
		codes := make(chan int, 2)
		send := func(url string, body any) {
			payload, _ := json.Marshal(body)
			c := &http.Client{Timeout: 5 * time.Second}
			resp, err := c.Post(url, "application/json", bytes.NewReader(payload))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}
		go send(ts.URL+APIPrefix+"linear", chainLinear(8))
		go send(ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
			G: []int{2}, F: []int{1}, A: []float64{1}, B: []float64{1},
		})
		<-held
		<-held

		start := time.Now()
		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			shutdownDone <- s.Shutdown(ctx)
		}()
		for i := 0; i < 2; i++ {
			switch code := <-codes; {
			case code == 0:
				t.Error("a held request got no answer after the drain expired")
			case code/100 == 2:
				t.Errorf("a held request answered %d after the drain expired, want a non-2xx status", code)
			}
		}
		// The handlers have answered; let the held workers go so the pool
		// can stop.
		release <- struct{}{}
		release <- struct{}{}
		err := <-shutdownDone
		if err == nil || !strings.Contains(err.Error(), "drain interrupted") {
			t.Errorf("Shutdown = %v, want a drain-interrupted error", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Shutdown took %v, want under 1s", d)
		}
	}()
	leak()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestRequestValidation exercises the 4xx paths.
// overflowBody is an ordinary (and general) float solve whose one sum
// overflows to +Inf, which JSON cannot carry.
const overflowBody = `{"system":{"m":2,"n":1,"g":[1],"f":[0]},"op":"float64-add","init":[1e308,1e308]}`

func TestRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name     string
		endpoint string
		body     string
		want     int
	}{
		{"malformed json", "linear", `{"m":`, http.StatusBadRequest},
		{"index out of range", "linear", `{"m":2,"g":[5],"f":[0],"a":[1],"b":[1],"x0":[1,0]}`, http.StatusBadRequest},
		{"duplicate g", "linear", `{"m":3,"g":[1,1],"f":[0,0],"a":[1,1],"b":[1,1],"x0":[1,0,0]}`, http.StatusBadRequest},
		{"nonfinite coefficient", "moebius", `{"m":2,"g":[1],"f":[0],"a":[1e999],"b":[0],"c":[0],"d":[1],"x0":[1,0]}`, http.StatusBadRequest},
		{"x0 length", "linear", `{"m":3,"g":[1],"f":[0],"a":[1],"b":[1],"x0":[1]}`, http.StatusBadRequest},
		{"unknown op", "ordinary", `{"system":{"m":2,"n":1,"g":[1],"f":[0]},"op":"no-such","init":[1,2]}`, http.StatusBadRequest},
		{"mod missing", "ordinary", `{"system":{"m":2,"n":1,"g":[1],"f":[0]},"op":"mul-mod","init":[1,2]}`, http.StatusBadRequest},
		{"float init for int op", "ordinary", `{"system":{"m":2,"n":1,"g":[1],"f":[0]},"op":"int64-add","init":[1.5,2]}`, http.StatusBadRequest},
		{"general on ordinary endpoint", "ordinary", `{"system":{"m":3,"n":1,"g":[1],"f":[0],"h":[2]},"op":"int64-add","init":[1,2,3]}`, http.StatusBadRequest},
		{"loop parse error", "loop", `{"loop":"for i = 1 to"}`, http.StatusBadRequest},
		{"loop missing", "loop", `{}`, http.StatusBadRequest},
		// JSON has no Inf, so a loop result that overflows is refused, not
		// sent as a 200 with an empty body.
		{"loop overflow", "loop", `{"loop":"for i = 0 to 2 do X[i] := 1/0","arrays":{"X":[0,0,0]}}`, http.StatusUnprocessableEntity},
		// The same holds for every float replay, and for a loop's ordinary
		// leaf, which is one.
		{"ordinary overflow", "ordinary", overflowBody, http.StatusUnprocessableEntity},
		{"general overflow", "general", overflowBody, http.StatusUnprocessableEntity},
		{"loop leaf overflow", "loop", `{"loop":"for i = 1 to 1 do X[i] := X[i-1] + X[i]","arrays":{"X":[1e308,1e308]}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+APIPrefix+tc.endpoint, "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("HTTP %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Errorf("error body not an ErrorResponse: %s", data)
			}
		})
	}
}

// TestDivisionByZero: a finite Möbius system whose chain divides by zero is
// a data-dependent failure — 422 — and a concurrent good request still
// gets 200 with the right values.
func TestDivisionByZero(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	// x[1] = (0*x[0] + 1) / (1*x[0] + 0) = 1/x[0] with x0[0] = 0 → 1/0.
	bad := MoebiusRequest{M: 2, G: []int{1}, F: []int{0},
		A: []float64{0}, B: []float64{1}, C: []float64{1}, D: []float64{0},
		X0: []float64{0, 0}}
	var wg sync.WaitGroup
	var badCode, goodCode int
	var goodValues []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, _ := post(t, ts.URL+APIPrefix+"moebius", bad)
		badCode = resp.StatusCode
	}()
	go func() {
		defer wg.Done()
		resp, data := post(t, ts.URL+APIPrefix+"linear", chainLinear(4))
		goodCode = resp.StatusCode
		var out MoebiusResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Errorf("good request: %v (%s)", err, data)
		}
		goodValues = out.Values
	}()
	wg.Wait()
	if badCode != http.StatusUnprocessableEntity {
		t.Errorf("bad request got HTTP %d, want 422", badCode)
	}
	if goodCode != http.StatusOK {
		t.Fatalf("good request got HTTP %d, want 200", goodCode)
	}
	if len(goodValues) != 5 {
		t.Fatalf("good request values = %v, want 5 cells", goodValues)
	}
	for i, v := range goodValues {
		if v != float64(i+1) {
			t.Fatalf("good request values = %v, want [1 2 3 4 5]", goodValues)
		}
	}
}

// TestDeadline asserts a request-level deadline surfaces as 504.
func TestDeadline(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{Workers: 1})
		release := make(chan struct{})
		var once sync.Once
		s.testHook = func() { <-release }
		defer down()
		defer once.Do(func() { close(release) })

		req := OrdinaryRequest{
			System: systemWireChain(4),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1]`),
		}
		req.Opts.TimeoutMs = 30
		resp, data := post(t, ts.URL+APIPrefix+"ordinary", req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("HTTP %d (%s), want 504", resp.StatusCode, data)
		}
		once.Do(func() { close(release) })
	}()
	leak()
}

// TestMetricsEndpoint asserts /metrics serves valid exposition including
// the contract families after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	post(t, ts.URL+APIPrefix+"linear", chainLinear(4))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	text := string(data)
	checkExposition(t, text)
	for _, fam := range []string{
		"irserved_requests_total", "irserved_queue_depth", "irserved_queue_capacity",
		"irserved_shed_total", "irserved_solve_seconds",
		"irserved_ready", "irserved_inflight_requests",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("metrics missing family %s", fam)
		}
	}
	if !strings.Contains(text, `irserved_requests_total{code="200",endpoint="linear"} 1`) {
		t.Errorf("per-endpoint counter missing:\n%s", text)
	}
}

// TestEndpointsEndToEnd runs one request through each solve endpoint and
// checks the answers against the obvious closed forms.
func TestEndpointsEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	t.Run("ordinary", func(t *testing.T) {
		req := OrdinaryRequest{System: systemWireChain(8), Op: "int64-add",
			Init: json.RawMessage(`[1,1,1,1,1,1,1,1,1]`)}
		resp, data := post(t, ts.URL+APIPrefix+"ordinary", req)
		if resp.StatusCode != 200 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out OrdinaryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		// A[i+1] = A[i] + A[i+1] over all-ones: A = [1, 2, ..., 9].
		for i, v := range out.ValuesInt {
			if v != int64(i+1) {
				t.Fatalf("ValuesInt = %v", out.ValuesInt)
			}
		}
		if out.Rounds <= 0 || out.Combines <= 0 {
			t.Errorf("missing stats: %+v", out)
		}
	})

	t.Run("general", func(t *testing.T) {
		// A[0] = A[0]*A[0] repeated 3 times over A[0]=2: 2^(2^3) = 256.
		body := `{"system":{"m":1,"n":3,"g":[0,0,0],"f":[0,0,0],"h":[0,0,0]},` +
			`"op":"mul-mod","mod":1000003,"init":[2],"with_powers":true}`
		resp, err := http.Post(ts.URL+APIPrefix+"general", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out GeneralResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.ValuesInt[0] != 256 {
			t.Errorf("ValuesInt = %v, want [256]", out.ValuesInt)
		}
		if len(out.Powers) == 0 {
			t.Error("with_powers requested but Powers empty")
		}
	})

	t.Run("moebius", func(t *testing.T) {
		// x[i+1] = 1/(1 + x[i]) from x[0] = 1: continued-fraction
		// convergents of the golden ratio reciprocal.
		n := 6
		req := MoebiusRequest{M: n + 1, X0: make([]float64, n+1)}
		req.X0[0] = 1
		for i := 0; i < n; i++ {
			req.G = append(req.G, i+1)
			req.F = append(req.F, i)
			req.A = append(req.A, 0)
			req.B = append(req.B, 1)
			req.C = append(req.C, 1)
			req.D = append(req.D, 1)
		}
		resp, data := post(t, ts.URL+APIPrefix+"moebius", req)
		if resp.StatusCode != 200 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out MoebiusResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		want := 1.0
		for i := 1; i <= n; i++ {
			want = 1 / (1 + want)
			if diff := out.Values[i] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("x[%d] = %v, want %v", i, out.Values[i], want)
			}
		}
		if out.BatchSize != 1 {
			t.Errorf("BatchSize = %d, want 1", out.BatchSize)
		}
	})

	t.Run("extended linear", func(t *testing.T) {
		// X[i] := X[i] + X[i-1] + 0 over ramp x0 — prefix-sum-ish chain.
		n := 4
		req := LinearRequest{M: n + 1, Extended: true, X0: []float64{1, 1, 1, 1, 1}}
		for i := 0; i < n; i++ {
			req.G = append(req.G, i+1)
			req.F = append(req.F, i)
			req.A = append(req.A, 1)
			req.B = append(req.B, 0)
		}
		resp, data := post(t, ts.URL+APIPrefix+"linear", req)
		if resp.StatusCode != 200 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out MoebiusResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		// Sequential: X[i] = X[i] + X[i-1]: X = [1, 2, 3, 4, 5].
		for i, v := range out.Values {
			if v != float64(i+1) {
				t.Fatalf("Values = %v", out.Values)
			}
		}
	})

	t.Run("loop", func(t *testing.T) {
		req := LoopRequest{
			Loop:   "for i = 1 to n do X[i] := X[i-1] + X[i]",
			N:      8,
			Arrays: map[string][]float64{"X": {1, 1, 1, 1, 1, 1, 1, 1, 1}},
		}
		resp, data := post(t, ts.URL+APIPrefix+"loop", req)
		if resp.StatusCode != 200 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out LoopResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out.Arrays["X"] {
			if v != float64(i+1) {
				t.Fatalf("X = %v", out.Arrays["X"])
			}
		}
		if out.Strategy == "" || out.Analysis == "" {
			t.Errorf("missing analysis/strategy: %+v", out)
		}
	})
}

// TestLoopRangeBound posts loops whose range, set by "n" or by literal
// bounds at any level, runs MaxN + 1 iterations: each answers 400 before
// anything is tabulated, while MaxN iterations still solve.
func TestLoopRangeBound(t *testing.T) {
	const maxN = 1024
	_, ts, _ := newTestServer(t, Config{MaxN: maxN})
	for _, tc := range []struct {
		name string
		req  LoopRequest
		want int
	}{
		{"n at the limit", LoopRequest{Loop: "for i = 1 to n do X[i] := X[i-1] + 1", N: maxN,
			Arrays: map[string][]float64{"X": make([]float64, maxN+1)}}, http.StatusOK},
		{"n over the limit", LoopRequest{Loop: "for i = 1 to n do X[i] := X[i-1] + 1", N: maxN + 1,
			Arrays: map[string][]float64{"X": {0}}}, http.StatusBadRequest},
		{"literal bounds over the limit", LoopRequest{Loop: "for i = 0 to 1024 do X[i] := 1",
			Arrays: map[string][]float64{"X": {0}}}, http.StatusBadRequest},
		{"inner level over the limit", LoopRequest{Loop: "for j = 1 to 2 do for i = 0 to 1024 do X[i] := X[i] + X[i-1]",
			Arrays: map[string][]float64{"X": {0}}}, http.StatusBadRequest},
		{"nest over the limit", LoopRequest{Loop: "for j = 1 to 64 do for i = 1 to 17 do X[i] := X[i] + X[i-1]",
			Arrays: map[string][]float64{"X": make([]float64, 18)}}, http.StatusBadRequest},
	} {
		resp, data := post(t, ts.URL+APIPrefix+"loop", tc.req)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: HTTP %d (%s), want %d", tc.name, resp.StatusCode, data, tc.want)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(data), "exceeds 1024 iterations") {
			t.Errorf("%s: %s does not name the limit", tc.name, data)
		}
	}
}

// scatterBody is the general request of workload.Scatter(n, 1): one cell
// that every iteration folds another operand cell into, whose compile holds
// about n²/2 path-count terms.
func scatterBody(n int) GeneralRequest {
	s := workload.Scatter(rand.New(rand.NewSource(1)), n, 1)
	init := make([]int64, s.M)
	for i := range init {
		init[i] = 1
	}
	raw, _ := json.Marshal(init)
	return GeneralRequest{System: ir.WireFromSystem(s), Op: "int64-add", Init: raw}
}

// TestScatterCompileBudget: the 251 KB general body of Scatter(16384, 1)
// is far under the body and iteration limits, but its compile would hold
// gigabytes. The term budget refuses it with a 422 within a second and
// under 512 MiB allocated; Scatter(4096, 512), a deep-bucket body of the
// same size class, still solves.
func TestScatterCompileBudget(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp, data := post(t, ts.URL+APIPrefix+"general", scatterBody(16384))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "compile budget") {
		t.Fatalf("Scatter(16384, 1): HTTP %d: %s", resp.StatusCode, data)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Scatter(16384, 1) refused after %v, %d MiB allocated", elapsed, alloc>>20)
	// Race instrumentation slows the pass several times over; the time
	// bound holds for the plain build.
	if elapsed > time.Second && !parallel.RaceEnabled || alloc > 512<<20 {
		t.Errorf("Scatter(16384, 1) refused after %v and %d MiB allocated, want under 1s and 512 MiB", elapsed, alloc>>20)
	}
	s := workload.Scatter(rand.New(rand.NewSource(2)), 4096, 512)
	init := make([]int64, s.M)
	raw, _ := json.Marshal(init)
	resp, data = post(t, ts.URL+APIPrefix+"general", GeneralRequest{System: ir.WireFromSystem(s), Op: "int64-add", Init: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Scatter(4096, 512): HTTP %d: %s", resp.StatusCode, data)
	}
}
