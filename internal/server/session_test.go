package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"indexedrec/internal/session"
	"indexedrec/ir"
)

// sessionParts builds an n-iteration ordinary workload over m cells (n must
// be <= m: the ordinary family writes each cell at most once across the
// whole stream, so prefixes and appended suffixes share one permutation).
func sessionParts(rng *rand.Rand, m, n int) (g, f []int) {
	g = rng.Perm(m)[:n]
	f = make([]int, n)
	for i := range f {
		f[i] = rng.Intn(m)
	}
	return g, f
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestSessionStreamBitIdentical opens an ordinary integer session, streams
// 100 appends into it, and asserts the final state is bit-identical to a
// one-shot solve of the concatenated system — the CI smoke contract — plus
// the session metrics moved.
func TestSessionStreamBitIdentical(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	const m, n0, appends, k = 1000, 100, 100, 8
	g, f := sessionParts(rng, m, n0+appends*k)
	init := make([]int64, m)
	for i := range init {
		init[i] = rng.Int63n(1 << 30)
	}
	rawInit, _ := json.Marshal(init)

	resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{
		Family: "ordinary",
		System: ir.SystemWire{M: m, N: n0, G: g[:n0], F: f[:n0]},
		Op:     "int64-add",
		Init:   rawInit,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: HTTP %d: %s", resp.StatusCode, data)
	}
	var open SessionOpenResponse
	if err := json.Unmarshal(data, &open); err != nil {
		t.Fatal(err)
	}
	if open.ID == "" || open.N != n0 || open.Family != "ordinary" {
		t.Fatalf("open response %+v", open)
	}

	at := n0
	for a := 0; a < appends; a++ {
		resp, data := post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
			G: g[at : at+k], F: f[at : at+k],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: HTTP %d: %s", a, resp.StatusCode, data)
		}
		var ar SessionAppendResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		if len(ar.ValuesInt) != k || ar.N != at+k {
			t.Fatalf("append %d: got %d values, n = %d", a, len(ar.ValuesInt), ar.N)
		}
		at += k
	}

	resp, data = post(t, ts.URL+APIPrefix+"ordinary", OrdinaryRequest{
		System: ir.SystemWire{M: m, N: at, G: g[:at], F: f[:at]},
		Op:     "int64-add",
		Init:   rawInit,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot: HTTP %d: %s", resp.StatusCode, data)
	}
	var cold OrdinaryResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+SessionPrefix+"/"+open.ID, nil)
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var state SessionStateResponse
	if err := json.NewDecoder(gresp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if state.N != at {
		t.Fatalf("state n = %d, want %d", state.N, at)
	}
	for x := range cold.ValuesInt {
		if state.ValuesInt[x] != cold.ValuesInt[x] {
			t.Fatalf("cell %d: session %d, one-shot %d", x, state.ValuesInt[x], cold.ValuesInt[x])
		}
	}

	if v := s.metrics.sessionAppends.Value(); v < appends {
		t.Fatalf("irserved_session_appends_total = %d, want >= %d", v, appends)
	}
	if v := s.metrics.sessions.Value("open"); v != 1 {
		t.Fatalf("irserved_sessions{state=open} = %d, want 1", v)
	}

	if resp := del(t, ts.URL+SessionPrefix+"/"+open.ID); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	if v := s.metrics.sessions.Value("open"); v != 0 {
		t.Fatalf("after delete, irserved_sessions{state=open} = %d", v)
	}
}

// TestSessionErrorPaths covers the API error contract: unknown IDs answer
// 404 on every session endpoint, appends after close answer 404, an
// oversized append answers 413, an invalid family 400, and a per-append
// deadline maps to 504 exactly like the solve endpoints.
func TestSessionErrorPaths(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxRequestBytes: 4 << 10, Workers: 1})

	// Unknown IDs.
	if resp, _ := post(t, ts.URL+SessionPrefix+"/nope/append", SessionAppendRequest{G: []int{0}, F: []int{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append unknown: HTTP %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+SessionPrefix+"/nope", nil)
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown: HTTP %d", gresp.StatusCode)
	}
	if resp := del(t, ts.URL+SessionPrefix+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: HTTP %d", resp.StatusCode)
	}

	// Invalid family, and invalid wire options on an otherwise valid open:
	// an open compiles nothing, but its opts are still checked.
	if resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{Family: "quantum"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad family: HTTP %d: %s", resp.StatusCode, data)
	}
	// An ordinary open with H != G decodes like the ordinary solve route: the
	// same 400 with the same message.
	const hNotG = `"system":{"m":3,"n":1,"g":[0],"f":[1],"h":[2]},"op":"int64-add","init":[1,2,3]`
	resp, opened := post(t, ts.URL+SessionPrefix, json.RawMessage(`{"family":"ordinary",`+hNotG+`}`))
	_, solved := post(t, ts.URL+APIPrefix+"ordinary", json.RawMessage(`{`+hNotG+`}`))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(opened, solved) {
		t.Fatalf("ordinary open with H != G: HTTP %d: %s, want 400 %s", resp.StatusCode, opened, solved)
	}
	for _, opts := range []ir.OptionsWire{{Procs: -1}, {TimeoutMs: -1}} {
		resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{
			Family: "linear", M: 2, X0: []float64{0, 0}, Opts: opts,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("open with opts %+v: HTTP %d: %s, want 400", opts, resp.StatusCode, data)
		}
	}

	// A linear session: X[i+1] := X[i] + 1 prefix, then appends.
	resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{
		Family: "linear",
		M:      8, G: []int{1, 2}, F: []int{0, 1},
		A: []float64{1, 1}, B: []float64{1, 1},
		X0: []float64{1, 0, 0, 0, 0, 0, 0, 0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open linear: HTTP %d: %s", resp.StatusCode, data)
	}
	var open SessionOpenResponse
	if err := json.Unmarshal(data, &open); err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
		G: []int{3, 4}, F: []int{2, 3}, A: []float64{1, 1}, B: []float64{1, 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append linear: HTTP %d: %s", resp.StatusCode, data)
	}
	var ar SessionAppendResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Values) != 2 || ar.Values[0] != 4 || ar.Values[1] != 5 {
		t.Fatalf("append linear values = %v, want [4 5]", ar.Values)
	}

	// Oversized append: blow past MaxRequestBytes, expect 413 (not the
	// solve endpoints' 400).
	big := make([]int, 4096)
	if resp, _ := post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{G: big, F: big}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append: HTTP %d, want 413", resp.StatusCode)
	}

	// Per-append deadline: hold the single worker so the 1ms deadline
	// fires while queued.
	s.testHook = func() { time.Sleep(50 * time.Millisecond) }
	resp, data = post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
		G: []int{5}, F: []int{4}, A: []float64{1}, B: []float64{1},
		Opts: ir.OptionsWire{TimeoutMs: 1},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline append: HTTP %d: %s, want 504", resp.StatusCode, data)
	}
	// The hook stays set: the abandoned job may still be reading it on the
	// worker goroutine (the 504 answered before the job finished).

	// Appends after close answer 404.
	if resp := del(t, ts.URL+SessionPrefix+"/"+open.ID); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
		G: []int{5}, F: []int{4}, A: []float64{1}, B: []float64{1},
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after close: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSessionAppendLoneNilRow: an append with exactly one of c and d nil
// is a length error (400), as at open and on /v1/solve/moebius, and leaves
// the session as it was: the same snapshot, and the next append lands.
func TestSessionAppendLoneNilRow(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{
		Family: "moebius", M: 4, G: []int{1}, F: []int{0},
		A: []float64{1}, B: []float64{1}, X0: []float64{1, 0, 0, 0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: HTTP %d: %s", resp.StatusCode, data)
	}
	var open SessionOpenResponse
	if err := json.Unmarshal(data, &open); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + SessionPrefix + "/" + open.ID
	_, before := get(t, url)
	for _, req := range []SessionAppendRequest{
		{G: []int{2}, F: []int{1}, A: []float64{1}, B: []float64{1}, C: []float64{0}},
		{G: []int{2}, F: []int{1}, A: []float64{1}, B: []float64{1}, D: []float64{1}},
	} {
		resp, data := post(t, url+"/append", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "lengths disagree") {
			t.Fatalf("append c=%v d=%v: HTTP %d: %s, want 400 length error", req.C, req.D, resp.StatusCode, data)
		}
		if _, after := get(t, url); string(after) != string(before) {
			t.Fatalf("refused append changed the session:\n got %s\nwant %s", after, before)
		}
	}
	resp, data = post(t, url+"/append", SessionAppendRequest{G: []int{2}, F: []int{1}, A: []float64{1}, B: []float64{1}})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"values":[3]`) {
		t.Fatalf("affine append after the refusals: HTTP %d: %s, want values [3]", resp.StatusCode, data)
	}
}

// TestSessionIdleTTLEviction proves the store's idle sweeper evicts a
// neglected session and the API then reports it gone, with the eviction
// metric moving.
func TestSessionIdleTTLEviction(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{SessionTTL: 30 * time.Millisecond})
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
	deadline := time.Now().Add(3 * time.Second)
	for s.sessions.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.sessions.Len(); n != 0 {
		t.Fatalf("session not evicted, store len %d", n)
	}
	if resp, _ := post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
		G: []int{2}, F: []int{1}, A: []float64{1}, B: []float64{1},
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after eviction: HTTP %d, want 404", resp.StatusCode)
	}
	if v := s.metrics.sessionEvictions.Value(); v < 1 {
		t.Fatalf("irserved_session_evictions_total = %d, want >= 1", v)
	}
}

// TestSessionOpenStoreFull opens a session larger than the whole store
// budget: the open answers 507, the status an append maps a full store to,
// not a 500.
func TestSessionOpenStoreFull(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{SessionBytes: 1 << 10})
	resp, data := post(t, ts.URL+SessionPrefix, SessionOpenRequest{Family: "linear", M: 1 << 10, X0: make([]float64, 1<<10)})
	if resp.StatusCode != http.StatusInsufficientStorage || !strings.Contains(string(data), session.ErrStoreFull.Error()) {
		t.Fatalf("open over the store budget: HTTP %d: %s, want 507 store full", resp.StatusCode, data)
	}
}

// TestSessionDrainClosesSessions proves graceful shutdown closes every live
// session (the SIGTERM contract) and later appends are refused.
func TestSessionDrainClosesSessions(t *testing.T) {
	s, ts, down := newTestServer(t, Config{})
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
	down()
	if n := s.sessions.Len(); n != 0 {
		t.Fatalf("after drain, store len %d", n)
	}
	if v := s.metrics.sessions.Value("open"); v != 0 {
		t.Fatalf("after drain, irserved_sessions{state=open} = %d", v)
	}
}

// TestSessionSurvivesPlanCacheEviction opens an ordinary, a general and a
// linear session and asserts the opens left the plan cache alone: no entry
// added and no miss counted, since a session compiles nothing. It then
// churns the cache and proves the ordinary session still appends
// bit-identically to a one-shot solve — cache eviction cannot reach a live
// stream.
func TestSessionSurvivesPlanCacheEviction(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{PlanCacheBytes: 16 << 10})
	rng := rand.New(rand.NewSource(11))
	const m, n0, step = 128, 32, 32
	g, f := sessionParts(rng, m, m)
	init := make([]int64, m)
	for i := range init {
		init[i] = int64(i)
	}
	rawInit, _ := json.Marshal(init)
	h := make([]int, n0)
	for i := range h {
		h[i] = rng.Intn(m)
	}
	x0 := make([]float64, m)
	linA, linB := make([]float64, n0), make([]float64, n0)
	for i := range linA {
		linA[i], linB[i] = 1, 1
	}

	entries, misses := s.plans.Len(), s.metrics.planMisses.Value()
	var open SessionOpenResponse
	for _, o := range []struct {
		req  SessionOpenRequest
		want string
	}{
		{SessionOpenRequest{Family: "general", Op: "int64-add", Init: rawInit,
			System: ir.SystemWire{M: m, N: n0, G: g[:n0], F: f[:n0], H: h}},
			ir.PlanFingerprint(ir.FamilyGeneral, n0, m, g[:n0], f[:n0], h, s.cfg.MaxExponentBits)},
		{SessionOpenRequest{Family: "linear", M: m, G: g[:n0], F: f[:n0], A: linA, B: linB, X0: x0},
			ir.PlanFingerprint(ir.FamilyMoebius, n0, m, g[:n0], f[:n0], nil, 0)},
		{SessionOpenRequest{Family: "ordinary", Op: "int64-add", Init: rawInit,
			System: ir.SystemWire{M: m, N: n0, G: g[:n0], F: f[:n0]}},
			ir.PlanFingerprint(ir.FamilyOrdinary, n0, m, g[:n0], f[:n0], nil, 0)},
	} {
		resp, data := post(t, ts.URL+SessionPrefix, o.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open %s: HTTP %d: %s", o.req.Family, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &open); err != nil {
			t.Fatal(err)
		}
		if open.Fingerprint != o.want {
			t.Fatalf("open %s: fingerprint %s, want %s", o.req.Family, open.Fingerprint, o.want)
		}
	}
	if n, mi := s.plans.Len(), s.metrics.planMisses.Value(); n != entries || mi != misses {
		t.Fatalf("session opens touched the plan cache: entries %d -> %d, misses %d -> %d", entries, n, misses, mi)
	}

	// Churn: 8 distinct ~7 KiB shapes through a 16 KiB cache.
	for size := 0; size < 8; size++ {
		n := 512 + size
		cg, cf := sessionParts(rng, n+1, n)
		ci := make([]int64, n+1)
		ciRaw, _ := json.Marshal(ci)
		resp, data := post(t, ts.URL+APIPrefix+"ordinary", OrdinaryRequest{
			System: ir.SystemWire{M: n + 1, N: n, G: cg, F: cf},
			Op:     "int64-add",
			Init:   ciRaw,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("churn %d: HTTP %d: %s", size, resp.StatusCode, data)
		}
	}
	if v := s.metrics.planEvictions.Value(); v == 0 {
		t.Fatal("churn evicted nothing from the plan cache")
	}

	at := n0
	for at < m {
		resp, data := post(t, ts.URL+SessionPrefix+"/"+open.ID+"/append", SessionAppendRequest{
			G: g[at : at+step], F: f[at : at+step],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: HTTP %d: %s", resp.StatusCode, data)
		}
		at += step
	}
	resp, data := post(t, ts.URL+APIPrefix+"ordinary", OrdinaryRequest{
		System: ir.SystemWire{M: m, N: at, G: g[:at], F: f[:at]},
		Op:     "int64-add",
		Init:   rawInit,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot: HTTP %d: %s", resp.StatusCode, data)
	}
	var cold OrdinaryResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+SessionPrefix+"/"+open.ID, nil)
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var state SessionStateResponse
	if err := json.NewDecoder(gresp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	for x := range cold.ValuesInt {
		if state.ValuesInt[x] != cold.ValuesInt[x] {
			t.Fatalf("cell %d: session %d, one-shot %d", x, state.ValuesInt[x], cold.ValuesInt[x])
		}
	}
}

// TestSessionMetricsExposition asserts the new session series appear in the
// Prometheus text format.
func TestSessionMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"irserved_sessions", "irserved_session_appends_total",
		"irserved_session_evictions_total", "irserved_session_bytes",
		"irserved_session_append_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}

// TestDecodeSessionOpenKeepsRequest decodes an extended linear open: the
// solve request carries the rewritten b = x0[g] + b, while the returned
// open request keeps the b that was sent, since the coordinator replays
// that request — extended flag and all — on a re-home.
func TestDecodeSessionOpenKeepsRequest(t *testing.T) {
	body := []byte(`{"family":"linear","m":3,"g":[1,2],"f":[0,1],"a":[2,0.5],"b":[1,-1],"x0":[1,2,3],"extended":true}`)
	open, req, err := DecodeSessionOpen(body, Limits{MaxN: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !open.Extended || open.B[0] != 1 || open.B[1] != -1 {
		t.Fatalf("open request rewritten: %+v", open)
	}
	if req.Family != ir.FamilyMoebius || req.Data.B[0] != 3 || req.Data.B[1] != 2 {
		t.Fatalf("decoded b = %v, want [3 2]", req.Data.B)
	}
}

// TestSessionOverflowRefused: a float session whose values overflow opens
// (the open folds nothing it must send back), but its snapshot — and an
// append whose cells overflow — answer 422 with ir.ErrNonFinite's message,
// as the solve routes do, not a 500 from the encoder.
func TestSessionOverflowRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+SessionPrefix, json.RawMessage(`{"family":"ordinary",`+overflowBody[1:]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: HTTP %d: %s", resp.StatusCode, data)
	}
	var opened SessionOpenResponse
	if err := json.Unmarshal(data, &opened); err != nil {
		t.Fatal(err)
	}
	gresp, gdata := get(t, ts.URL+SessionPrefix+"/"+opened.ID)
	if gresp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(gdata), "values_float[1] = +Inf") {
		t.Fatalf("snapshot: HTTP %d: %s", gresp.StatusCode, gdata)
	}

	resp, data = post(t, ts.URL+SessionPrefix, json.RawMessage(`{"family":"ordinary","system":{"m":3,"n":0,"g":[],"f":[]},"op":"float64-add","init":[1e308,1e308,0]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: HTTP %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &opened); err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, ts.URL+SessionPrefix+"/"+opened.ID+"/append", SessionAppendRequest{G: []int{1}, F: []int{0}})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "non-finite") {
		t.Fatalf("append: HTTP %d: %s", resp.StatusCode, data)
	}
}
