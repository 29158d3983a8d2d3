package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

// openChain starts a linear streaming session X[i+1] = X[i] + 1 from
// X[0] = 1 through the coordinator front; written cell i holds i + 1.
func openChain(t *testing.T, c *client.Client, m int) *server.SessionOpenResponse {
	t.Helper()
	open, err := c.OpenSession(context.Background(), server.SessionOpenRequest{
		Family: "linear",
		M:      m, G: []int{1, 2}, F: []int{0, 1},
		A: []float64{1, 1}, B: []float64{1, 1},
		X0: append([]float64{1}, make([]float64, m-1)...),
	})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	return open
}

// appendStep folds iteration "at" (writing cell at from cell at-1) and
// asserts the streamed value matches the closed form.
func appendStep(t *testing.T, c *client.Client, id string, at int) {
	t.Helper()
	ar, err := c.Append(context.Background(), id, server.SessionAppendRequest{
		G: []int{at}, F: []int{at - 1}, A: []float64{1}, B: []float64{1},
	})
	if err != nil {
		t.Fatalf("Append at=%d: %v", at, err)
	}
	if len(ar.Values) != 1 || ar.Values[0] != float64(at+1) {
		t.Fatalf("Append at=%d values = %v, want [%d]", at, ar.Values, at+1)
	}
}

// pinnedWorker returns the coordinator-side entry and the testWorker the
// session is currently homed on.
func pinnedWorker(t *testing.T, co *Coordinator, workers []*testWorker, id string) (*streamEntry, *testWorker) {
	t.Helper()
	co.smu.Lock()
	e := co.sessions[id]
	co.smu.Unlock()
	if e == nil {
		t.Fatalf("coordinator has no entry for session %s", id)
	}
	for _, tw := range workers {
		if tw.ts.URL == e.w.name {
			return e, tw
		}
	}
	t.Fatalf("pinned worker %s not in fleet", e.w.name)
	return nil, nil
}

// TestClusterSessionRehomeOnWorkerDeath streams through the coordinator,
// crashes the pinned worker mid-stream, and checks the session is rebuilt
// on a survivor by replay with the fold staying bit-identical.
func TestClusterSessionRehomeOnWorkerDeath(t *testing.T) {
	leaked := checkGoroutines(t)
	co, workers, down := newFleet(t, 3, nil)
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	c := client.New(front.URL)

	open := openChain(t, c, 64)
	for at := 3; at <= 10; at++ {
		appendStep(t, c, open.ID, at)
	}

	e, tw := pinnedWorker(t, co, workers, open.ID)
	before := e.w.name
	dead := func(r *http.Request) bool { return false }
	tw.intercept.Store(&dead)

	// The next appends must survive the crash: the coordinator replays the
	// open plus the 8 logged appends onto a survivor, then applies each new
	// batch exactly once.
	for at := 11; at <= 20; at++ {
		appendStep(t, c, open.ID, at)
	}
	if got := co.metrics.sessionRehomes.Value(); got < 1 {
		t.Fatalf("sessionRehomes = %d, want >= 1", got)
	}
	if e.w.name == before {
		t.Fatalf("session still pinned to crashed worker %s", before)
	}

	st, err := c.GetSession(context.Background(), open.ID)
	if err != nil {
		t.Fatalf("GetSession: %v", err)
	}
	if st.N != 20 || st.ID != open.ID {
		t.Fatalf("state N=%d ID=%s, want 20/%s", st.N, st.ID, open.ID)
	}
	for i := 0; i <= 20; i++ {
		if st.Values[i] != float64(i+1) {
			t.Fatalf("Values[%d] = %v, want %d", i, st.Values[i], i+1)
		}
	}

	if err := c.CloseSession(context.Background(), open.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.GetSession(context.Background(), open.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("GetSession after close: %v, want 404", err)
	}

	front.Close()
	down()
	leaked()
}

// TestClusterSessionRehomeOnWorkerEviction covers the healthy-worker-
// forgot-the-session path: the remote session vanishes (as after an idle
// TTL eviction or worker restart) while the worker stays up, and the next
// append replays the log — possibly onto the same worker — instead of
// failing.
func TestClusterSessionRehomeOnWorkerEviction(t *testing.T) {
	co, workers, down := newFleet(t, 2, nil)
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	c := client.New(front.URL)

	open := openChain(t, c, 32)
	for at := 3; at <= 6; at++ {
		appendStep(t, c, open.ID, at)
	}

	// Evict the remote session behind the coordinator's back.
	e, _ := pinnedWorker(t, co, workers, open.ID)
	if err := client.New(e.w.name).CloseSession(context.Background(), e.remoteID); err != nil {
		t.Fatalf("direct CloseSession: %v", err)
	}

	appendStep(t, c, open.ID, 7)
	if got := co.metrics.sessionRehomes.Value(); got != 1 {
		t.Fatalf("sessionRehomes = %d, want 1", got)
	}
	st, err := c.GetSession(context.Background(), open.ID)
	if err != nil {
		t.Fatalf("GetSession: %v", err)
	}
	if st.N != 7 || st.Values[7] != 8 {
		t.Fatalf("state after eviction re-home = N=%d Values[7]=%v", st.N, st.Values[7])
	}
	down()
}

// TestClusterSessionFailsCleanWithoutWorkers crashes the whole fleet and
// checks appends fail promptly with a gateway error instead of hanging or
// double-applying.
func TestClusterSessionFailsCleanWithoutWorkers(t *testing.T) {
	co, workers, down := newFleet(t, 2, nil)
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	c := client.New(front.URL)

	open := openChain(t, c, 16)
	dead := func(r *http.Request) bool { return false }
	for _, tw := range workers {
		tw.intercept.Store(&dead)
	}

	_, err := c.Append(context.Background(), open.ID, server.SessionAppendRequest{
		G: []int{3}, F: []int{2}, A: []float64{1}, B: []float64{1},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("append with dead fleet: %v, want APIError", err)
	}
	if apiErr.Status != http.StatusBadGateway && apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("append with dead fleet status = %d, want 502 or 503", apiErr.Status)
	}
	down()
}

// badOrdinaryOpen is an ordinary open whose H differs from G: a defect of
// the request, which the solve route answers 400.
const badOrdinaryOpen = `{"family":"ordinary","system":{"m":3,"n":1,"g":[0],"f":[1],"h":[2]},"op":"int64-add","init":[1,2,3]}`

// sessionOpens sums a worker's irserved_requests_total{endpoint="session_open"}.
func sessionOpens(t *testing.T, tw *testWorker) int {
	t.Helper()
	var buf strings.Builder
	if _, err := tw.srv.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `irserved_requests_total{endpoint="session_open"`); ok {
			n, err := strconv.Atoi(rest[strings.LastIndexByte(rest, ' ')+1:])
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			total += n
		}
	}
	return total
}

// TestClusterSessionOpenDefectStaysOnFront proves the coordinator answers a
// malformed open itself: 400, as the solve route and a lone worker answer
// it, without a request to any worker — so a stream of bad opens cannot
// count breaker failures against the fleet, and a valid open still lands.
func TestClusterSessionOpenDefectStaysOnFront(t *testing.T) {
	co, workers, down := newFleet(t, 2, nil)
	defer down()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	before := []int{sessionOpens(t, workers[0]), sessionOpens(t, workers[1])}
	for i := 0; i < 10; i++ {
		resp, err := http.Post(front.URL+server.SessionPrefix, "application/json", strings.NewReader(badOrdinaryOpen))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "requires H = G") {
			t.Fatalf("bad open %d: HTTP %d: %s, want 400 H = G", i, resp.StatusCode, data)
		}
	}
	for i, tw := range workers {
		if n := sessionOpens(t, tw); n != before[i] {
			t.Fatalf("worker %d saw %d session opens, want %d: the front forwarded a defect", i, n, before[i])
		}
	}
	c := client.New(front.URL)
	open := openChain(t, c, 8)
	appendStep(t, c, open.ID, 3)
	if e, _ := pinnedWorker(t, co, workers, open.ID); e.fp != open.Fingerprint {
		t.Fatalf("pinned by %s, session fingerprint %s", e.fp, open.Fingerprint)
	}
}
