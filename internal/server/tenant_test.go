package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Per-tenant admission tests: MaxQueued quotas, priority eviction of queued
// work, WFQ dequeue ordering, and the irserved_tenant_shed_total metric.

// postTenant is post with an X-IR-Tenant header.
func postTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
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

// ordinaryChainReq is a small always-valid solve request body.
func ordinaryChainReq() OrdinaryRequest {
	return OrdinaryRequest{
		System: systemWireChain(8),
		Op:     "int64-add",
		Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1]`),
	}
}

// waitDepth polls the pool until it holds exactly n queued jobs.
func waitDepth(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, s.pool.depth())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTenantQuotaSheds bounds one tenant to a single queued job: with the
// lone worker held busy and one job queued, the tenant's next request is
// shed with 429 — while the global queue still has room — and the shed is
// attributed to the tenant in irserved_tenant_shed_total. Every solve
// endpoint is admitted by the same submit, so linear requests meet the
// quota exactly as ordinary ones do.
func TestTenantQuotaSheds(t *testing.T) {
	for _, ep := range []struct {
		endpoint string
		body     any
	}{
		{"ordinary", ordinaryChainReq()},
		{"linear", chainLinear(8)},
	} {
		t.Run(ep.endpoint, func(t *testing.T) {
			testTenantQuotaSheds(t, ep.endpoint, ep.body)
		})
	}
}

func testTenantQuotaSheds(t *testing.T, endpoint string, req any) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{
			Workers:    1,
			QueueDepth: 8,
			Tenants:    map[string]TenantConfig{"free": {MaxQueued: 1}},
		})
		defer down()
		hold := make(chan struct{})
		running := make(chan struct{}, 8)
		var once sync.Once
		s.testHook = func() {
			running <- struct{}{}
			<-hold
		}
		defer once.Do(func() { close(hold) })

		// Request 1 occupies the worker; request 2 fills the tenant's quota
		// of one queued job.
		url := ts.URL + APIPrefix + endpoint
		type reply struct {
			code int
			body []byte
		}
		replies := make(chan reply, 2)
		for i := 0; i < 2; i++ {
			go func() {
				resp, body := postTenant(t, url, "free", req)
				replies <- reply{resp.StatusCode, body}
			}()
			if i == 0 {
				<-running // the first request is on the worker, not queued
			} else {
				waitDepth(t, s, 1)
			}
		}

		// The third request exceeds MaxQueued and sheds even though the
		// global queue (depth 8) is nearly empty.
		resp, body := postTenant(t, url, "free", req)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-quota request: HTTP %d (%s), want 429", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "tenant") {
			t.Fatalf("shed body does not name the tenant quota: %s", body)
		}
		if got := s.metrics.tenantShed.Value("free"); got != 1 {
			t.Fatalf("irserved_tenant_shed_total{tenant=free} = %d, want 1", got)
		}

		// A different tenant is not affected by free's quota.
		done := make(chan reply, 1)
		go func() {
			resp, body := postTenant(t, url, "paid", req)
			done <- reply{resp.StatusCode, body}
		}()
		waitDepth(t, s, 2)

		once.Do(func() { close(hold) })
		for i := 0; i < 2; i++ {
			if r := <-replies; r.code != http.StatusOK {
				t.Fatalf("queued free request: HTTP %d (%s)", r.code, r.body)
			}
		}
		if r := <-done; r.code != http.StatusOK {
			t.Fatalf("paid request: HTTP %d (%s)", r.code, r.body)
		}

		// The tenant shed metric flows through valid exposition.
		mresp, mbody := get(t, ts.URL+"/metrics")
		if mresp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: HTTP %d", mresp.StatusCode)
		}
		checkExposition(t, string(mbody))
		if !strings.Contains(string(mbody), `irserved_tenant_shed_total{tenant="free"} 1`) {
			t.Fatalf("metrics page missing the tenant shed sample:\n%s", mbody)
		}
	}()
	leak()
}

// get is a small GET helper mirroring post.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestTenantPriorityEviction fills a depth-1 queue with a low-priority job
// and submits a high-priority request: the high tenant must evict the
// queued low job (which answers 429) and take its slot, instead of being
// refused itself. Equal-priority tenants never evict each other.
func TestTenantPriorityEviction(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{
			Workers:    1,
			QueueDepth: 1,
			Tenants: map[string]TenantConfig{
				"low":  {Priority: 0},
				"high": {Priority: 10},
			},
		})
		defer down()
		hold := make(chan struct{})
		running := make(chan struct{}, 8)
		var once sync.Once
		s.testHook = func() {
			running <- struct{}{}
			<-hold
		}
		defer once.Do(func() { close(hold) })

		url := ts.URL + APIPrefix + "ordinary"
		type reply struct {
			code int
			body []byte
		}

		// Low request 1 occupies the worker; low request 2 fills the queue.
		first := make(chan reply, 1)
		go func() {
			resp, body := postTenant(t, url, "low", ordinaryChainReq())
			first <- reply{resp.StatusCode, body}
		}()
		<-running
		queued := make(chan reply, 1)
		go func() {
			resp, body := postTenant(t, url, "low", ordinaryChainReq())
			queued <- reply{resp.StatusCode, body}
		}()
		waitDepth(t, s, 1)

		// Another low request cannot evict its own tenant: equal priorities
		// shed the submitter, not the queue.
		resp, body := postTenant(t, url, "low", ordinaryChainReq())
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("equal-priority overflow: HTTP %d (%s), want 429", resp.StatusCode, body)
		}
		select {
		case r := <-queued:
			t.Fatalf("equal-priority submit evicted a peer: HTTP %d (%s)", r.code, r.body)
		default:
		}

		// The high-priority request takes the slot; the queued low job is
		// the one that answers 429.
		highDone := make(chan reply, 1)
		go func() {
			resp, body := postTenant(t, url, "high", ordinaryChainReq())
			highDone <- reply{resp.StatusCode, body}
		}()
		var evicted reply
		select {
		case evicted = <-queued:
		case <-time.After(5 * time.Second):
			t.Fatal("queued low job was never evicted by the high-priority submit")
		}
		if evicted.code != http.StatusTooManyRequests {
			t.Fatalf("evicted job: HTTP %d (%s), want 429", evicted.code, evicted.body)
		}
		if got := s.metrics.tenantShed.Value("low"); got < 2 {
			t.Fatalf("irserved_tenant_shed_total{tenant=low} = %d, want >= 2 (overflow + eviction)", got)
		}
		if got := s.metrics.tenantShed.Value("high"); got != 0 {
			t.Fatalf("irserved_tenant_shed_total{tenant=high} = %d, want 0", got)
		}

		// Release the worker: the original low solve and the high solve both
		// finish normally.
		once.Do(func() { close(hold) })
		if r := <-first; r.code != http.StatusOK {
			t.Fatalf("first low request: HTTP %d (%s)", r.code, r.body)
		}
		if r := <-highDone; r.code != http.StatusOK {
			t.Fatalf("high request: HTTP %d (%s)", r.code, r.body)
		}
	}()
	leak()
}

// TestTenantQueueGC drives the pool directly and asserts the tenants map
// stays bounded under arbitrary tenant names: a shed submission never
// leaves its just-created queue behind, a drained tenant's queue is
// dropped after dequeue — so a client inventing X-IR-Tenant values cannot
// grow pool memory (or dequeue scan cost) without bound.
func TestTenantQueueGC(t *testing.T) {
	p := newPool(1, 1, 1, map[string]TenantConfig{"cfgd": {Weight: 2}}, nil)

	tenantCount := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.tenants)
	}

	// A blocker occupies the worker so later submissions queue.
	started := make(chan struct{})
	release := make(chan struct{})
	if err := p.submit(&job{ctx: context.Background(), tenant: "blocker", run: func(context.Context) {
		close(started)
		<-release
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	// One queued job fills the global queue (depth 1).
	done := make(chan struct{})
	if err := p.submit(&job{ctx: context.Background(), tenant: "cfgd", run: func(context.Context) {
		close(done)
	}}); err != nil {
		t.Fatal(err)
	}

	// 100 distinct shed tenants must leave no trace: only the queued
	// tenant's FIFO may remain (the dequeued blocker's is already gone).
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("attacker-%d", i)
		err := p.submit(&job{ctx: context.Background(), tenant: name, run: func(context.Context) {}})
		if !errors.Is(err, errShed) {
			t.Fatalf("submit %s: %v, want errShed", name, err)
		}
	}
	if got := tenantCount(); got != 1 {
		t.Fatalf("tenants after 100 shed names = %d, want 1 (the queued tenant)", got)
	}

	// Draining the queue drops the last FIFO.
	close(release)
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for tenantCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tenants after drain = %d, want 0", tenantCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	p.close()
}

// TestWFQOrdering drives the pool directly: with a weight-3 and a weight-1
// tenant each queueing three jobs behind a blocker, the single worker must
// drain all of the heavy tenant's jobs first — their virtual finish times
// advance by 1/3 against the light tenant's 1 — and ties break by name.
func TestWFQOrdering(t *testing.T) {
	p := newPool(1, 100, 1, map[string]TenantConfig{
		"heavy": {Weight: 3},
		"light": {Weight: 1},
	}, nil)

	// A blocker job occupies the worker while the contenders enqueue.
	started := make(chan struct{})
	release := make(chan struct{})
	err := p.submit(&job{ctx: context.Background(), tenant: "zblock", run: func(context.Context) {
		close(started)
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	var done sync.WaitGroup
	enqueue := func(tenant string) {
		done.Add(1)
		err := p.submit(&job{ctx: context.Background(), tenant: tenant, run: func(context.Context) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			done.Done()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Interleave the submissions; the tags, not arrival order, must decide.
	enqueue("light")
	enqueue("heavy")
	enqueue("light")
	enqueue("heavy")
	enqueue("heavy")
	enqueue("light")

	close(release)
	done.Wait()
	p.close()

	want := []string{"heavy", "heavy", "heavy", "light", "light", "light"}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("WFQ dequeue order = %v, want %v", order, want)
		}
	}
}
