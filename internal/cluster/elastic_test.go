package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// Elasticity and failure-tolerance tests: registration/lease lifecycle,
// membership churn under sustained load (the acceptance chaos proof),
// circuit-breaker isolation, Retry-After honoring, and prompt hedge-loser
// cancellation. Everything asserts the cluster's core contract on top:
// answers stay bit-identical to ir.Plan.SolveCtx and no goroutines leak.

// elasticFleet starts a coordinator with no static workers plus its HTTP
// front-end, so workers join by registration alone.
func elasticFleet(t *testing.T, mut func(*Config)) (*Coordinator, *httptest.Server, func()) {
	t.Helper()
	co, _, downFleet := newFleet(t, 0, mut)
	front := httptest.NewServer(co.Handler())
	var once sync.Once
	down := func() {
		once.Do(func() {
			front.Close()
			downFleet()
		})
	}
	t.Cleanup(down)
	return co, front, down
}

// startWorker brings up one in-process irserved worker (not yet a member)
// with an idempotent teardown for tests to call before their leak check.
func startWorker(t *testing.T) (*testWorker, func()) {
	t.Helper()
	tw := &testWorker{srv: server.New(server.Config{})}
	tw.ts = httptest.NewServer(tw)
	var once sync.Once
	down := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = tw.srv.Shutdown(ctx)
			cancel()
			tw.ts.Close()
			client.SharedTransport().CloseIdleConnections()
		})
	}
	t.Cleanup(down)
	return tw, down
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chainSpec is a deterministic many-chain ordinary solve used as load.
func chainSpec(m int) *server.SolveRequest {
	g := make([]int, m/2)
	f := make([]int, m/2)
	init := make([]int64, m)
	for i := range g {
		g[i], f[i] = 2*i+1, 2*i
	}
	for i := range init {
		init[i] = int64(i)
	}
	sys := &ir.System{M: m, N: len(g), G: g, F: f}
	return specFor(ir.FamilyOrdinary, sys,
		ir.PlanData{Op: "int64-add", InitInt: init})
}

// singleChainSpec is the smallest one-shard solve: one chain through all
// of a tiny domain, so a test controls exactly one shard request.
func singleChainSpec() *server.SolveRequest {
	return specFor(ir.FamilyOrdinary, &ir.System{M: 8, N: 7,
		G: []int{1, 2, 3, 4, 5, 6, 7}, F: []int{0, 1, 2, 3, 4, 5, 6}},
		ir.PlanData{Op: "int64-add", InitInt: []int64{1, 1, 1, 1, 1, 1, 1, 1}})
}

// generalSpec is a deterministic general-family solve over mul-mod.
func generalSpec(m int) *server.SolveRequest {
	n := 2 * m
	g := make([]int, n)
	f := make([]int, n)
	h := make([]int, n)
	for i := 0; i < n; i++ {
		g[i], f[i], h[i] = (3*i+1)%m, (5*i+2)%m, (7*i)%m
	}
	init := make([]int64, m)
	for x := range init {
		init[x] = int64(x%97) + 2
	}
	spec := specFor(ir.FamilyGeneral, &ir.System{M: m, N: n, G: g, F: f, H: h},
		ir.PlanData{Op: "mul-mod", Mod: 1_000_003, InitInt: init})
	spec.Bits = 4096
	return spec
}

// diffSolution is assertSameSolution without the t.Fatal, for use from
// load goroutines.
func diffSolution(got, want *ir.PlanSolution) error {
	if len(got.ValuesInt) != len(want.ValuesInt) ||
		len(got.ValuesFloat) != len(want.ValuesFloat) ||
		len(got.Values) != len(want.Values) {
		return fmt.Errorf("value shape mismatch: got (%d,%d,%d), want (%d,%d,%d)",
			len(got.ValuesInt), len(got.ValuesFloat), len(got.Values),
			len(want.ValuesInt), len(want.ValuesFloat), len(want.Values))
	}
	for i := range want.ValuesInt {
		if got.ValuesInt[i] != want.ValuesInt[i] {
			return fmt.Errorf("cell %d: distributed %v != local %v", i, got.ValuesInt[i], want.ValuesInt[i])
		}
	}
	for i := range want.ValuesFloat {
		if got.ValuesFloat[i] != want.ValuesFloat[i] {
			return fmt.Errorf("cell %d: distributed %v != local %v", i, got.ValuesFloat[i], want.ValuesFloat[i])
		}
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			return fmt.Errorf("cell %d: distributed %v != local %v", i, got.Values[i], want.Values[i])
		}
	}
	return nil
}

// runRegistrar starts a worker-side registrar against the front-end and
// returns its idempotent stop function (cancel + wait for deregistration).
func runRegistrar(t *testing.T, frontURL string, tw *testWorker) (stop func()) {
	t.Helper()
	reg := client.NewRegistrar(client.RegistrarConfig{
		Coordinator: frontURL,
		Advertise:   tw.ts.URL,
		Logger:      log.New(io.Discard, "", 0),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); reg.Run(ctx) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// TestRegistrarLifecycle runs the real worker-side Registrar against a real
// coordinator front-end: registration makes the worker a live dynamic
// member that serves shards, and cancelling the registrar deregisters it
// immediately (no lease wait).
func TestRegistrarLifecycle(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, front, down := elasticFleet(t, func(cfg *Config) {
			cfg.LeaseTTL = time.Second
		})
		tw, downWorker := startWorker(t)

		reg := client.NewRegistrar(client.RegistrarConfig{
			Coordinator: front.URL,
			Advertise:   tw.ts.URL,
			Version:     "test-build",
			Logger:      log.New(io.Discard, "", 0),
		})
		rctx, rcancel := context.WithCancel(context.Background())
		regDone := make(chan struct{})
		go func() { defer close(regDone); reg.Run(rctx) }()
		defer rcancel()

		waitFor(t, 5*time.Second, "worker registration", func() bool {
			w := co.member(tw.ts.URL)
			return w != nil && w.isUp()
		})
		w := co.member(tw.ts.URL)
		w.mu.Lock()
		dynamic, version := w.dynamic, w.version
		w.mu.Unlock()
		if !dynamic {
			t.Fatal("registered worker not marked dynamic")
		}
		if version != "test-build" {
			t.Fatalf("worker version = %q, want the registered build", version)
		}
		if got := co.metrics.members.Value(); got != 1 {
			t.Fatalf("ircluster_members = %v, want 1", got)
		}

		// The registered member serves real shards.
		spec := chainSpec(64)
		want := localSolution(t, spec)
		got, err := co.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("solve on a registered fleet: %v", err)
		}
		assertSameSolution(t, got, want)
		if co.metrics.shards.Value() == 0 {
			t.Fatal("solve never scattered to the registered worker")
		}

		// The fleet view reports the dynamic member with its breaker closed.
		resp, err := http.Get(front.URL + server.ClusterPrefix + "workers")
		if err != nil {
			t.Fatal(err)
		}
		var ws []WorkerStatus
		err = json.NewDecoder(resp.Body).Decode(&ws)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 1 || !ws[0].Dynamic || !ws[0].Up || ws[0].Breaker != "closed" {
			t.Fatalf("fleet view: %+v", ws)
		}

		// Graceful stop: the registrar deregisters; the member disappears
		// long before its 1s lease would lapse.
		rcancel()
		<-regDone
		waitFor(t, time.Second/2, "deregistration", func() bool {
			return co.member(tw.ts.URL) == nil
		})
		if got := co.metrics.workerUp.Value(tw.ts.URL); got != 0 {
			t.Fatalf("deregistered worker still up in metrics: %d", got)
		}
		downWorker()
		down()
	}()
	leak()
}

// TestClusterTokenGatesMembership starts a coordinator requiring a shared
// registration token: membership writes without it (or with a wrong one)
// answer 401 and leave the fleet untouched, while a tokened Registrar joins
// and drains normally. The read-only fleet view stays open.
func TestClusterTokenGatesMembership(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		const token = "fleet-secret"
		co, front, down := elasticFleet(t, func(cfg *Config) {
			cfg.ClusterToken = token
		})
		tw, downWorker := startWorker(t)

		// No token and a wrong token are both refused on every membership
		// endpoint, and nothing joins the fleet.
		for _, tok := range []string{"", "wrong-secret"} {
			c := client.New(front.URL)
			c.ClusterToken = tok
			var apiErr *client.APIError
			if _, err := c.Register(context.Background(), server.RegisterRequest{Addr: tw.ts.URL}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
				t.Fatalf("register with token %q: %v, want 401", tok, err)
			}
			if _, err := c.Heartbeat(context.Background(), tw.ts.URL); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
				t.Fatalf("heartbeat with token %q: %v, want 401", tok, err)
			}
			if err := c.Deregister(context.Background(), tw.ts.URL); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
				t.Fatalf("deregister with token %q: %v, want 401", tok, err)
			}
		}
		if got := len(co.memberList()); got != 0 {
			t.Fatalf("unauthorized requests changed membership: %d members", got)
		}

		// A registrar carrying the token enrolls and serves.
		reg := client.NewRegistrar(client.RegistrarConfig{
			Coordinator: front.URL,
			Advertise:   tw.ts.URL,
			Token:       token,
			Logger:      log.New(io.Discard, "", 0),
		})
		rctx, rcancel := context.WithCancel(context.Background())
		regDone := make(chan struct{})
		go func() { defer close(regDone); reg.Run(rctx) }()
		waitFor(t, 5*time.Second, "tokened registration", func() bool {
			w := co.member(tw.ts.URL)
			return w != nil && w.isUp()
		})

		// An attacker with no token cannot evict the legitimate member.
		if err := client.New(front.URL).Deregister(context.Background(), tw.ts.URL); err == nil {
			t.Fatal("tokenless deregister of a live member succeeded")
		}
		if w := co.member(tw.ts.URL); w == nil || !w.isUp() {
			t.Fatal("tokenless deregister removed the member")
		}

		// The fleet view needs no token.
		resp, err := http.Get(front.URL + server.ClusterPrefix + "workers")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet view with no token: HTTP %d", resp.StatusCode)
		}

		// The tokened drain deregisters cleanly.
		rcancel()
		<-regDone
		waitFor(t, time.Second, "tokened deregistration", func() bool {
			return co.member(tw.ts.URL) == nil
		})
		downWorker()
		down()
	}()
	leak()
}

// TestLeaseExpiryRemovesWorker registers a worker that never heartbeats:
// the missed-lease detector must remove it within a couple of TTLs, and
// later heartbeats for the forgotten name must 404 so the worker knows to
// re-register.
func TestLeaseExpiryRemovesWorker(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, front, down := elasticFleet(t, func(cfg *Config) {
			cfg.LeaseTTL = 150 * time.Millisecond
		})
		tw, downWorker := startWorker(t)
		c := client.New(front.URL)
		if _, err := c.Register(context.Background(), server.RegisterRequest{Addr: tw.ts.URL}); err != nil {
			t.Fatalf("register: %v", err)
		}
		if co.member(tw.ts.URL) == nil {
			t.Fatal("worker absent right after registration")
		}
		waitFor(t, 2*time.Second, "lease expiry", func() bool {
			return co.member(tw.ts.URL) == nil
		})
		if got := co.metrics.workerUp.Value(tw.ts.URL); got != 0 {
			t.Fatalf("expired worker still up in metrics: %d", got)
		}
		if co.metrics.rebalances.Value() < 2 {
			t.Fatalf("rebalances = %d across register+expiry, want >= 2", co.metrics.rebalances.Value())
		}
		_, err := c.Heartbeat(context.Background(), tw.ts.URL)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("heartbeat after expiry: %v, want 404", err)
		}
		downWorker()
		down()
	}()
	leak()
}

// TestElasticChurnUnderLoad is the acceptance chaos proof: three workers
// join by registration, sustained load runs, one worker is SIGKILLed
// (connections abort, heartbeats stop) and another drains gracefully
// (registrar deregisters) — every solve must keep succeeding bit-identical
// to the local answer, the dead worker must leave the fleet within a few
// lease intervals, and nothing may leak. The killed worker then
// re-registers and serves again.
func TestElasticChurnUnderLoad(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		const lease = 200 * time.Millisecond
		co, front, down := elasticFleet(t, func(cfg *Config) {
			cfg.LeaseTTL = lease
		})
		wKill, downKill := startWorker(t)   // dies without warning
		wDrain, downDrain := startWorker(t) // SIGTERM-style graceful drain
		wStay, downStay := startWorker(t)   // healthy throughout

		c := client.New(front.URL)

		// wKill heartbeats manually so the test can stop its heart exactly
		// when it "crashes" (a registrar would deregister on cancel, which a
		// SIGKILL never allows).
		if _, err := c.Register(context.Background(), server.RegisterRequest{Addr: wKill.ts.URL}); err != nil {
			t.Fatalf("register kill-worker: %v", err)
		}
		heartStop := make(chan struct{})
		heartDone := make(chan struct{})
		go func() {
			defer close(heartDone)
			tick := time.NewTicker(lease / 4)
			defer tick.Stop()
			for {
				select {
				case <-heartStop:
					return
				case <-tick.C:
					_, _ = c.Heartbeat(context.Background(), wKill.ts.URL)
				}
			}
		}()

		stopDrain := runRegistrar(t, front.URL, wDrain)
		stopStay := runRegistrar(t, front.URL, wStay)

		waitFor(t, 5*time.Second, "three live members", func() bool {
			return len(co.alive()) == 3
		})

		// Deterministic load set with precomputed local reference answers.
		specs := []*server.SolveRequest{
			chainSpec(64), chainSpec(96), chainSpec(128), generalSpec(24),
		}
		wants := make([]*ir.PlanSolution, len(specs))
		for i, sp := range specs {
			wants[i] = localSolution(t, sp)
		}

		// Sustained load: every completed solve is checked bit-identical.
		// The goroutines never touch t directly; failures funnel through
		// loadErr.
		loadStop := make(chan struct{})
		var loadWG sync.WaitGroup
		var solves atomic.Int64
		loadErr := make(chan error, 64)
		report := func(err error) {
			select {
			case loadErr <- err:
			default:
			}
		}
		for g := 0; g < 4; g++ {
			loadWG.Add(1)
			go func(g int) {
				defer loadWG.Done()
				for i := g; ; i++ {
					select {
					case <-loadStop:
						return
					default:
					}
					k := i % len(specs)
					got, err := co.Solve(context.Background(), specs[k])
					if err != nil {
						report(fmt.Errorf("solve during churn: %w", err))
						return
					}
					if err := diffSolution(got, wants[k]); err != nil {
						report(fmt.Errorf("churned solve diverged from local: %w", err))
						return
					}
					solves.Add(1)
				}
			}(g)
		}
		waitFor(t, 10*time.Second, "load to ramp", func() bool { return solves.Load() >= 8 })

		// CHAOS 1 — SIGKILL wKill: abort every connection, stop the heart.
		dead := func(r *http.Request) bool { return false }
		wKill.intercept.Store(&dead)
		close(heartStop)
		<-heartDone
		killedAt := time.Now()

		// The failure detector must evict it within one lease plus a
		// detector tick (plus scheduling slack under load).
		waitFor(t, 4*lease, "missed-lease eviction", func() bool {
			return co.member(wKill.ts.URL) == nil
		})
		t.Logf("kill -> eviction in %v (lease %v)", time.Since(killedAt), lease)

		// CHAOS 2 — graceful drain of wDrain mid-load.
		preDrain := solves.Load()
		stopDrain()
		if co.member(wDrain.ts.URL) != nil {
			t.Fatal("drained worker still in the fleet after deregistration")
		}

		// Load keeps flowing on the survivor.
		waitFor(t, 10*time.Second, "solves on the survivor", func() bool {
			return solves.Load() >= preDrain+8
		})
		if got := len(co.alive()); got != 1 {
			t.Fatalf("alive = %d after kill+drain, want 1", got)
		}
		if got := co.metrics.members.Value(); got != 1 {
			t.Fatalf("ircluster_members = %v after kill+drain, want 1", got)
		}

		// RECOVERY — the killed worker comes back and re-registers.
		wKill.intercept.Store(nil)
		stopRejoin := runRegistrar(t, front.URL, wKill)
		waitFor(t, 5*time.Second, "re-registration", func() bool {
			return len(co.alive()) == 2
		})
		preJoin := solves.Load()
		waitFor(t, 10*time.Second, "solves on the rejoined fleet", func() bool {
			return solves.Load() >= preJoin+8
		})

		close(loadStop)
		loadWG.Wait()
		select {
		case err := <-loadErr:
			t.Fatalf("churn broke a solve: %v", err)
		default:
		}
		if co.metrics.rebalances.Value() < 4 {
			t.Fatalf("rebalances = %d across join/kill/drain/rejoin, want >= 4",
				co.metrics.rebalances.Value())
		}

		// The coordinator's metrics page stays valid exposition throughout,
		// with the elasticity metrics present.
		page, err := client.New(front.URL).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := server.ValidateExposition(page); err != nil {
			t.Fatalf("coordinator /metrics: %v", err)
		}
		for _, name := range []string{
			"ircluster_members", "ircluster_rebalances_total",
			"ircluster_breaker_state", "ircluster_breaker_opens_total",
			"ircluster_worker_up",
		} {
			if !strings.Contains(page, name) {
				t.Errorf("coordinator /metrics missing %s", name)
			}
		}

		stopRejoin()
		stopStay()
		downKill()
		downDrain()
		downStay()
		down()
	}()
	leak()
}

// TestBreakerIsolatesFailingWorker turns one of two workers into a 500
// machine (up, but failing): after BreakerThreshold consecutive failures
// its breaker opens and traffic stops reaching it, while solves keep
// succeeding on the healthy worker; once the worker heals, the half-open
// probe closes the breaker again.
func TestBreakerIsolatesFailingWorker(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 2, func(cfg *Config) {
			cfg.BreakerThreshold = 2
			cfg.BreakerCooldown = time.Second
		})
		var shardHits atomic.Int64
		fail := func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != server.ShardPrefix+"solve" {
				return false
			}
			shardHits.Add(1)
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"injected failure","code":500}`))
			return true
		}
		workers[0].respond.Store(&fail)

		// Shard placement is rendezvous-hashed per plan fingerprint, so cycle
		// system shapes to guarantee some shards rank the failing worker
		// first regardless of the random test ports.
		specs := make([]*server.SolveRequest, 8)
		wants := make([]*ir.PlanSolution, len(specs))
		for i := range specs {
			specs[i] = chainSpec(64 + 4*i)
			wants[i] = localSolution(t, specs[i])
		}
		next := 0
		solveOK := func() {
			t.Helper()
			k := next % len(specs)
			next++
			got, err := co.Solve(context.Background(), specs[k])
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			assertSameSolution(t, got, wants[k])
		}

		// Drive solves until the failing worker's breaker opens. Every
		// answer stays correct: failures retry onto the healthy worker.
		name := workers[0].ts.URL
		waitFor(t, 10*time.Second, "breaker to open", func() bool {
			solveOK()
			return co.member(name).br.snapshot() == breakerOpen
		})
		if co.metrics.breakerOpens.Value() == 0 {
			t.Fatal("breaker opened without incrementing ircluster_breaker_opens_total")
		}
		if got := co.metrics.breakerState.Value(name); got != breakerOpen {
			t.Fatalf("ircluster_breaker_state = %d, want %d (open)", got, breakerOpen)
		}
		// A 500 is the worker's fault, not a liveness signal: it must stay
		// in the fleet (the breaker, not the prober, isolates it).
		if !co.member(name).isUp() {
			t.Fatal("500-ing worker marked down; breakers should isolate it instead")
		}

		// While the breaker is open (inside the cooldown) the worker
		// receives no traffic.
		quiet := shardHits.Load()
		solveOK()
		solveOK()
		if got := shardHits.Load(); got != quiet {
			t.Fatalf("open breaker leaked %d requests to the failing worker", got-quiet)
		}

		// Heal the worker: the next half-open probe succeeds, the breaker
		// closes, and traffic returns.
		workers[0].respond.Store(nil)
		waitFor(t, 10*time.Second, "breaker to close", func() bool {
			solveOK()
			return co.member(name).br.snapshot() == breakerClosed
		})
		if got := co.metrics.breakerState.Value(name); got != breakerClosed {
			t.Fatalf("ircluster_breaker_state = %d after recovery, want closed", got)
		}
		down()
	}()
	leak()
}

// TestAbandonedProbeDoesNotBlackholeWorker reproduces the breaker-latch
// regression at the scatter level: a half-open probe whose request dies
// with the solve context (caller-side cancellation, no worker-attributable
// outcome) must release the probe slot. Before the fix the abandoned probe
// left probing latched forever, blackholing the worker from every future
// solve.
func TestAbandonedProbeDoesNotBlackholeWorker(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 1, func(cfg *Config) {
			cfg.BreakerThreshold = 1
			cfg.BreakerCooldown = 50 * time.Millisecond
			cfg.ProbeInterval = 20 * time.Millisecond // liveness self-heals
		})
		name := workers[0].ts.URL
		br := co.member(name).br

		// Trip the breaker: one 500 opens it (threshold 1); the solve falls
		// back locally and still answers.
		fail := func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != server.ShardPrefix+"solve" {
				return false
			}
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"injected failure","code":500}`))
			return true
		}
		workers[0].respond.Store(&fail)
		spec := singleChainSpec()
		want := localSolution(t, spec)
		got, err := co.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("solve during trip: %v", err)
		}
		assertSameSolution(t, got, want)
		if br.snapshot() != breakerOpen {
			t.Fatalf("breaker = %s after a threshold-1 failure, want open", breakerStateName(br.snapshot()))
		}
		workers[0].respond.Store(nil)

		// After the cooldown, hang the half-open probe until its request
		// context dies and run a solve under a short deadline: the probe is
		// admitted, then abandoned by the cancellation.
		time.Sleep(60 * time.Millisecond)
		hang := func(r *http.Request) bool {
			if r.URL.Path != server.ShardPrefix+"solve" {
				return true
			}
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return false // abort the connection, as a dead request would
		}
		workers[0].intercept.Store(&hang)
		sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, err = co.Solve(sctx, spec)
		scancel()
		if err == nil {
			t.Fatal("hung-probe solve succeeded; the probe was never in flight")
		}
		workers[0].intercept.Store(nil)

		// The abandoned probe must not latch the breaker: once the hung
		// attempt settles, a fresh probe is re-admitted and real traffic
		// closes the breaker again.
		waitFor(t, 5*time.Second, "the probe slot to be released", func() bool {
			settle, ok := br.allow()
			if ok {
				settle(outcomeAbandoned)
			}
			return ok
		})
		waitFor(t, 10*time.Second, "the breaker to close on live traffic", func() bool {
			got, err := co.Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("post-recovery solve: %v", err)
			}
			assertSameSolution(t, got, want)
			return br.snapshot() == breakerClosed
		})
		down()
	}()
	leak()
}

// TestRetryAfterHonored sheds the first shard request with 429 and a 1s
// Retry-After hint under a 250ms MaxRetryAfter clamp: the retry must wait
// at least the clamped hint (far above the millisecond base backoff) but
// not the full advertised second.
func TestRetryAfterHonored(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 1, func(cfg *Config) {
			cfg.MaxRetryAfter = 250 * time.Millisecond
		})
		var shed atomic.Bool
		shedOnce := func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != server.ShardPrefix+"solve" || !shed.CompareAndSwap(false, true) {
				return false
			}
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"busy","code":429}`))
			return true
		}
		workers[0].respond.Store(&shedOnce)

		// Single chain → single shard → the one shed and its retry dominate
		// the wall clock.
		spec := singleChainSpec()
		want := localSolution(t, spec)
		start := time.Now()
		got, err := co.Solve(context.Background(), spec)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("solve across a shed: %v", err)
		}
		assertSameSolution(t, got, want)
		if !shed.Load() {
			t.Fatal("the 429 never fired")
		}
		if co.metrics.retries.Value() == 0 {
			t.Fatal("shed shard was not retried")
		}
		if elapsed < 240*time.Millisecond {
			t.Fatalf("solve finished in %v; the Retry-After hint was not honored", elapsed)
		}
		if elapsed > 900*time.Millisecond {
			t.Fatalf("solve took %v; the 1s hint was not clamped to MaxRetryAfter", elapsed)
		}
		down()
	}()
	leak()
}

// TestHedgeLoserCancelledPromptly holds the first shard request hostage
// until its request context dies: the hedge must win on the other worker
// and the coordinator must cancel the loser as soon as the winner lands —
// not when the solve or some outer deadline would have expired.
func TestHedgeLoserCancelledPromptly(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 2, func(cfg *Config) {
			cfg.HedgeAfter = 20 * time.Millisecond
		})
		var first atomic.Bool
		released := make(chan time.Time, 1)
		block := func(r *http.Request) bool {
			if r.URL.Path == server.ShardPrefix+"solve" && first.CompareAndSwap(false, true) {
				// Drain the body so the server's background read can detect
				// the client abort and cancel r.Context().
				_, _ = io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
					released <- time.Now()
				case <-time.After(10 * time.Second):
				}
				return false // abort; the winner already answered
			}
			return true
		}
		for _, tw := range workers {
			tw.intercept.Store(&block)
		}

		spec := singleChainSpec()
		want := localSolution(t, spec)
		got, err := co.Solve(context.Background(), spec)
		won := time.Now()
		if err != nil {
			t.Fatalf("hedged solve: %v", err)
		}
		assertSameSolution(t, got, want)
		if co.metrics.hedges.Value() == 0 {
			t.Fatal("no hedge fired for the blocked shard")
		}
		select {
		case at := <-released:
			if lag := at.Sub(won); lag > 500*time.Millisecond {
				t.Fatalf("loser cancelled %v after the winner landed; want prompt", lag)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("losing request never saw cancellation after the hedge won")
		}
		down()
	}()
	leak()
}
