// Package cluster is the distributed-solve layer over irserved workers: a
// coordinator that compiles (or cache-loads) a solve plan, cuts its shard
// domain along the paper's own parallel structure — chains of the ordinary
// write-chain forest, output cells for the general and Möbius families —
// scatters the shards to workers' POST /v1/shard/solve, and gathers the
// slices back into a solution bit-identical to ir.Plan.SolveCtx.
//
// The fleet is elastic: besides the static Config.Workers list, workers
// self-register over POST /v1/cluster/register and hold heartbeat leases; a
// missed lease removes the worker (its shards re-home to the next
// rendezvous rank on the next solve) and a graceful drain deregisters it
// explicitly. Placement uses rendezvous hashing on (plan fingerprint,
// shard), so membership changes only move the departed or arrived worker's
// shards while survivors keep their plan/arena affinity. Each worker sits
// behind a circuit breaker (closed → open on consecutive failures →
// half-open probe); failures are retried with jittered backoff onto the
// next-ranked worker under a per-solve retry budget, honoring Retry-After
// hints from shedding workers. Stragglers get a single hedged duplicate
// whose loser is cancelled as soon as a winner lands, and a fleet with no
// reachable workers degrades to a local in-process solve. Stdlib only,
// like everything else in the repo.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers lists static worker base URLs ("http://host:port"). Bare
	// host:port entries get an http:// prefix. The list may be empty: an
	// elastic fleet populates itself through /v1/cluster/register.
	Workers []string
	// MaxRetries bounds per-shard re-sends after the first attempt
	// (default 3); RetryBudget bounds re-sends across a whole solve
	// (default 4 + 2·shards, negative disables retries entirely).
	MaxRetries int
	// RetryBudget is the per-solve retry budget shared by all of a
	// solve's shards (0 selects the 4 + 2·shards default; negative
	// disables retries).
	RetryBudget int
	// RetryBackoff is the base backoff between a shard's attempts; each
	// retry waits backoff·attempt plus up to 50% jitter (default 50ms). A
	// shedding worker's Retry-After hint stretches the wait up to
	// MaxRetryAfter.
	RetryBackoff time.Duration
	// MaxRetryAfter caps how long a worker's Retry-After hint can stretch
	// one backoff (default 2s).
	MaxRetryAfter time.Duration
	// HedgeAfter is how long a shard request may run before a duplicate is
	// hedged onto the next-ranked worker (default 2s; 0 keeps the default,
	// negative disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval is the health-probe period for static workers
	// (default 5s; negative disables background probing). Self-registered
	// workers are governed by their lease instead.
	ProbeInterval time.Duration
	// LeaseTTL is how long a self-registered worker stays in the fleet
	// without a heartbeat (default 5s, minimum 100ms). Workers heartbeat
	// at TTL/3.
	LeaseTTL time.Duration
	// ClusterToken, when non-empty, is the shared secret the membership
	// endpoints (register/heartbeat/deregister) require in the
	// X-IR-Cluster-Token header; requests without it answer 401, so only
	// holders of the token can add or remove fleet members. Leave empty
	// ONLY when the cluster API is reachable solely from a trusted network:
	// an open membership API lets anyone route shard payloads to an
	// arbitrary address or deregister legitimate workers.
	ClusterToken string
	// BreakerThreshold is how many consecutive worker-attributable
	// failures open a worker's circuit breaker (default 3; negative
	// disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// its half-open probe (default 5s).
	BreakerCooldown time.Duration
	// RequestTimeout caps one shard HTTP request (default 60s); the solve
	// ctx's deadline still applies on top.
	RequestTimeout time.Duration
	// PlanCacheBytes bounds the coordinator's own compiled-plan cache
	// (default 256 MiB, negative disables).
	PlanCacheBytes int64
	// MaxN bounds accepted system sizes on the HTTP front-end (default
	// 4,194,304, as irserved).
	MaxN int
	// MaxExponentBits caps CAP trace-exponent growth for general solves
	// (default 16384, as irserved); requests may lower it but not raise it.
	MaxExponentBits int
	// Procs bounds local-fallback solver parallelism (default GOMAXPROCS
	// via the solvers' own defaulting).
	Procs int
	// Logger receives worker lifecycle events; nil means log.Default().
	Logger *log.Logger
}

func (c *Config) setDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.MaxRetryAfter == 0 {
		c.MaxRetryAfter = 2 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.LeaseTTL < 100*time.Millisecond {
		c.LeaseTTL = 100 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 256 << 20
	}
	if c.MaxN == 0 {
		c.MaxN = 4 << 20
	}
	if c.MaxExponentBits <= 0 {
		c.MaxExponentBits = 16384
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
}

// worker is one irserved instance in the fleet.
type worker struct {
	name   string // display name and membership key (the advertised address)
	client *client.Client
	br     *breaker

	mu      sync.Mutex
	up      bool
	version string // reported at registration, for mixed-fleet diagnosis
	// dynamic marks a self-registered member whose liveness is governed by
	// its heartbeat lease; static members are probe-governed instead.
	dynamic bool
	lease   time.Time // lease deadline; meaningful only when dynamic
}

// setUp transitions the worker's liveness, returning whether it changed.
func (w *worker) setUp(up bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.up == up {
		return false
	}
	w.up = up
	return true
}

func (w *worker) isUp() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.up
}

// Coordinator owns the fleet view and executes distributed solves. Create
// with New, serve its Handler, stop with Close.
type Coordinator struct {
	cfg     Config
	reg     *server.Registry
	metrics *clusterMetrics
	plans   *server.PlanCache
	mux     *http.ServeMux
	// allowed maps registered route paths to their methods, feeding the
	// JSON 404/405 fallbacks (see fallbackRoutes).
	allowed map[string][]string

	mmu     sync.RWMutex
	members map[string]*worker

	smu      sync.Mutex
	sessions map[string]*streamEntry

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeDone   chan struct{}
	leaseDone   chan struct{}

	// base parents every request ctx (requestContext); a drain whose
	// deadline passes cancels it, so in-flight solves answer at once.
	base       context.Context
	cancelBase context.CancelFunc

	// maxBody bounds request bodies on the HTTP front-end: maxRequestBytes,
	// lowered only by tests.
	maxBody int64
}

// maxRequestBytes is the front-end's request body limit; a larger body
// answers 400 "request body exceeds N bytes".
const maxRequestBytes = 64 << 20

// New builds a Coordinator, registers its static workers (one synchronous
// probe each, logging the worker's reported build version), and starts the
// background health prober and missed-lease detector. Elastic members join
// later through the registration endpoints.
func New(cfg Config) *Coordinator {
	cfg.setDefaults()
	co := &Coordinator{
		cfg:       cfg,
		reg:       server.NewRegistry(),
		members:   make(map[string]*worker),
		sessions:  make(map[string]*streamEntry),
		probeDone: make(chan struct{}),
		leaseDone: make(chan struct{}),
		maxBody:   maxRequestBytes,
	}
	co.base, co.cancelBase = context.WithCancel(context.Background())
	co.metrics = newClusterMetrics(co.reg)
	if cfg.PlanCacheBytes > 0 {
		co.plans = server.NewPlanCache(cfg.PlanCacheBytes, co.metrics.planCacheMetrics())
	}
	for _, addr := range cfg.Workers {
		base := addr
		if !hasScheme(base) {
			base = "http://" + base
		}
		co.addMember(co.newWorker(addr, base, false))
	}
	co.probeCtx, co.probeCancel = context.WithCancel(context.Background())
	for _, w := range co.memberList() {
		co.probe(co.probeCtx, w)
	}
	co.metrics.members.Set(int64(len(co.members)))
	go co.probeLoop()
	go co.leaseLoop()
	co.routes()
	return co
}

// newWorker builds a member (static or dynamic) with its pooled client and
// circuit breaker wired to the breaker metrics.
func (co *Coordinator) newWorker(name, base string, dynamic bool) *worker {
	w := &worker{
		name:    name,
		client:  client.NewPooled(base, co.cfg.RequestTimeout),
		dynamic: dynamic,
	}
	w.br = newBreaker(co.cfg.BreakerThreshold, co.cfg.BreakerCooldown, func(state int) {
		co.metrics.breakerState.Set(int64(state), name)
		if state == breakerOpen {
			co.metrics.breakerOpens.Inc()
			co.cfg.Logger.Printf("ircluster: worker %s breaker open", name)
		}
	})
	co.metrics.breakerState.Set(breakerClosed, name)
	return w
}

func hasScheme(addr string) bool {
	for i := 0; i < len(addr); i++ {
		switch addr[i] {
		case ':':
			return i+2 < len(addr) && addr[i+1] == '/' && addr[i+2] == '/'
		case '/', '?', '#':
			return false
		}
	}
	return false
}

// probe checks one static worker's health, updating liveness and — on a
// fresh registration or a down→up transition — logging its build version.
// Dynamic members are lease-governed and skipped.
func (co *Coordinator) probe(ctx context.Context, w *worker) {
	w.mu.Lock()
	dynamic := w.dynamic
	w.mu.Unlock()
	if dynamic {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := w.client.Healthz(ctx)
	up := err == nil
	changed := w.setUp(up)
	co.metrics.workerUp.Set(boolGauge(up), w.name)
	if !changed {
		return
	}
	co.fleetChanged()
	if !up {
		co.cfg.Logger.Printf("ircluster: worker %s down: %v", w.name, err)
		return
	}
	version := "(unknown)"
	if v, err := w.client.Version(ctx); err == nil {
		version = fmt.Sprintf("%s go %s rev %.12s", v.Version, v.Go, v.Revision)
		w.mu.Lock()
		w.version = version
		w.mu.Unlock()
	}
	co.cfg.Logger.Printf("ircluster: worker %s up, version %s", w.name, version)
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// probeLoop re-probes the static fleet every ProbeInterval until Close.
func (co *Coordinator) probeLoop() {
	defer close(co.probeDone)
	if co.cfg.ProbeInterval < 0 {
		<-co.probeCtx.Done()
		return
	}
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.probeCtx.Done():
			return
		case <-t.C:
			for _, w := range co.memberList() {
				co.probe(co.probeCtx, w)
			}
		}
	}
}

// Registry exposes the coordinator's metrics registry.
func (co *Coordinator) Registry() *server.Registry { return co.reg }

// Close stops the health prober and lease detector. In-flight solves
// finish under their own contexts.
func (co *Coordinator) Close() {
	co.probeCancel()
	<-co.probeDone
	<-co.leaseDone
}

// ErrNoWorkers reports a scatter attempted against an empty or fully-down
// fleet; Solve converts it into a local fallback.
var ErrNoWorkers = errors.New("ircluster: no reachable workers")
