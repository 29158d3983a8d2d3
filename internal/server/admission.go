package server

import (
	"context"
	"errors"
	"sync"

	"indexedrec/internal/parallel"
)

// Admission control and the worker pool. Every solve is a job. Jobs pass
// through one bounded multi-tenant queue; when the queue is full the
// submitter sheds load (HTTP 429 upstream) instead of queueing unboundedly.
// A fixed pool of workers drains the queue, so at most Workers solves run
// concurrently and solver-internal parallelism (Options.Procs goroutines
// per solve) composes with request-level parallelism into a bounded total.
//
// Tenancy refines both ends of the queue. Each request carries a tenant
// (the X-IR-Tenant header; absent means DefaultTenant) and every tenant
// owns a FIFO of its queued jobs. Dequeue is weighted fair queueing over
// those FIFOs: each job is tagged with a virtual finish time
// max(tenant vtime, pool vclock) + 1/weight at enqueue, and workers always
// run the job with the smallest tag, so a tenant with weight w receives a
// w-proportional share of worker slots under contention while idle tenants
// lose nothing. Admission enforces a per-tenant MaxQueued quota, and when
// the global queue is full a submitter with higher priority evicts the
// newest queued job of the lowest-priority tenant below it (the evicted
// request answers 429) instead of being refused itself.

// errShed is returned by submit when the queue is full.
var errShed = errors.New("server: queue full, load shed")

// errTenantShed is returned by submit when the tenant's own MaxQueued
// quota is exhausted, regardless of global queue occupancy.
var errTenantShed = errors.New("server: tenant queue quota exceeded, load shed")

// errDraining is returned by submit once shutdown has begun.
var errDraining = errors.New("server: draining, not accepting work")

// DefaultTenant is the tenant requests without an X-IR-Tenant header are
// accounted under.
const DefaultTenant = "default"

// TenantConfig tunes one tenant's share of the admission queue; the zero
// value means weight 1, priority 0, no per-tenant quota.
type TenantConfig struct {
	// Weight is the tenant's WFQ share: under contention a tenant with
	// weight w gets w/(sum of active weights) of the worker slots
	// (default 1; values < 1 are raised to 1).
	Weight int
	// Priority orders tenants for load shedding: when the queue is full, a
	// higher-priority submitter evicts the newest queued job of the
	// lowest-priority tenant strictly below it. Equal priorities never
	// evict each other (default 0).
	Priority int
	// MaxQueued bounds this tenant's queued (not yet running) jobs; 0
	// means no per-tenant bound beyond the global queue.
	MaxQueued int
}

func (c TenantConfig) weight() float64 {
	if c.Weight < 1 {
		return 1
	}
	return float64(c.Weight)
}

// job is one unit of solver work. run executes on a worker goroutine and is
// responsible for delivering its own results (each handler waits on its own
// result channel). The context run receives is the job's own ctx, wrapped
// with the worker's persistent gang (when the server runs solves in
// parallel), so every solve of a worker's lifetime shares one set of parked
// solver goroutines.
type job struct {
	ctx context.Context
	run func(ctx context.Context)

	// tenant names the admission account; empty means DefaultTenant.
	tenant string
	// tag is the WFQ virtual finish time, assigned at enqueue.
	tag float64
	// shed, when non-nil, marks the job evictable under priority shedding
	// and delivers the shed outcome to its waiting handler. It must not
	// block (handlers use buffered result channels).
	shed func()
}

// tenantQueue is one tenant's slice of the admission queue.
type tenantQueue struct {
	name  string
	cfg   TenantConfig
	jobs  []*job
	vtime float64 // virtual finish time of the newest enqueued job
}

// evictable reports whether the tenant holds at least one shed-capable job.
func (tq *tenantQueue) evictable() bool {
	for _, j := range tq.jobs {
		if j.shed != nil {
			return true
		}
	}
	return false
}

// pool is the bounded multi-tenant admission queue plus its workers.
type pool struct {
	depthBound int
	procs      int // per-solve parallelism; sizes each worker's gang
	cfgs       map[string]TenantConfig
	onShed     func(tenant string) // metrics hook; never nil

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	queued  int     // jobs across all tenant FIFOs
	vclock  float64 // pool-wide virtual time floor for new tags
	closed  bool
	wg      sync.WaitGroup
}

func newPool(workers, depth, procs int, tenants map[string]TenantConfig, onShed func(string)) *pool {
	if onShed == nil {
		onShed = func(string) {}
	}
	p := &pool{
		depthBound: depth,
		procs:      procs,
		cfgs:       tenants,
		onShed:     onShed,
		tenants:    make(map[string]*tenantQueue),
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// tenantLocked returns (creating on first use) the named tenant's queue.
func (p *pool) tenantLocked(name string) *tenantQueue {
	if name == "" {
		name = DefaultTenant
	}
	tq := p.tenants[name]
	if tq == nil {
		tq = &tenantQueue{name: name, cfg: p.cfgs[name]}
		p.tenants[name] = tq
	}
	return tq
}

// gcLocked drops a tenant queue holding no state the scheduler needs: no
// queued jobs and a vtime at or behind the pool vclock — recreating such a
// queue tags new jobs identically (start = vclock), so the drop is
// invisible to WFQ. Called after every dequeue and shed, it keeps the
// tenants map bounded even when clients send arbitrary X-IR-Tenant names.
func (p *pool) gcLocked(tq *tenantQueue) {
	if len(tq.jobs) == 0 && tq.vtime <= p.vclock {
		delete(p.tenants, tq.name)
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	// Each worker owns one gang for its whole lifetime: the solvers find it
	// pinned on the job context and reuse it across every round of every
	// solve, so steady-state service traffic spawns no solver goroutines at
	// all. Width is the per-solve procs budget (requests are clamped to it);
	// a budget of 1 means sequential solves and no gang.
	var g *parallel.Gang
	if p.procs > 1 {
		g = parallel.NewGang(p.procs)
		defer g.Close()
	}
	for {
		j := p.next()
		if j == nil {
			return
		}
		if j.ctx.Err() != nil {
			// The requester gave up (deadline or disconnect) while the
			// job sat in the queue; its run func observes ctx and
			// reports the cancellation without doing solver work.
			j.run(j.ctx)
			continue
		}
		ctx := parallel.WithGang(j.ctx, g)
		runSafely(func() { j.run(ctx) })
	}
}

// next blocks until a job is available (returning the fair-queueing pick)
// or the pool has closed and drained (returning nil).
func (p *pool) next() *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.queued > 0 {
			var best *tenantQueue
			for _, tq := range p.tenants {
				if len(tq.jobs) == 0 {
					continue
				}
				if best == nil || tq.jobs[0].tag < best.jobs[0].tag ||
					(tq.jobs[0].tag == best.jobs[0].tag && tq.name < best.name) {
					best = tq
				}
			}
			j := best.jobs[0]
			best.jobs[0] = nil
			best.jobs = best.jobs[1:]
			p.queued--
			if j.tag > p.vclock {
				p.vclock = j.tag
			}
			p.gcLocked(best)
			return j
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// enqueueLocked tags j with its WFQ virtual finish time and appends it to
// its tenant's FIFO.
func (p *pool) enqueueLocked(tq *tenantQueue, j *job) {
	start := tq.vtime
	if p.vclock > start {
		start = p.vclock
	}
	j.tag = start + 1/tq.cfg.weight()
	tq.vtime = j.tag
	tq.jobs = append(tq.jobs, j)
	p.queued++
	p.cond.Signal()
}

// evictLocked frees one queue slot for a submitter with the given priority:
// it sheds the newest evictable job of the lowest-priority tenant strictly
// below priority, reporting whether a slot was freed.
func (p *pool) evictLocked(priority int) bool {
	var victim *tenantQueue
	for _, tq := range p.tenants {
		if tq.cfg.Priority >= priority || !tq.evictable() {
			continue
		}
		if victim == nil || tq.cfg.Priority < victim.cfg.Priority ||
			(tq.cfg.Priority == victim.cfg.Priority && tq.name < victim.name) {
			victim = tq
		}
	}
	if victim == nil {
		return false
	}
	for i := len(victim.jobs) - 1; i >= 0; i-- {
		j := victim.jobs[i]
		if j.shed == nil {
			continue
		}
		victim.jobs = append(victim.jobs[:i], victim.jobs[i+1:]...)
		p.queued--
		p.onShed(victim.name)
		j.shed()
		p.gcLocked(victim)
		return true
	}
	return false
}

// submit enqueues j under its tenant, failing fast with errTenantShed when
// the tenant's quota is spent, errShed when the queue is full and no
// lower-priority victim exists, or errDraining after shutdown began. It
// never blocks.
func (p *pool) submit(j *job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errDraining
	}
	tq := p.tenantLocked(j.tenant)
	if q := tq.cfg.MaxQueued; q > 0 && len(tq.jobs) >= q {
		p.onShed(tq.name)
		p.gcLocked(tq)
		return errTenantShed
	}
	if p.queued >= p.depthBound && !p.evictLocked(tq.cfg.Priority) {
		p.onShed(tq.name)
		// A shed request must not leave behind the queue its lookup
		// created, or arbitrary tenant names grow the map without bound.
		p.gcLocked(tq)
		return errShed
	}
	p.enqueueLocked(tq, j)
	return nil
}

// runSafely executes fn, swallowing any panic that escaped the solver's own
// recovery (the ctx solvers recover worker panics already; this guards the
// glue code so one bad request can never kill the daemon's worker pool).
func runSafely(fn func()) {
	var err error
	defer parallel.RecoverTo(&err)
	fn()
}

// depth reports the number of queued (not yet running) jobs.
func (p *pool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// close stops intake, wakes the workers to drain the queued jobs, and waits
// for queued and running jobs to finish.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
