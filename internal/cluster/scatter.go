package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// Solve runs one distributed solve: plan, partition, scatter, gather,
// merge. The coordinator compiles or cache-loads the request's plan itself
// — Partition and MergeShards read the compiled structure — and every
// shard is ranked by the plan's one key, so rendezvous plan affinity warms
// workers with one plan per structure. A grid pipelines row bands instead
// (scatterGrid2D). Any scatter-level failure — including an empty fleet —
// degrades to a local in-process solve, so the coordinator answers
// whenever a single machine could; only a worker's refusal of the request
// itself (a non-retryable 4xx) is the answer as it stands. Results are
// bit-identical to ir.Plan.SolveCtx by the shard layer's contract; a float
// answer with a NaN or ±Inf is refused with ir.ErrNonFinite (422), as on
// irserved.
func (co *Coordinator) Solve(ctx context.Context, req *server.SolveRequest) (*ir.PlanSolution, error) {
	sol, err := co.solve(ctx, req)
	if err == nil {
		err = server.CheckFinite("values_float", sol.ValuesFloat)
	}
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// solve is Solve before the finiteness check of its merged or local
// answer.
func (co *Coordinator) solve(ctx context.Context, req *server.SolveRequest) (*ir.PlanSolution, error) {
	key := req.Fingerprint()
	p, err := server.PlanFor(co.plans, ctx, key, req.Compile)
	if err != nil {
		return nil, err
	}
	if req.Data.WithPowers {
		// Power traces are a whole-plan artifact; the shard path does not
		// carry them.
		return p.SolveCtx(ctx, req.Data)
	}
	if req.Family == ir.FamilyGrid2D {
		sol, err := co.scatterGrid2D(ctx, p, key, req)
		if err != nil {
			return co.solveLocally(ctx, p, req, err)
		}
		return sol, nil
	}
	parts, err := co.scatter(ctx, p, key, req)
	if err != nil {
		return co.solveLocally(ctx, p, req, err)
	}
	return p.MergeShards(req.Data, parts)
}

// solveLocally is Solve's fallback after the scatter failed with err: the
// whole plan replayed in process, unless the solve's own ctx ended or a
// worker refused the request itself. A non-retryable worker answer (a 4xx
// such as the 422 of an overflowing float solve) is a defect of the
// request that a local replay would only reach again, so that
// *client.APIError is the answer, and the front passes on its status and
// message.
func (co *Coordinator) solveLocally(ctx context.Context, p *ir.Plan, req *server.SolveRequest, err error) (*ir.PlanSolution, error) {
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && !retryable(apiErr) {
		return nil, apiErr
	}
	co.metrics.fallbacks.Inc()
	if !errors.Is(err, ErrNoWorkers) {
		co.cfg.Logger.Printf("ircluster: scatter failed (%v); solving locally", err)
	}
	return p.SolveCtx(ctx, req.Data)
}

// scatter partitions the plan over the live fleet and executes every shard
// remotely, gathering the slices in shard order. key is the plan's cache
// key, which ranks the workers of every shard.
func (co *Coordinator) scatter(ctx context.Context, p *ir.Plan, key string, sr *server.SolveRequest) ([]*ir.ShardSolution, error) {
	ws := co.alive()
	if len(ws) == 0 {
		return nil, ErrNoWorkers
	}
	shards := p.Partition(len(ws))
	if len(shards) == 0 {
		// Empty shard domain (no writes): the merge of zero parts is the
		// init-copy answer, no network needed.
		return nil, nil
	}
	base, err := sr.ShardRequest(ctx)
	if err != nil {
		return nil, err
	}

	// The retry budget is per solve, not per shard: all shards draw from
	// one pool, so a flapping fleet cannot multiply retries by shard count.
	var budget atomic.Int64
	budget.Store(co.retryBudget(len(shards)))

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]*ir.ShardSolution, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh ir.Shard) {
			defer wg.Done()
			req := base
			req.Shard = server.ShardWire{Lo: sh.Lo, Hi: sh.Hi}
			prefs := rankWorkers(ws, key, i)
			resp, err := co.solveShard(sctx, req, prefs, &budget)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d [%d, %d): %w", i, sh.Lo, sh.Hi, err)
				cancel() // no point finishing the rest; we fall back locally
				return
			}
			parts[i] = &ir.ShardSolution{
				Shard:       ir.Shard{Lo: resp.Shard.Lo, Hi: resp.Shard.Hi},
				Cells:       resp.Cells,
				ValuesInt:   resp.ValuesInt,
				ValuesFloat: resp.ValuesFloat,
				Values:      resp.Values,
			}
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return parts, nil
}

// retryBudget resolves the per-solve retry budget for a scatter of the
// given shard count.
func (co *Coordinator) retryBudget(shards int) int64 {
	if co.cfg.RetryBudget < 0 {
		return 0
	}
	if co.cfg.RetryBudget > 0 {
		return int64(co.cfg.RetryBudget)
	}
	return int64(4 + 2*shards)
}

// solveShard executes one shard with bounded retries (jittered backoff
// stretched by Retry-After hints, next-ranked worker — the re-scatter
// path) and a single hedged duplicate for stragglers, cancelled as soon as
// a winner lands. prefs is the shard's rendezvous ranking of the fleet;
// workers whose circuit breaker is open are skipped. budget is the solve's
// shared retry pool; retries beyond MaxRetries per shard or an exhausted
// budget fail the shard (and the solve then falls back locally).
func (co *Coordinator) solveShard(ctx context.Context, req server.ShardRequest, prefs []*worker, budget *atomic.Int64) (*server.ShardResponse, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in any straggler the hedge raced against

	maxSends := 1 + co.cfg.MaxRetries
	type attempt struct {
		resp  *server.ShardResponse
		err   error
		w     *worker
		start time.Time
	}
	resCh := make(chan attempt, maxSends+1) // +1: the hedge; buffered so stragglers never block
	sends, idx := 0, 0
	// launch sends to the next breaker-admitted worker in preference order,
	// reporting false when every breaker refuses. The send goroutine itself
	// settles the breaker when the request finishes — not the receive loop —
	// so an attempt abandoned mid-flight (another worker won and sctx was
	// cancelled, or the solve ctx expired) still releases its half-open
	// probe slot instead of latching the breaker.
	launch := func(counter *server.Counter) bool {
		for tried := 0; tried < len(prefs); tried++ {
			w := prefs[idx%len(prefs)]
			idx++
			settle, ok := w.br.allow()
			if !ok {
				continue
			}
			sends++
			if counter != nil {
				counter.Inc()
			}
			go func() {
				start := time.Now()
				resp, err := w.client.SolveShard(sctx, req)
				switch {
				case err == nil:
					settle(outcomeSuccess)
				case breakerFailure(err):
					settle(outcomeFailure)
				default:
					settle(outcomeAbandoned)
				}
				resCh <- attempt{resp: resp, err: err, w: w, start: start}
			}()
			return true
		}
		return false
	}
	co.metrics.shards.Inc()
	if !launch(nil) {
		return nil, fmt.Errorf("ircluster: every worker's circuit breaker is open")
	}
	inflight := 1

	var hedgeC <-chan time.Time // nil channel: never fires
	if co.cfg.HedgeAfter > 0 && len(prefs) > 1 {
		t := time.NewTimer(co.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case a := <-resCh:
			inflight--
			if a.err == nil {
				// Cancel the losing side (a straggler the hedge or a retry
				// raced against) before anything else, so its connection and
				// goroutine unwind while we record the win.
				cancel()
				co.metrics.shardLatency.Observe(time.Since(a.start).Seconds())
				return a.resp, nil
			}
			lastErr = a.err
			co.noteFailure(a.w, a.err)
			if !retryable(a.err) {
				return nil, a.err
			}
			if sends < maxSends && budget.Add(-1) >= 0 {
				if err := sleepCtx(ctx, co.retryDelay(sends, a.err)); err != nil {
					return nil, err
				}
				if launch(co.metrics.retries) {
					inflight++
				} else {
					// Nothing was sent (every breaker refused): refund the
					// budget unit so no-op retries cannot drain the solve's
					// pool under a fully-open fleet.
					budget.Add(1)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if sends < maxSends && launch(co.metrics.hedges) {
				inflight++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// breakerFailure reports whether err should count against the worker's
// circuit breaker: transport failures and overload/5xx responses do,
// request errors (4xx) and caller-side cancellation do not.
func breakerFailure(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.IsShed()
	}
	return true
}

// retryDelay is the wait before retry number attempt (1-based): the
// jittered backoff, stretched to honor a shedding worker's Retry-After
// hint (clamped to MaxRetryAfter).
func (co *Coordinator) retryDelay(attempt int, err error) time.Duration {
	d := co.backoff(attempt)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
		if d > co.cfg.MaxRetryAfter {
			d = co.cfg.MaxRetryAfter
		}
	}
	return d
}

// noteFailure marks a worker down on transport-level errors (a static
// worker's probe or a dynamic worker's next heartbeat brings it back);
// HTTP-level errors leave liveness alone.
func (co *Coordinator) noteFailure(w *worker, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if w.setUp(false) {
		co.metrics.workerUp.Set(0, w.name)
		co.cfg.Logger.Printf("ircluster: worker %s down: %v", w.name, err)
		co.fleetChanged()
	}
}

// retryable reports whether another worker could plausibly answer: network
// failures and overload/5xx responses retry, request errors (4xx) do not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.IsShed()
	}
	return true
}

// backoff returns the jittered delay before retry number attempt (1-based):
// base·attempt plus up to 50% random jitter.
func (co *Coordinator) backoff(attempt int) time.Duration {
	d := co.cfg.RetryBackoff * time.Duration(attempt)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
