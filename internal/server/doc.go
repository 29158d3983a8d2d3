// Package server is the solve service over the hardened solver runtime: an
// HTTP API (stdlib only; JSON, or the packed binary form of codec.go when a
// client asks for it) exposing the ordinary, general, linear/Möbius,
// grid2d and loop-source solvers behind admission control (bounded queue, load
// shedding), a compiled-plan LRU cache, a worker pool sized off GOMAXPROCS,
// and built-in
// observability (/healthz, /readyz, Prometheus /metrics). cmd/irserved is a
// thin daemon over this package; the client subpackage is the matching Go
// client.
//
// # Request path
//
// Every solve request is decoded once and validated before admission (client
// mistakes cost no worker time), then queued; a full queue sheds with 429 +
// Retry-After. Every plan family — ordinary and general (dense or sparse),
// linear and Möbius, grid2d — decodes into one SolveRequest (Decode, and
// DecodeShard for the /v1/shard/solve worker endpoint; the coordinator
// decodes with the same Decode), and every route runs one solve path: plan
// by fingerprint, replay whole or one shard, shape the response. A session
// open decodes into a SolveRequest too (DecodeSessionOpen, through the same
// decoders, so it answers every defect as the solve route of its family),
// which is folded into a session instead of replayed; the coordinator
// pins the session by that request's Fingerprint. The loop route turns each
// parallel leaf of its loop into a SolveRequest (ir.LoopLeaf) and resolves
// it on the same path, so loops share plans with the solve routes. Every
// float answer leaving a replay, shard or session passes CheckFinite: an
// overflow answers 422, never a 5xx. A general compile runs under a term
// budget (Limits.CompileTerms), so a structure whose path counts would
// hold gigabytes answers 422 instead. Every pooled route —
// solve, loop, shard, session open and append — passes one admission
// function: the draining gate, decode, pool submission, shed and deadline
// wait.
// Workers execute solves under the request's context, so deadlines and
// client disconnects abandon work promptly.
// Solves resolve their structure through the plan cache (see
// plancache.go): requests sharing an index-map fingerprint reuse one
// compiled plan and pay only the data phase; DESIGN.md §9 has the diagram.
// Streaming sessions compile nothing and bypass the cache.
//
// # Invariants
//
// Responses are bit-identical whether a solve compiled its plan or replayed
// a cached one — caching is a performance layer, never a semantic one.
// Every admitted
// request gets exactly one response; Shutdown drains in-flight work before
// the pool exits, cancelling it if the drain's own ctx ends first.
//
// # Concurrency
//
// Server is safe for concurrent use by any number of HTTP clients. Internal
// state is guarded per-structure (the pool's queue, the plan cache's
// mutex, atomic metrics); handlers share no
// mutable per-request state.
package server
