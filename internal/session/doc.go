// Package session implements streaming (incremental) solves: a Session is a
// live indexed-recurrence system whose iteration stream keeps growing, with
// the solved state advanced per append instead of re-solved from scratch.
//
// The families reuse their own incremental structure:
//
//   - ordinary: distinct g makes every written cell's value final, so the
//     prefix is a settled materialization and each appended iteration is one
//     Combine against it (ordinary.Resume);
//   - Möbius/linear: the same settled-prefix argument plus a running
//     composed 2×2 map per write chain, folded in O(1) per appended
//     coefficient row (moebius.Resume) — the compact re-home snapshot;
//   - general (GIR): cells may be rewritten, so each appended iteration is
//     folded sequentially (gir.AppendFold, the semantic definition itself),
//     with no path counts and so no MaxExponentBits limit.
//
// A session keeps only that fold state plus the concatenated G/F (and H)
// its fingerprint hashes. It compiles no plan: a cluster re-home replays
// the append log, and a cold solve compiles on its own.
//
// Correctness contract: after any sequence of appends a session's values
// are bit-identical to core.RunSequential of the concatenated system — the
// repo's semantic oracle. For exactly-associative operators (the integer
// library) that is also bit-identical to a cold parallel solve of the
// concatenated system; float operators relate to the parallel schedule the
// same way the direct solvers do (reassociation rounding). The fuzzer
// FuzzSessionAppendAgainstColdSolve enforces both claims.
//
// Store adds the service-side lifecycle: ID allocation, idle-TTL eviction,
// a byte-accounted LRU bound, and drain. Sessions are internally locked, so
// concurrent appends and a concurrent eviction serialize safely: eviction
// only marks the session closed — an in-flight append finishes on the still
// -valid state and later appends fail with ErrClosed.
package session
