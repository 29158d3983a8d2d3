// Package scan implements the classical parallel-prefix machinery the paper
// builds on (its references [2] Stone and [4] Kogge–Stone): sequential and
// parallel prefix combine (scan), the first-order linear recurrence
// x[i] = a[i]·x[i-1] + b[i] via scan over affine maps, and order-k linear
// recurrences via scan over companion matrices.
//
// The sequential Inclusive, LinearRecurrence and KTermRecurrence are the
// reference loops. Their parallel counterparts share one code path: the
// prefix is the paper's ordinary IR over the chain g(i) = i+1, f(i) = i,
// compiled with ordinary.ChainPlan (CompilePlan's plan for that chain,
// built without g or f tables) and replayed on the ordinary engine, whose
// auto schedule picks the work-optimal blocked scan for long chains and
// pointer jumping for short ones (DESIGN §14).
//
// Invariants and contracts:
//
//   - The parallel functions fold the same operand sequence in the same
//     order as the sequential ones and differ only in association. For
//     exactly associative ops the outputs are bit-identical to the
//     sequential Inclusive; float results may differ by re-association
//     rounding only.
//   - All functions are pure: inputs are never mutated, every call returns
//     fresh output storage, and the package holds no state — concurrent
//     calls are safe. Parallelism is internal and joined before return.
//   - A panic in the op is recovered by the ordinary engine with every
//     worker joined. KTermRecurrenceParallel returns it as its error;
//     InclusiveParallel and LinearRecurrenceParallel, which have no error
//     return, re-raise it in the caller's goroutine as a
//     *parallel.PanicError.
//
// These are the baselines of experiment E14 (DESIGN.md): a linear
// recurrence can be solved by the classical scan route or by the paper's
// Möbius-matrix OrdinaryIR route.
package scan
