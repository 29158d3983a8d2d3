// Package moebius implements the paper's §3 application of the ordinary-IR
// solver: parallelizing linear indexed recurrences
//
//	X[g(i)] := A[i]·X[f(i)] + B[i]
//	X[g(i)] := X[g(i)] + A[i]·X[f(i)] + B[i]          (extended form)
//	X[g(i)] := (A[i]·X[f(i)] + B[i]) / (C[i]·X[f(i)] + D[i])   (full Möbius)
//
// by the Möbius transformation (the paper's Lemma 2): each update is the
// fractional-linear map φ(x) = (Ax+B)/(Cx+D) — the affine forms are C = 0,
// D = 1, which every entry point reads from nil C and D rows, so they run
// the same code as the full form — maps compose by 2×2 matrix
// multiplication (M_{φ∘ψ} = M_φ·M_ψ), and composing along each write chain
// is an ordinary IR problem over the guarded matrix product ⊙. The final
// value of a cell is its composed map applied to the initial value of its
// chain's root.
//
// # Operand order
//
// ordinary.Solve folds each trace left-to-right with the chain's DEEPEST
// iteration leftmost, while map composition needs the deepest iteration
// INNERMOST (rightmost in the matrix product). ChainOp therefore multiplies
// in reversed order, Combine(a, b) = b·a; reversal of an associative
// operation is associative, so the solver's regrouping stays valid.
//
// # The guard
//
// The paper defines A ⊙ B = A when det(A) = 0, else A·B: a singular matrix
// is a constant map, and composing a constant outer map with anything is
// the constant map itself; keeping the original matrix avoids collapsing to
// the zero matrix (which would represent no map at all). In ChainOp's
// reversed order the outer map is the right operand.
//
// # Roots and shadow cells
//
// The matrix encoding initializes cell c to the matrix of the iteration
// writing c. An iteration that reads cell c BEFORE c's (later) write must
// see the identity map instead — its read is of the initial value, not of
// the chain through c. The solver redirects such reads to fresh "shadow"
// cells holding the identity, then maps chain roots back to original cells
// when applying the composed map to initial values. The rewrite preserves
// distinct g and loop semantics exactly.
//
// # Plans and concurrency
//
// CompilePlan precomputes everything above that depends only on (m, g, f) —
// the shadow rewrite and the ordinary-solver schedule — so repeated solves
// over the same index maps pay only the numeric phase. Plan.SolveCtx,
// SolveArenaCtx and SolveRangeCtx share one load-and-guard step and one
// apply step, so they replay bit-identically to the direct entry points and
// fail with the same errors. A Plan is immutable after CompilePlan returns
// and safe for concurrent solves from any number of goroutines.
package moebius
