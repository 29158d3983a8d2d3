// Package jsonwire holds the one-pass JSON primitives of the solve wire: an
// integer-array scanner, a Walker that reads a canonical subset of JSON left
// to right, and appenders that write numbers, strings and integer arrays
// byte for byte as encoding/json does.
//
// Two rules keep every caller equal to encoding/json:
//
//   - The scanner (Ints, IntsAt) checks the whole JSON grammar of its array
//     itself and accepts exactly what json.Unmarshal accepts into a plain
//     []int or []int64, except that a null element is rejected.
//   - The Walker never reports an error. It accepts a document only when
//     every byte lies inside the canonical subset it knows (exact keys, no
//     string escapes, no non-ASCII bytes, no null values), and its caller
//     then knows that encoding/json would have decoded the same values.
//     Anything else fails the walk, and the caller falls back to
//     encoding/json, which decodes or rejects the document as it always
//     has.
//
// The appenders write what json.Marshal writes for the same Go value; for a
// value they do not cover (a non-finite float) they report failure, and the
// caller falls back to json.Marshal for its error.
package jsonwire
