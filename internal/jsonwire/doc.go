// Package jsonwire holds the one-pass JSON primitives of the solve wire: an
// integer-array scanner, a float scanner, a Walker that reads a canonical
// subset of JSON left to right, appenders that write numbers, strings and
// arrays byte for byte as encoding/json does, and the field tables that
// drive both directions for a whole struct (Decode, Append) and the packed
// binary form of the same struct (AppendPacked, DecodePacked; see
// packed.go).
//
// Three rules keep every caller equal to encoding/json:
//
//   - The scanners check the grammar of what they read themselves. Ints and
//     IntsAt accept exactly what json.Unmarshal accepts into a plain []int
//     or []int64, except that a null element is rejected. ParseFloat
//     returns strconv.ParseFloat's value bit for bit: Clinger's exact path
//     when the mantissa is below 2⁵³ and the decimal exponent within ±22,
//     strconv.ParseFloat itself on the same bytes otherwise.
//   - The Walker never reports an error. It accepts a document only when
//     every byte lies inside the canonical subset it knows (exact keys, no
//     string escapes, no non-ASCII bytes, null only where the caller asks
//     for it), and its caller then knows that encoding/json would have
//     decoded the same values. Anything else fails the walk, and the caller
//     falls back to encoding/json, which decodes or rejects the document as
//     it always has.
//   - The appenders write what json.Marshal writes for the same Go value;
//     for a value they do not cover (a non-finite float, a field kind the
//     table lacks) they report failure, and the caller falls back to
//     json.Marshal for its bytes or its error.
package jsonwire
