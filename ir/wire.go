package ir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
)

// Wire types: the JSON shapes a System and SolveOptions take on the network.
// internal/server and its client both marshal through these, so the service
// protocol is defined next to the API it transports rather than inside the
// server. The field names are the paper's (g, f, h over m cells, n
// iterations), lower-cased for JSON convention.

// Ints is an []int that decodes from JSON in one pass over its bytes rather
// than through encoding/json's reflection, element by element. It has the
// same wire form as []int: it has no MarshalJSON, so encoding/json encodes it
// by its kind, byte for byte as a plain []int. Decoding accepts what
// json.Unmarshal accepts into an []int, with one exception: a null element
// is rejected, where encoding/json would leave a zero in its place and so
// silently describe a different system. A null array still decodes to nil.
// A rejected element is reported as a *json.UnmarshalTypeError whose Offset
// is the element's byte offset in the input.
type Ints []int

// Int64s is the []int64 counterpart of Ints, with the same decoding rules.
type Int64s []int64

// UnmarshalJSON decodes a JSON array of integers (see Ints).
func (s *Ints) UnmarshalJSON(b []byte) error {
	v, err := scanInts[int](b, strconv.IntSize)
	if err == nil {
		*s = v
	}
	return err
}

// UnmarshalJSON decodes a JSON array of integers (see Ints).
func (s *Int64s) UnmarshalJSON(b []byte) error {
	v, err := scanInts[int64](b, 64)
	if err == nil {
		*s = v
	}
	return err
}

// SystemWire is the JSON form of a System — and, when Cells is present, of a
// SparseSystem: m is then the global cell count, cells the sorted touched
// global indices, and g/f/h index maps over compact ids 0..len(cells)-1.
// Init arrays accompanying a sparse wire system have length len(cells), in
// compact order, so a request's payload scales with the touched count
// rather than the global array size.
type SystemWire struct {
	M     int  `json:"m"`
	N     int  `json:"n"`
	G     Ints `json:"g"`
	F     Ints `json:"f"`
	H     Ints `json:"h,omitempty"`
	Cells Ints `json:"cells,omitempty"`
}

// WireFromSystem converts a System to its wire form (slices are shared, not
// copied — marshal before mutating).
func WireFromSystem(s *System) SystemWire {
	return SystemWire{M: s.M, N: s.N, G: s.G, F: s.F, H: s.H}
}

// WireFromSparse converts a sparse system to its wire form (slices shared,
// not copied): the compact maps plus the touched-cell list and global M.
func WireFromSparse(sp *SparseSystem) SystemWire {
	return SystemWire{
		M:     sp.M,
		N:     sp.Compact.N,
		G:     sp.Compact.G,
		F:     sp.Compact.F,
		H:     sp.Compact.H,
		Cells: sp.Cells,
	}
}

// IsSparse reports whether the wire system uses the sparse encoding.
func (w SystemWire) IsSparse() bool { return len(w.Cells) > 0 }

// Sparse converts a sparse wire form back, validating the touched-cell list
// (sorted, distinct, in range) and compact maps; defects wrap
// ErrInvalidSparse. An omitted n is inferred from len(g).
func (w SystemWire) Sparse() (*SparseSystem, error) {
	if !w.IsSparse() {
		return nil, fmt.Errorf("%w: no touched-cell list (dense encoding: use System)", ErrInvalidSparse)
	}
	g, f := w.G, w.F
	if g == nil {
		g = []int{}
	}
	if f == nil {
		f = []int{}
	}
	if w.N != 0 && w.N != len(g) {
		return nil, fmt.Errorf("%w: n = %d, want len(g) = %d", ErrInvalidSparse, w.N, len(g))
	}
	return SparseFromCompact(w.M, w.Cells, g, f, w.H)
}

// System converts the wire form back and validates it structurally, so a
// malformed request fails with ErrInvalidSystem before reaching a solver.
// An omitted n is inferred from len(g). Sparse-encoded wire systems must be
// decoded with Sparse instead; calling System on one is an error (the
// compact ids would silently misread as global indices).
func (w SystemWire) System() (*System, error) {
	if w.IsSparse() {
		return nil, fmt.Errorf("%w: sparse encoding (cells present): decode with Sparse", ErrInvalidSparse)
	}
	n := w.N
	if n == 0 {
		n = len(w.G)
	}
	s := &System{M: w.M, N: n, G: w.G, F: w.F, H: w.H}
	if s.G == nil {
		s.G = []int{}
	}
	if s.F == nil {
		s.F = []int{}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// OptionsWire is the JSON form of SolveOptions plus the per-request deadline.
type OptionsWire struct {
	// Procs bounds solver-internal goroutines; 0 lets the server choose.
	Procs int `json:"procs,omitempty"`
	// MaxExponentBits caps CAP trace-exponent growth (general solves).
	MaxExponentBits int `json:"max_exponent_bits,omitempty"`
	// TimeoutMs is the client's solve deadline in milliseconds; 0 means
	// the server default. Servers clamp it to their configured maximum.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Options converts the wire form to SolveOptions; the deadline is the
// transport's concern and is applied by the server, not here.
func (w OptionsWire) Options() (SolveOptions, error) {
	if w.Procs < 0 {
		return SolveOptions{}, fmt.Errorf("%w: procs = %d, want >= 0", ErrInvalidSystem, w.Procs)
	}
	if w.TimeoutMs < 0 {
		return SolveOptions{}, fmt.Errorf("%w: timeout_ms = %d, want >= 0", ErrInvalidSystem, w.TimeoutMs)
	}
	return SolveOptions{Procs: w.Procs, MaxExponentBits: w.MaxExponentBits}, nil
}

// scanInts parses b, one JSON value with optional surrounding whitespace,
// as null (nil) or an array of integer literals that fit in bits. It checks
// the whole JSON grammar itself, since direct callers hand it unvalidated
// bytes. An element that is not an integer in range (a fraction, an
// exponent, an overflow, or any non-number value) is a type error, as
// strconv.ParseInt would make it. The result's capacity comes from the comma
// count, which bounds the element count of any valid array, so a large
// allocation needs an equally large body.
func scanInts[T int | int64](b []byte, bits int) ([]T, error) {
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], []byte("null")) {
		if j := skipSpace(b, i+4); j < len(b) {
			return nil, syntaxError(b, j)
		}
		return nil, nil
	}
	if i == len(b) || b[i] != '[' {
		return nil, valueError[[]T](b, i, "number")
	}
	out := make([]T, 0, bytes.Count(b, []byte(","))+1)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			start := i
			var v int64
			var ok bool
			if v, i, ok = parseInt(b, start, bits); !ok {
				if i = numberEnd(b, start); i < 0 {
					return nil, valueError[T](b, start, "")
				}
				return nil, valueError[T](b, start, "number "+string(b[start:i]))
			}
			out = append(out, T(v))
			i = skipSpace(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			return nil, syntaxError(b, i)
		}
	}
	if i = skipSpace(b, i); i < len(b) {
		return nil, syntaxError(b, i)
	}
	return out, nil
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the index just past the JSON number that starts at
// b[i] (optional minus, integer part, optional fraction and exponent), or
// -1 when b[i:] does not start with a well-formed number.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt reads the integer literal at b[i:] (optional minus, then 0 or a
// digit string without a leading zero) and returns its value and end. ok is
// false when no digits follow, when a fraction or exponent follows, or when
// the value does not fit in bits: strconv.ParseInt's failures, which the
// caller then tells apart from grammar errors with numberEnd.
func parseInt(b []byte, i, bits int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	d := i
	var u uint64
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			u = u*10 + uint64(b[i]-'0')
		}
	}
	// Up to 19 digits cannot wrap a uint64, so u is exact when checked.
	if i == d || i-d > 19 || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, false
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if u > limit {
		return 0, i, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// valueError reports the value at b[i] as not decodable into T, in
// encoding/json's own *UnmarshalTypeError form, so json.Unmarshal adds the
// struct field path. A value is named by its first byte; number describes
// one that starts like a number, and "" (or a byte that starts no JSON
// value) makes it a syntax error.
func valueError[T any](b []byte, i int, number string) error {
	var what string
	if i < len(b) {
		switch c := b[i]; {
		case c == 'n':
			what = "null"
		case c == 't' || c == 'f':
			what = "bool"
		case c == '"':
			what = "string"
		case c == '[':
			what = "array"
		case c == '{':
			what = "object"
		case c == '-' || '0' <= c && c <= '9':
			what = number
		}
	}
	if what == "" {
		return syntaxError(b, i)
	}
	return &json.UnmarshalTypeError{Value: what, Type: reflect.TypeFor[T](), Offset: int64(i)}
}

// syntaxError reports a JSON grammar error at b[i].
func syntaxError(b []byte, i int) error {
	if i >= len(b) {
		return fmt.Errorf("invalid JSON integer array: unexpected end of input")
	}
	return fmt.Errorf("invalid JSON integer array: invalid character %q at offset %d", b[i], i)
}
