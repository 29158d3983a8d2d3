package jsonwire

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
)

// AppendInts appends v as json.Marshal writes an []int or []int64: null
// for a nil slice, otherwise the decimal elements in brackets.
func AppendInts[T int | int64](dst []byte, v []T) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for k, x := range v {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// IntsLen is the length AppendInts writes for a non-empty v, plus one for
// a caller's closing newline: callers size their buffers with it once.
func IntsLen[T int | int64](v []T) int {
	n := len(v) + 2 // commas, brackets and the newline
	for _, x := range v {
		u := uint64(x)
		if x < 0 {
			u = -u
			n++
		}
		n += decimalDigits(u)
	}
	return n
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalDigits is the number of decimal digits of u (1 for 0):
// log10(2)·bits, rounded down, is at most one short.
func decimalDigits(u uint64) int {
	d := bits.Len64(u) * 1233 >> 12
	if d < len(pow10) && u >= pow10[d] {
		d++
	}
	return max(d, 1)
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up
// (magnitudes), with a one-digit negative exponent left unpadded. ok is
// false for NaN and ±Inf, which json.Marshal refuses.
func AppendFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendFloats appends v as json.Marshal writes a []float64 (null for nil);
// ok is false if an element is not finite.
func AppendFloats(dst []byte, v []float64) (out []byte, ok bool) {
	if v == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for k, x := range v {
		if k > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = AppendFloat(dst, x); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// AppendString appends s as json.Marshal writes a string. Printable ASCII
// other than the quote, the backslash and the HTML-sensitive <, > and & is
// copied as is; any other string is written by json.Marshal itself, which
// escapes those bytes and replaces invalid UTF-8.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// IsCompactNumberArray reports whether b is exactly a JSON array of numbers
// with no whitespace: bytes that json.Marshal copies unchanged from a
// json.RawMessage.
func IsCompactNumberArray(b []byte) bool {
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return false
	}
	if len(b) == 2 {
		return true
	}
	for i := 1; ; {
		if i = NumberEnd(b, i); i < 0 {
			return false
		}
		switch {
		case i == len(b)-1:
			return true
		case b[i] != ',':
			return false
		}
		i++
	}
}
