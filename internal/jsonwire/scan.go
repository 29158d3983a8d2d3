package jsonwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
)

// Ints parses b, one JSON value with optional surrounding whitespace, as
// null (nil) or an array of integer literals that fit in bits. It checks the
// whole JSON grammar itself, since callers hand it unvalidated bytes. An
// element that is not an integer in range (a fraction, an exponent, an
// overflow, or any non-number value) is a type error, as strconv.ParseInt
// would make it, reported as a *json.UnmarshalTypeError whose Offset is the
// element's byte offset in b.
func Ints[T int | int64](b []byte, bits int) ([]T, error) {
	i := SkipSpace(b, 0)
	if bytes.HasPrefix(b[i:], []byte("null")) {
		if j := SkipSpace(b, i+4); j < len(b) {
			return nil, syntaxError(b, j)
		}
		return nil, nil
	}
	if i == len(b) || b[i] != '[' {
		return nil, valueError[[]T](b, i, "number")
	}
	out, i, err := IntsAt[T](b, i, bits)
	if err != nil {
		return nil, err
	}
	if i = SkipSpace(b, i); i < len(b) {
		return nil, syntaxError(b, i)
	}
	return out, nil
}

// IntsAt parses the integer array that opens at b[i] == '[' and returns it
// with the index just past its closing bracket; what follows is the
// caller's. Errors are Ints's, with offsets into b. The result's capacity
// is elementBound's.
func IntsAt[T int | int64](b []byte, i, bits int) ([]T, int, error) {
	out := make([]T, 0, elementBound(b, i))
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1, nil
	}
	for {
		start := i
		var v int64
		var ok bool
		if v, i, ok = ParseInt(b, start, bits); !ok {
			if i = NumberEnd(b, start); i < 0 {
				return nil, 0, valueError[T](b, start, "")
			}
			return nil, 0, valueError[T](b, start, "number "+string(b[start:i]))
		}
		out = append(out, T(v))
		i = SkipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = SkipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return out, i + 1, nil
		}
		return nil, 0, syntaxError(b, i)
	}
}

// elementBound bounds the element count of the number array that opens at
// b[i]: one more than the commas before the first ']', which closes any
// array of numbers. Counting them is a vectorized scan, so a large
// allocation needs an equally large array in the body.
func elementBound(b []byte, i int) int {
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		end = len(b) - i
	}
	return bytes.Count(b[i:i+end], []byte(",")) + 1
}

// SkipSpace returns the index of the first non-whitespace byte at or after i.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// NumberEnd returns the index just past the JSON number that starts at
// b[i] (optional minus, integer part, optional fraction and exponent), or
// -1 when b[i:] does not start with a well-formed number.
func NumberEnd(b []byte, i int) int {
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
	for i+8 <= len(b) {
		n := digitRun(binary.LittleEndian.Uint64(b[i:]))
		if i += n; n < 8 {
			return i
		}
	}
	for _, c := range b[i:] {
		if c-'0' > 9 {
			break
		}
		i++
	}
	return i
}

// digitRun counts the ASCII digits that open the 8 bytes of x (loaded
// little-endian, so its low byte comes first). Each byte is xored with '0',
// leaving 0-9 for a digit; adding 0x76 to its low seven bits carries into
// the high bit for 10-127, and the byte's own high bit covers the rest.
func digitRun(x uint64) int {
	t := x ^ 0x3030303030303030
	h := ((t & 0x7f7f7f7f7f7f7f7f) + 0x7676767676767676) | t
	return bits.TrailingZeros64(h&0x8080808080808080) >> 3
}

// digitsValue is the decimal value of the first n (0 to 8) digits of x, a
// little-endian load: shifted to the top bytes, with zeros as leading
// digits, they are combined pairwise by multiplications. (A shift by 64
// leaves 0, so n = 0 gives 0.)
func digitsValue(x uint64, n int) uint64 {
	v := (x & 0x0f0f0f0f0f0f0f0f) << (8 * (8 - n))
	v = (v * (1 + 10<<8)) >> 8 & 0x00ff00ff00ff00ff
	v = (v * (1 + 100<<16)) >> 16 & 0x0000ffff0000ffff
	return (v * (1 + 10000<<32)) >> 32
}

// ParseInt reads the integer literal at b[i:] (optional minus, then 0 or a
// digit string without a leading zero) and returns its value and end. ok is
// false when no digits follow, when a fraction or exponent follows, or when
// the value does not fit in bits: strconv.ParseInt's failures, which a
// caller tells apart from grammar errors with NumberEnd.
func ParseInt(b []byte, i, bits int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	d := i
	var u uint64
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		u, i = digitsAt(b, i, 0)
	}
	// Up to 19 digits cannot wrap a uint64, so u is exact when checked;
	// longer runs may wrap, and are rejected.
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

// digitsAt reads the run of ASCII digits at b[i:], eight bytes at a time
// while they last and then byte by byte, appending them to u as decimal
// digits. It returns the new value, exact only for runs that keep it under
// 2⁶⁴ (callers count the digits, i minus where the run started), and the
// run's end.
func digitsAt(b []byte, i int, u uint64) (uint64, int) {
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		n := digitRun(x)
		u = u*pow10[n] + digitsValue(x, n)
		if i += n; n < 8 {
			return u, i
		}
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	return u, i
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// ParseFloat reads the JSON number at b[i:] as encoding/json decodes one
// into a float64, in one pass over its bytes, and returns the value and the
// number's end. ok is false when b[i:] does not start with a well-formed
// number or the value overflows float64: the literals json.Unmarshal
// refuses.
//
// The mantissa's digits (integer part and fraction) and the exponent are
// read as integers. When the mantissa is below 2⁵³ (and at most 19 digits
// were read, so it did not wrap) and the decimal exponent within ±22, both
// are exact float64 values and one multiplication or division rounds
// correctly (Clinger's fast path), so the result is the correctly rounded
// value strconv.ParseFloat returns, -0 included. Any other literal is
// handed to strconv.ParseFloat on the same bytes.
func ParseFloat(b []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	d := i
	var man uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		man, i = digitsAt(b, i, 0)
	default:
		return 0, i, false
	}
	digits, exp := i-d, 0
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if man, i = digitsAt(b, j, man); i == j {
			return 0, i, false
		}
		digits += i - j
		exp = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		var e uint64
		if e, i = digitsAt(b, j, 0); i == j {
			return 0, i, false
		}
		if i-j > 4 {
			e = 1 << 16 // beyond the fast path however it wrapped
		}
		if eneg {
			exp -= int(e)
		} else {
			exp += int(e)
		}
	}
	if digits <= 19 && man < 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(man)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
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
