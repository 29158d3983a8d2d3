package jsonwire

import (
	"bytes"
	"iter"
)

// Walker reads one JSON document left to right in a single pass, without
// encoding/json's separate validation pass. It takes only a canonical
// subset of the grammar: objects, integer and number arrays, integer and
// float numbers, true and false, and strings of printable ASCII without
// escapes. Whitespace between tokens is allowed. Any other byte, or a value
// the caller does not expect, fails the walk for good, and Done reports
// false; the caller then decodes the document with encoding/json instead.
// Values read after a failure are zero and must be discarded.
//
// The cursor always rests on the first byte of the next token.
type Walker struct {
	b  []byte
	i  int
	ok bool
}

// NewWalker starts a walk over the whole document b.
func NewWalker(b []byte) *Walker {
	return &Walker{b: b, i: SkipSpace(b, 0), ok: true}
}

// Fail fails the walk: the caller met a key or value it does not take.
func (w *Walker) Fail() { w.ok = false }

// Done reports whether the walk succeeded and consumed the whole document.
func (w *Walker) Done() bool { return w.ok && w.i == len(w.b) }

// next consumes the byte c and any whitespace after it.
func (w *Walker) next(c byte) bool {
	if !w.ok || w.i >= len(w.b) || w.b[w.i] != c {
		w.ok = false
		return false
	}
	w.i = SkipSpace(w.b, w.i+1)
	return true
}

// Object yields the keys of the object at the cursor in order, with the
// cursor on the key's value; the loop body must read the value (or call
// Fail). A key is only valid until the next step. Leaving the loop early
// fails the walk.
func (w *Walker) Object() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		if !w.next('{') {
			return
		}
		if w.i < len(w.b) && w.b[w.i] == '}' {
			w.i = SkipSpace(w.b, w.i+1)
			return
		}
		for w.ok {
			key := w.str()
			if !w.next(':') {
				return
			}
			if !yield(key) {
				w.ok = false
				return
			}
			if !w.ok || w.i >= len(w.b) {
				w.ok = false
				return
			}
			switch w.b[w.i] {
			case ',':
				w.i = SkipSpace(w.b, w.i+1)
			case '}':
				w.i = SkipSpace(w.b, w.i+1)
				return
			default:
				w.ok = false
			}
		}
	}
}

// str reads a string of printable ASCII without escapes and returns its
// contents, aliasing the document.
func (w *Walker) str() []byte {
	if !w.ok || w.i >= len(w.b) || w.b[w.i] != '"' {
		w.ok = false
		return nil
	}
	for j := w.i + 1; j < len(w.b); j++ {
		switch c := w.b[j]; {
		case c == '"':
			s := w.b[w.i+1 : j]
			w.i = SkipSpace(w.b, j+1)
			return s
		case c < 0x20 || c >= 0x80 || c == '\\':
			w.ok = false
			return nil
		}
	}
	w.ok = false
	return nil
}

// Text reads a string value (see str).
func (w *Walker) Text() string { return string(w.str()) }

// Bool reads true or false.
func (w *Walker) Bool() bool {
	switch {
	case !w.ok:
	case bytes.HasPrefix(w.b[w.i:], []byte("true")):
		w.i = SkipSpace(w.b, w.i+4)
		return true
	case bytes.HasPrefix(w.b[w.i:], []byte("false")):
		w.i = SkipSpace(w.b, w.i+5)
		return false
	}
	w.ok = false
	return false
}

// Int reads an integer literal that fits in bits, as encoding/json decodes
// one into a Go integer of that size.
func (w *Walker) Int(bits int) int64 {
	if !w.ok {
		return 0
	}
	v, j, ok := ParseInt(w.b, w.i, bits)
	if !ok {
		w.ok = false
		return 0
	}
	w.i = SkipSpace(w.b, j)
	return v
}

// Float reads a number as encoding/json decodes one into a float64 (see
// ParseFloat), out-of-range values failing.
func (w *Walker) Float() float64 {
	if !w.ok {
		return 0
	}
	f, j, ok := ParseFloat(w.b, w.i)
	if !ok {
		w.ok = false
		return 0
	}
	w.i = SkipSpace(w.b, j)
	return f
}

// Null reads a null if the cursor holds one, reporting whether it did.
func (w *Walker) Null() bool {
	if !w.ok || !bytes.HasPrefix(w.b[w.i:], []byte("null")) {
		return false
	}
	w.i = SkipSpace(w.b, w.i+4)
	return true
}

// IntArray reads an integer array (not null) with IntsAt, as ir.Ints and
// ir.Int64s decode one.
func IntArray[T int | int64](w *Walker, bits int) []T {
	if !w.ok || w.i >= len(w.b) || w.b[w.i] != '[' {
		w.ok = false
		return nil
	}
	v, j, err := IntsAt[T](w.b, w.i, bits)
	if err != nil {
		w.ok = false
		return nil
	}
	w.i = SkipSpace(w.b, j)
	return v
}

// Floats reads a number array (not null) as encoding/json decodes one into
// a []float64, each element with ParseFloat in the same pass; an empty
// array is empty, not nil. The result's capacity is counted as IntsAt
// counts it.
func (w *Walker) Floats() []float64 {
	if !w.ok || w.i >= len(w.b) || w.b[w.i] != '[' {
		w.ok = false
		return nil
	}
	out := make([]float64, 0, elementBound(w.b, w.i))
	i := SkipSpace(w.b, w.i+1)
	if i < len(w.b) && w.b[i] == ']' {
		w.i = SkipSpace(w.b, i+1)
		return out
	}
	for {
		f, j, ok := ParseFloat(w.b, i)
		if !ok {
			w.ok = false
			return nil
		}
		out = append(out, f)
		i = SkipSpace(w.b, j)
		if i < len(w.b) && w.b[i] == ',' {
			i = SkipSpace(w.b, i+1)
			continue
		}
		if i < len(w.b) && w.b[i] == ']' {
			w.i = SkipSpace(w.b, i+1)
			return out
		}
		w.ok = false
		return nil
	}
}

// NumberArray checks that the cursor holds an array of numbers (no null or
// other elements) and returns its bytes, from '[' to ']', aliasing the
// document: the bytes encoding/json would hand a json.RawMessage.
func (w *Walker) NumberArray() []byte {
	if !w.ok || w.i >= len(w.b) || w.b[w.i] != '[' {
		w.ok = false
		return nil
	}
	start := w.i
	i := SkipSpace(w.b, w.i+1)
	if i < len(w.b) && w.b[i] == ']' {
		return w.arrayEnd(start, i)
	}
	for {
		if i = NumberEnd(w.b, i); i < 0 {
			w.ok = false
			return nil
		}
		i = SkipSpace(w.b, i)
		if i < len(w.b) && w.b[i] == ',' {
			i = SkipSpace(w.b, i+1)
			continue
		}
		if i < len(w.b) && w.b[i] == ']' {
			return w.arrayEnd(start, i)
		}
		w.ok = false
		return nil
	}
}

// arrayEnd moves past the ']' at b[i] of the array that opened at start and
// returns the array's bytes.
func (w *Walker) arrayEnd(start, i int) []byte {
	w.i = SkipSpace(w.b, i+1)
	return w.b[start : i+1]
}
