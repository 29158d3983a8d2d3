package jsonwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"unicode/utf8"
	"unsafe"
)

// The packed form of a wire struct: the same field table that drives the
// JSON walk and append, written as binary. A packed body is PackedMagic,
// the 4-byte little-endian schema hash of the struct's table, then every
// field of the table in declaration order, with no keys:
//
//   - int, int64: a zigzag varint (encoding/binary's AppendVarint);
//   - float64: 8 bytes, the IEEE-754 bits little-endian;
//   - bool: one byte, 0 or 1;
//   - string: a uvarint byte length, then the bytes (valid UTF-8);
//   - []int, []int64, []float64, json.RawMessage: a uvarint of the length
//     plus one, 0 standing for nil, then the elements as above (a raw
//     message as its bytes, which json.Marshal must write unchanged: null
//     for a nil one, and an init row is a compact number array; whoever
//     reads the field parses it);
//   - a nested struct: its fields, inline;
//   - a pointer to a struct: one presence byte, 0 for nil, 1 followed by
//     the struct's fields;
//   - a field of a kind the table does not carry: nothing.
//
// A packed body decodes to what json.Unmarshal makes of json.Marshal's
// bytes for the same value, so the two encodings are interchangeable:
// AppendPacked declines (and the caller writes JSON) where the JSON form
// would change the value or refuse it — a non-finite float, a string that
// is not valid UTF-8, a raw message json.Marshal compacts or escapes, a
// non-empty field of a kind the table lacks — and writes an empty
// omitempty field as its zero value, as JSON drops it. DecodePacked refuses
// a non-finite float, invalid UTF-8 and out-of-range integers for the same
// reason.
//
// Decoding allocates at most 8 bytes per body byte, plus one struct per
// pointer field: every length is checked against the bytes left before
// the make, at one byte per integer and eight per float.

// PackedMagic starts every packed body. No JSON document starts with a NUL
// byte, so the first byte tells the two encodings apart.
const PackedMagic = "\x00IRP"

// packedHeader is the length of PackedMagic plus the schema hash.
const packedHeader = len(PackedMagic) + 4

// IsPacked reports whether b starts with PackedMagic.
func IsPacked(b []byte) bool { return bytes.HasPrefix(b, []byte(PackedMagic)) }

// AppendPacked appends the packed form of v, a struct or a pointer to one.
// ok is false, with dst returned as it was, when v holds a value the
// packed form does not carry (see above); the caller then writes JSON.
func AppendPacked(dst []byte, v any) (out []byte, ok bool) {
	p, tb := addressOf(v)
	out = slices.Grow(dst, packedHeader+tb.packedSize(p))
	out = append(out, PackedMagic...)
	out = binary.LittleEndian.AppendUint32(out, tb.schema)
	if out, ok = tb.pack(out, p); !ok {
		return dst, false
	}
	return out, true
}

func (t *table) pack(dst []byte, p unsafe.Pointer) ([]byte, bool) {
	for i := range t.fields {
		f := &t.fields[i]
		fp := unsafe.Add(p, f.off)
		if f.omitEmpty && isEmpty(reflect.NewAt(f.typ, fp).Elem()) {
			switch f.kind {
			case kOther:
			case kFloat:
				dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
			default: // a zero integer, an empty string, false, nil
				dst = append(dst, 0)
			}
			continue
		}
		ok := true
		switch f.kind {
		case kInt:
			dst = binary.AppendVarint(dst, int64(*(*int)(fp)))
		case kInt64:
			dst = binary.AppendVarint(dst, *(*int64)(fp))
		case kFloat:
			dst, ok = packFloat(dst, *(*float64)(fp))
		case kString:
			s := *(*string)(fp)
			ok = utf8.ValidString(s)
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		case kBool:
			dst = append(dst, 0)
			if *(*bool)(fp) {
				dst[len(dst)-1] = 1
			}
		case kInts:
			dst = packInts(dst, *(*[]int)(fp))
		case kInt64s:
			dst = packInts(dst, *(*[]int64)(fp))
		case kFloats:
			v := *(*[]float64)(fp)
			dst = packLen(dst, v == nil, len(v))
			for _, x := range v {
				if dst, ok = packFloat(dst, x); !ok {
					break
				}
			}
		case kRaw:
			raw := *(*[]byte)(fp)
			if raw == nil {
				raw = []byte("null") // json.Marshal's form of a nil message
			}
			ok = marshalsAsIs(raw)
			dst = append(packLen(dst, false, len(raw)), raw...)
		case kStruct:
			dst, ok = f.sub.pack(dst, fp)
		case kPointer:
			if sp := *(*unsafe.Pointer)(fp); sp == nil {
				dst = append(dst, 0)
			} else {
				dst, ok = f.sub.pack(append(dst, 1), sp)
			}
		default:
			ok = false
		}
		if !ok {
			return dst, false
		}
	}
	return dst, true
}

// marshalsAsIs reports whether json.Marshal writes the raw message as it
// is: a compact number array always, anything else only if it is compact,
// valid JSON with nothing json.Marshal escapes.
func marshalsAsIs(raw []byte) bool {
	if IsCompactNumberArray(raw) {
		return true
	}
	b, err := json.Marshal(json.RawMessage(raw))
	return err == nil && bytes.Equal(b, raw)
}

// packLen appends a slice header: 0 for nil, otherwise the length plus one.
func packLen(dst []byte, isNil bool, n int) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func packInts[T int | int64](dst []byte, v []T) []byte {
	dst = packLen(dst, v == nil, len(v))
	for _, x := range v {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// packFloat appends f's bits; ok is false for NaN and ±Inf, which JSON
// cannot carry.
func packFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), true
}

// varintLen is the length of x's zigzag varint.
func varintLen(x int64) int {
	u := uint64(x<<1) ^ uint64(x>>63)
	return 1 + (bits.Len64(u|1)-1)/7
}

// packedSize is at least what pack writes for the struct at p, exact for
// integer and float slices, so one buffer growth covers it.
func (t *table) packedSize(p unsafe.Pointer) int {
	n := 0
	for i := range t.fields {
		f := &t.fields[i]
		fp := unsafe.Add(p, f.off)
		n += binary.MaxVarintLen64
		switch f.kind {
		case kInts:
			for _, x := range *(*[]int)(fp) {
				n += varintLen(int64(x))
			}
		case kInt64s:
			for _, x := range *(*[]int64)(fp) {
				n += varintLen(x)
			}
		case kFloats:
			n += 8 * len(*(*[]float64)(fp))
		case kRaw:
			n += len(*(*[]byte)(fp)) + 4
		case kString:
			n += len(*(*string)(fp))
		case kStruct:
			n += f.sub.packedSize(fp)
		case kPointer:
			if sp := *(*unsafe.Pointer)(fp); sp != nil {
				n += f.sub.packedSize(sp)
			}
		}
	}
	return n
}

// DecodePacked reads the packed body b into the struct v points to. On an
// error *v is left as it was. A json.RawMessage field aliases b when alias
// is set and is a copy otherwise; every other field owns its memory.
func DecodePacked(b []byte, v any, alias bool) error {
	rv := reflect.ValueOf(v).Elem()
	tb := tableOf(rv.Type())
	if len(b) < packedHeader || !IsPacked(b) {
		return fmt.Errorf("packed body: %d bytes, no packed header", len(b))
	}
	if got := binary.LittleEndian.Uint32(b[len(PackedMagic):]); got != tb.schema {
		return fmt.Errorf("packed body: schema %08x is not %s's (%08x)", got, rv.Type(), tb.schema)
	}
	u := &unpacker{b: b, i: packedHeader, alias: alias}
	nv := reflect.New(rv.Type())
	tb.unpack(u, nv.UnsafePointer())
	if u.err == nil && u.i != len(b) {
		u.err = fmt.Errorf("packed body: %d bytes after the last field", len(b)-u.i)
	}
	if u.err != nil {
		return u.err
	}
	rv.Set(nv.Elem())
	return nil
}

// unpacker reads a packed body left to right; the first error stops it.
type unpacker struct {
	b     []byte
	i     int
	alias bool
	err   error
	field string // the field being read, for errors
}

func (u *unpacker) fail(format string, args ...any) {
	if u.err == nil {
		u.err = fmt.Errorf("packed body: field %q at byte %d: %s", u.field, u.i, fmt.Sprintf(format, args...))
	}
}

// unpack reads the fields of the table into the zeroed struct at p.
func (t *table) unpack(u *unpacker, p unsafe.Pointer) {
	for i := range t.fields {
		if u.err != nil {
			return
		}
		f := &t.fields[i]
		fp := unsafe.Add(p, f.off)
		u.field = f.name
		switch f.kind {
		case kInt:
			x := u.varint()
			if int64(int(x)) != x {
				u.fail("%d overflows int", x)
			}
			*(*int)(fp) = int(x)
		case kInt64:
			*(*int64)(fp) = u.varint()
		case kFloat:
			if len(u.b)-u.i < 8 {
				u.fail("truncated")
				return
			}
			*(*float64)(fp) = u.float()
		case kString:
			s := u.str()
			if !utf8.Valid(s) {
				u.fail("string is not valid UTF-8")
			}
			*(*string)(fp) = string(s)
		case kBool:
			switch u.byte() {
			case 0:
			case 1:
				*(*bool)(fp) = true
			default:
				u.fail("bool byte is not 0 or 1")
			}
		case kInts:
			*(*[]int)(fp) = unpackInts[int](u)
		case kInt64s:
			*(*[]int64)(fp) = unpackInts[int64](u)
		case kFloats:
			n, isNil := u.header(8)
			if isNil {
				continue
			}
			v := make([]float64, n)
			for k := range v {
				v[k] = u.float()
			}
			*(*[]float64)(fp) = v
		case kRaw:
			n, isNil := u.header(1)
			if isNil {
				continue
			}
			raw := u.b[u.i : u.i+n : u.i+n]
			if !u.alias {
				raw = bytes.Clone(raw)
			}
			*(*[]byte)(fp) = raw
			u.i += n
		case kStruct:
			f.sub.unpack(u, fp)
		case kPointer:
			switch u.byte() {
			case 0:
			case 1:
				np := reflect.New(f.typ.Elem())
				f.sub.unpack(u, np.UnsafePointer())
				*(*unsafe.Pointer)(fp) = np.UnsafePointer()
			default:
				u.fail("presence byte is not 0 or 1")
			}
		}
	}
}

func (u *unpacker) byte() byte {
	if u.i >= len(u.b) {
		u.fail("truncated")
		return 0
	}
	u.i++
	return u.b[u.i-1]
}

// varint reads one zigzag varint.
func (u *unpacker) varint() int64 {
	if u.i < len(u.b) && u.b[u.i] < 0x80 {
		x := u.b[u.i]
		u.i++
		return int64(x>>1) ^ -int64(x&1)
	}
	x, n := binary.Varint(u.b[u.i:])
	if n <= 0 {
		u.fail("bad varint")
		return 0
	}
	u.i += n
	return x
}

// float reads 8 bytes the caller has checked are there; NaN and ±Inf fail.
func (u *unpacker) float() float64 {
	f := math.Float64frombits(binary.LittleEndian.Uint64(u.b[u.i:]))
	u.i += 8
	if math.IsNaN(f) || math.IsInf(f, 0) {
		u.fail("%v is not finite", f)
	}
	return f
}

// header reads a slice header and checks that its n elements, at least
// width bytes each, fit in the bytes left, so no make exceeds
// width-scaled input.
func (u *unpacker) header(width int) (n int, isNil bool) {
	x := u.uvarint()
	if x == 0 || u.err != nil {
		return 0, true
	}
	if x-1 > uint64(len(u.b)-u.i)/uint64(width) {
		u.fail("%d elements exceed the %d bytes left", x-1, len(u.b)-u.i)
		return 0, true
	}
	return int(x - 1), false
}

// str reads a string's length and returns its bytes, aliasing b.
func (u *unpacker) str() []byte {
	x := u.uvarint()
	if x > uint64(len(u.b)-u.i) {
		u.fail("length %d exceeds the %d bytes left", x, len(u.b)-u.i)
		return nil
	}
	u.i += int(x)
	return u.b[u.i-int(x) : u.i : u.i]
}

func (u *unpacker) uvarint() uint64 {
	x, n := binary.Uvarint(u.b[u.i:])
	if n <= 0 {
		u.fail("bad length")
		return 0
	}
	u.i += n
	return x
}

// unpackInts reads an integer slice; its loop keeps the offset local and
// decodes one-byte varints inline.
func unpackInts[T int | int64](u *unpacker) []T {
	n, isNil := u.header(1)
	if isNil {
		return nil
	}
	v := make([]T, n)
	b, i := u.b, u.i
	for k := range v {
		var x int64
		if i < len(b) && b[i] < 0x80 {
			x = int64(b[i]>>1) ^ -int64(b[i]&1)
			i++
		} else {
			var m int
			if x, m = binary.Varint(b[i:]); m <= 0 {
				u.i = i
				u.fail("bad varint at element %d", k)
				return nil
			}
			i += m
		}
		if int64(T(x)) != x {
			u.i = i
			u.fail("element %d = %d overflows %T", k, x, T(0))
			return nil
		}
		v[k] = T(x)
	}
	u.i = i
	return v
}
