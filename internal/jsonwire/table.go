package jsonwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// A table is the one-pass codec of one struct type, built once from the
// struct's json tags: for each field its key, its offset and how the walk
// reads it and the append writes it. Decode and Append drive the same table,
// so a new field needs nothing but its tag.
type table struct {
	fields []field
	// schema hashes the field names and kinds, nested tables included: a
	// packed body carries it, so a body packed from another layout of the
	// type is refused rather than misread.
	schema uint32
}

type field struct {
	name      string // the JSON key
	key       string // `"name":`, as the append writes it
	off       uintptr
	typ       reflect.Type
	kind      kind
	omitEmpty bool
	sub       *table // kStruct and kPointer: the nested struct's table
}

// kind is how a field is read and written.
type kind uint8

const (
	kOther   kind = iota // not carried: a body that has it takes encoding/json
	kInt                 // int
	kInt64               // int64
	kFloat               // float64
	kString              // string
	kBool                // bool
	kInts                // []int, ir.Ints
	kInt64s              // []int64, ir.Int64s
	kFloats              // []float64
	kRaw                 // json.RawMessage holding a number array
	kStruct              // a nested struct
	kPointer             // a pointer to a struct
)

var (
	tables          sync.Map // reflect.Type → *table
	rawType         = reflect.TypeFor[json.RawMessage]()
	marshalerType   = reflect.TypeFor[json.Marshaler]()
	unmarshalerType = reflect.TypeFor[json.Unmarshaler]()
)

// tableOf returns t's table, building it on first use.
func tableOf(t reflect.Type) *table {
	if tb, ok := tables.Load(t); ok {
		return tb.(*table)
	}
	tb, _ := tables.LoadOrStore(t, newTable(t))
	return tb.(*table)
}

// newTable reads the exported fields of the struct type t in declaration
// order, which is json.Marshal's order. Embedded structs and more than 64
// fields are not supported.
func newTable(t reflect.Type) *table {
	tb := &table{}
	for i := range t.NumField() {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		if sf.Anonymous {
			panic(fmt.Sprintf("jsonwire: embedded field %s.%s", t, sf.Name))
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		f := field{name: name, key: `"` + name + `":`, off: sf.Offset, typ: sf.Type, kind: kindOf(sf.Type)}
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "omitempty":
				f.omitEmpty = true
			case "string":
				f.kind = kOther
			}
		}
		switch f.kind {
		case kStruct:
			f.sub = tableOf(sf.Type)
		case kPointer:
			f.sub = tableOf(sf.Type.Elem())
		}
		tb.fields = append(tb.fields, f)
	}
	if len(tb.fields) > 64 {
		panic(fmt.Sprintf("jsonwire: %s has more than 64 fields", t))
	}
	h := fnv.New32a()
	for _, f := range tb.fields {
		h.Write([]byte{byte(f.kind)})
		h.Write([]byte(f.name))
		if f.sub != nil {
			h.Write(binary.LittleEndian.AppendUint32(nil, f.sub.schema))
		}
	}
	tb.schema = h.Sum32()
	return tb
}

// kindOf classifies a field type. Types with their own JSON methods are not
// carried, except json.RawMessage and integer slices: an integer slice's
// UnmarshalJSON must decode as IntArray does, as ir.Ints and ir.Int64s do
// (they refuse null elements, which the walk never accepts).
func kindOf(t reflect.Type) kind {
	switch {
	case t == rawType:
		return kRaw
	case t.Kind() == reflect.Slice && t.Elem() == reflect.TypeFor[int]() && !t.Implements(marshalerType):
		return kInts
	case t.Kind() == reflect.Slice && t.Elem() == reflect.TypeFor[int64]() && !t.Implements(marshalerType):
		return kInt64s
	case t.Implements(marshalerType) || reflect.PointerTo(t).Implements(unmarshalerType):
		return kOther
	}
	switch t.Kind() {
	case reflect.Int:
		return kInt
	case reflect.Int64:
		return kInt64
	case reflect.Float64:
		return kFloat
	case reflect.String:
		return kString
	case reflect.Bool:
		return kBool
	case reflect.Slice:
		if t.Elem() == reflect.TypeFor[float64]() {
			return kFloats
		}
	case reflect.Struct:
		return kStruct
	case reflect.Pointer:
		if e := t.Elem(); e.Kind() == reflect.Struct && kindOf(e) == kStruct {
			return kPointer
		}
	}
	return kOther
}

// Decode reads the document b into the struct v points to, as json.Unmarshal
// would, in one walk, and reports whether the walk took it. It declines, and
// leaves *v as it was, when b is not canonical (see Walker), when a key is
// unknown, repeated or not an exact tag name, or when a field's kind is not
// carried; the caller then decodes b with encoding/json. A null decodes
// only into a slice field (nil, as encoding/json decodes it). A
// json.RawMessage field must hold a number array; it aliases b when alias
// is set and is a copy otherwise.
func Decode(b []byte, v any, alias bool) bool {
	rv := reflect.ValueOf(v).Elem()
	saved := reflect.New(rv.Type()).Elem()
	saved.Set(rv)
	w := NewWalker(b)
	tableOf(rv.Type()).walk(w, rv.Addr().UnsafePointer(), alias)
	if w.Done() {
		return true
	}
	rv.Set(saved)
	return false
}

// walk reads one object into the struct at p. A pointer field always gets a
// new struct (a copy of the old one, if any), so a declined walk changes
// nothing its caller cannot restore by copying the outer struct back.
func (t *table) walk(w *Walker, p unsafe.Pointer, alias bool) {
	var seen uint64
	for key := range w.Object() {
		k := t.index(key)
		if k < 0 || seen&(1<<k) != 0 {
			w.Fail()
			continue
		}
		seen |= 1 << k
		f := &t.fields[k]
		fp := unsafe.Add(p, f.off)
		switch f.kind {
		case kInt:
			*(*int)(fp) = int(w.Int(strconv.IntSize))
		case kInt64:
			*(*int64)(fp) = w.Int(64)
		case kFloat:
			*(*float64)(fp) = w.Float()
		case kString:
			*(*string)(fp) = w.Text()
		case kBool:
			*(*bool)(fp) = w.Bool()
		case kInts:
			*(*[]int)(fp) = nil
			if !w.Null() {
				*(*[]int)(fp) = IntArray[int](w, strconv.IntSize)
			}
		case kInt64s:
			*(*[]int64)(fp) = nil
			if !w.Null() {
				*(*[]int64)(fp) = IntArray[int64](w, 64)
			}
		case kFloats:
			*(*[]float64)(fp) = nil
			if !w.Null() {
				*(*[]float64)(fp) = w.Floats()
			}
		case kRaw:
			raw := w.NumberArray()
			if !alias {
				raw = bytes.Clone(raw)
			}
			*(*[]byte)(fp) = raw
		case kStruct:
			f.sub.walk(w, fp, alias)
		case kPointer:
			np := reflect.New(f.typ.Elem())
			if old := reflect.NewAt(f.typ, fp).Elem(); !old.IsNil() {
				np.Elem().Set(old.Elem())
			}
			f.sub.walk(w, np.UnsafePointer(), alias)
			*(*unsafe.Pointer)(fp) = np.UnsafePointer()
		default:
			w.Fail()
		}
	}
}

// index is the position of the field whose key is exactly key, or -1.
func (t *table) index(key []byte) int {
	for k := range t.fields {
		if t.fields[k].name == string(key) {
			return k
		}
	}
	return -1
}

// Append appends v, a struct or a pointer to one, as json.Marshal encodes
// it. ok is false, with dst returned as it was, when a value is not carried:
// a non-empty field of a kind the table lacks, a non-finite float, or a
// json.RawMessage that is not a compact number array (which json.Marshal
// compacts, or refuses). The caller then encodes v with json.Marshal.
func Append(dst []byte, v any) (out []byte, ok bool) {
	p, tb := addressOf(v)
	n := len(dst)
	if out, ok = tb.append(slices.Grow(dst, tb.size(p)), p); !ok {
		return dst[:n], false
	}
	return out, true
}

// addressOf returns the address of the struct v holds or points to, and
// its table. A struct held by value is copied to be addressed.
func addressOf(v any) (unsafe.Pointer, *table) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer {
		p := reflect.New(rv.Type())
		p.Elem().Set(rv)
		rv = p
	}
	return rv.UnsafePointer(), tableOf(rv.Type().Elem())
}

func (t *table) append(dst []byte, p unsafe.Pointer) ([]byte, bool) {
	dst = append(dst, '{')
	first := true
	for i := range t.fields {
		f := &t.fields[i]
		fp := unsafe.Add(p, f.off)
		if f.omitEmpty && isEmpty(reflect.NewAt(f.typ, fp).Elem()) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, f.key...)
		ok := true
		switch f.kind {
		case kInt:
			dst = strconv.AppendInt(dst, int64(*(*int)(fp)), 10)
		case kInt64:
			dst = strconv.AppendInt(dst, *(*int64)(fp), 10)
		case kFloat:
			dst, ok = AppendFloat(dst, *(*float64)(fp))
		case kString:
			dst = AppendString(dst, *(*string)(fp))
		case kBool:
			dst = strconv.AppendBool(dst, *(*bool)(fp))
		case kInts:
			dst = AppendInts(dst, *(*[]int)(fp))
		case kInt64s:
			dst = AppendInts(dst, *(*[]int64)(fp))
		case kFloats:
			dst, ok = AppendFloats(dst, *(*[]float64)(fp))
		case kRaw:
			switch raw := *(*[]byte)(fp); {
			case raw == nil:
				dst = append(dst, "null"...)
			case IsCompactNumberArray(raw):
				dst = append(dst, raw...)
			default:
				ok = false
			}
		case kStruct:
			dst, ok = f.sub.append(dst, fp)
		case kPointer:
			if sp := *(*unsafe.Pointer)(fp); sp == nil {
				dst = append(dst, "null"...)
			} else {
				dst, ok = f.sub.append(dst, sp)
			}
		default:
			ok = false
		}
		if !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// size is about what append writes for the struct at p, so one buffer
// growth covers it: exact for integer arrays, 24 bytes a float.
func (t *table) size(p unsafe.Pointer) int {
	n := 2
	for i := range t.fields {
		f := &t.fields[i]
		fp := unsafe.Add(p, f.off)
		n += len(f.key) + 1
		switch f.kind {
		case kInts:
			n += IntsLen(*(*[]int)(fp))
		case kInt64s:
			n += IntsLen(*(*[]int64)(fp))
		case kFloats:
			n += 24 * len(*(*[]float64)(fp))
		case kRaw:
			n += len(*(*[]byte)(fp))
		case kString:
			n += len(*(*string)(fp)) + 2
		case kStruct:
			n += f.sub.size(fp)
		case kPointer:
			if sp := *(*unsafe.Pointer)(fp); sp != nil {
				n += f.sub.size(sp)
			}
		default:
			n += 24
		}
	}
	return n
}

// isEmpty is encoding/json's omitempty test: false, 0 (-0 too), a nil
// pointer or interface, and an empty array, slice, map or string.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}
