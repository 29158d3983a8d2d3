package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"indexedrec/internal/jsonwire"
	"indexedrec/ir"
)

// Values the byte-identity fuzzer draws from: the int64 and float64 edges
// where a hand-written encoder could differ from encoding/json, and op
// strings it must escape.
var (
	edgeInts   = []int64{0, 1, -1, 9, -10, 1 << 31, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 123456789.125,
		5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.5, 100}
	edgeOps = []string{"int64-add", "mul-mod", "", "a<b", "x&y", `back\slash`, `q"uote`, "é", "\xff", "\xe2\x80\xa8",
		"tab\tnew\nline", "\x01\x7f", "<script>", "日本"}
)

func pickInt(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return rng.Int63n(2_000_001) - 1_000_000
}

func pickFloat(rng *rand.Rand) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	}
	if rng.Intn(2) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
}

// pickLen is a slice length, with -1 standing for a nil slice.
func pickLen(rng *rand.Rand) int { return rng.Intn(6) - 1 }

func randInts(rng *rand.Rand) ir.Ints {
	n := pickLen(rng)
	if n < 0 {
		return nil
	}
	v := make(ir.Ints, n)
	for i := range v {
		v[i] = int(pickInt(rng))
	}
	return v
}

func randInt64s(rng *rand.Rand) ir.Int64s {
	n := pickLen(rng)
	if n < 0 {
		return nil
	}
	v := make(ir.Int64s, n)
	for i := range v {
		v[i] = pickInt(rng)
	}
	return v
}

func randFloats(rng *rand.Rand) []float64 {
	n := pickLen(rng)
	if n < 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = pickFloat(rng)
	}
	return v
}

// randInit is an init array as callers build them, plus the raw messages
// json.Marshal compacts, escapes or refuses.
func randInit(rng *rand.Rand) json.RawMessage {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return json.RawMessage([]string{`[1, 2]`, `null`, `[1,`, ``, ` [3]`, `["<&>"]`, `{"a":1}`, `[1e400]`}[rng.Intn(8)])
	case 2:
		b, _ := json.Marshal(randFloats(rng))
		return b
	}
	b, _ := json.Marshal(randInt64s(rng))
	return b
}

func randSystem(rng *rand.Rand) ir.SystemWire {
	return ir.SystemWire{M: int(pickInt(rng)), N: int(pickInt(rng)), G: randInts(rng), F: randInts(rng), H: randInts(rng), Cells: randInts(rng)}
}

func randOptions(rng *rand.Rand) ir.OptionsWire {
	o := ir.OptionsWire{}
	if rng.Intn(2) == 0 {
		o.Procs = int(pickInt(rng))
	}
	if rng.Intn(2) == 0 {
		o.MaxExponentBits = int(pickInt(rng))
	}
	if rng.Intn(2) == 0 {
		o.TimeoutMs = int(pickInt(rng))
	}
	return o
}

func randOp(rng *rand.Rand, raw []byte) string {
	if rng.Intn(4) == 0 {
		return string(raw[:min(len(raw), 12)])
	}
	return edgeOps[rng.Intn(len(edgeOps))]
}

func randMod(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return pickInt(rng)
}

// checkEncode holds AppendBody to json.Marshal, and WriteBody's body to a
// json.Encoder's, byte for byte and error for error.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := AppendBody(nil, v)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%T AppendBody error %v, json.Marshal error %v", v, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%T AppendBody:\n got %s\nwant %s", v, got, want)
	}
	rec := httptest.NewRecorder()
	code := WriteBody(rec, nil, 200, v)
	if wantErr != nil {
		// No JSON form: the answer is a 500 that names the encoding error.
		var e ErrorResponse
		if code != 500 || rec.Code != 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, wantErr.Error()) {
			t.Fatalf("%T WriteBody of an unencodable value: returned %d, HTTP %d: %s", v, code, rec.Code, rec.Body.Bytes())
		}
		return
	}
	var enc bytes.Buffer
	_ = json.NewEncoder(&enc).Encode(v)
	if code != 200 || !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
		t.Fatalf("%T WriteBody:\n got %s\nwant %s", v, rec.Body.Bytes(), enc.Bytes())
	}
	// Asked for packed, WriteBody answers AppendPacked's bytes, or JSON
	// where v has no packed form.
	r := httptest.NewRequest("POST", "/", nil)
	r.Header.Set("Accept", "application/json; q=0.5, "+PackedType)
	rec = httptest.NewRecorder()
	WriteBody(rec, r, 200, v)
	want, ctype := enc.Bytes(), "application/json"
	if packed, ok := AppendPacked(nil, v); ok {
		want, ctype = packed, PackedType
	}
	if got := rec.Header().Get("Content-Type"); got != ctype || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%T WriteBody, packed accepted: %s %q, want %s %q", v, got, rec.Body.Bytes(), ctype, want)
	}
}

// checkPacked holds the packed form to JSON's: the value json.Unmarshal
// makes of json.Marshal's bytes for v packs (unless it holds power traces,
// which only JSON carries), and its packed bytes decode back to it exactly,
// nil and empty slices included. v itself packs only if JSON carries it,
// and then its packed bytes decode to that same value.
func checkPacked(t *testing.T, v reflect.Value) {
	t.Helper()
	b, err := json.Marshal(v.Interface())
	packed, ok := AppendPacked(nil, v.Interface())
	if err != nil {
		if ok {
			t.Fatalf("%s packs, json.Marshal refuses it: %v", v.Type(), err)
		}
		return
	}
	want := reflect.New(v.Type())
	if err := json.Unmarshal(b, want.Interface()); err != nil {
		t.Fatalf("%s: json.Unmarshal of json.Marshal's bytes: %v", v.Type(), err)
	}
	again, ok2 := AppendPacked(nil, want.Interface())
	if !ok2 {
		if p := want.Elem().FieldByName("Powers"); !p.IsValid() || p.Len() == 0 {
			t.Fatalf("%s %s: JSON's value has no packed form", v.Type(), b)
		}
		return
	}
	bodies := [][]byte{again}
	if ok {
		bodies = append(bodies, packed)
	}
	for _, body := range bodies {
		got := reflect.New(v.Type())
		if err := UnmarshalBody(body, got.Interface()); err != nil {
			t.Fatalf("%s %s: packed decode: %v", v.Type(), b, err)
		}
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Fatalf("%s packed round trip:\n got %+v\nwant %+v", v.Type(), got.Elem(), want.Elem())
		}
	}
}

// packedHeaderOf is the magic and schema hash a packed typ body starts with.
func packedHeaderOf(typ reflect.Type) []byte {
	b, _ := AppendPacked(nil, reflect.New(typ).Interface())
	return b[:len(jsonwire.PackedMagic)+4]
}

// checkPackedRaw decodes typ's packed header followed by raw with
// UnmarshalBody: it must decode or fail without a panic, allocate at most
// 8 bytes per body byte (plus a fixed 16 KiB for the structs and the
// error), and what it decodes must pack again to bytes that pack the same
// way once more (an empty omitempty slice, which a packed body may carry
// as JSON may, packs as nil).
func checkPackedRaw(t *testing.T, typ reflect.Type, raw []byte) {
	t.Helper()
	body := append(packedHeaderOf(typ), raw...)
	got := reflect.New(typ)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := UnmarshalBody(body, got.Interface())
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 8*uint64(len(body))+16<<10 {
		t.Fatalf("%s: %d-byte body allocated %d bytes", typ, len(body), n)
	}
	if err != nil {
		return
	}
	again, ok := AppendPacked(nil, got.Interface())
	if !ok {
		return // an init json.Marshal would rewrite
	}
	back := reflect.New(typ)
	if err := UnmarshalBody(again, back.Interface()); err != nil {
		t.Fatalf("%s: repacked %x: %v", typ, again, err)
	}
	if third, _ := AppendPacked(nil, back.Interface()); !bytes.Equal(third, again) {
		t.Fatalf("%s: %+v packs to %x, then to %x", typ, got.Elem(), again, third)
	}
}

// FuzzPackedDecode runs checkPackedRaw for every wire type, from seeds
// that are the packed bodies of random wire values less their header.
func FuzzPackedDecode(f *testing.F) {
	types := sortedWireTypes()
	rng := rand.New(rand.NewSource(1))
	for _, typ := range types {
		v := reflect.New(typ)
		randWire(rng, v.Elem(), []byte("seed"))
		if b, ok := AppendPacked(nil, v.Interface()); ok {
			f.Add(b[len(jsonwire.PackedMagic)+4:])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, typ := range types {
			checkPackedRaw(t, typ, raw)
		}
	})
}

// checkDecode holds UnmarshalBody's decode of b as typ to json.Unmarshal's:
// the same value and the same error.
func checkDecode(t *testing.T, typ reflect.Type, b []byte) {
	t.Helper()
	got, want := reflect.New(typ), reflect.New(typ)
	err := UnmarshalBody(b, got.Interface())
	wantErr := json.Unmarshal(b, want.Interface())
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s %q: error %v, json.Unmarshal error %v", typ, b, err, wantErr)
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Fatalf("%s %q:\n got %+v\nwant %+v", typ, b, got.Elem(), want.Elem())
	}
}

// randWire sets the fields of the wire struct v to values drawn from the
// edge lists above: nil and empty slices, int64 extremes, float edges, op
// strings needing escapes and init arrays json.Marshal must compact or
// refuses. A nested struct pointer is nil or drawn in turn; power traces
// are set on one struct in four.
func randWire(rng *rand.Rand, v reflect.Value, raw []byte) {
	for i := range v.NumField() {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeFor[json.RawMessage]():
			f.SetBytes(randInit(rng))
		case f.Type() == reflect.TypeFor[[][]ir.PowerTerm]():
			if rng.Intn(4) == 0 {
				f.Set(reflect.ValueOf([][]ir.PowerTerm{{{Cell: int(pickInt(rng)), Exp: randOp(rng, raw)}}}))
			}
		case f.Kind() == reflect.Struct:
			randWire(rng, f, raw)
		case f.Kind() == reflect.Pointer:
			if rng.Intn(2) == 0 {
				f.Set(reflect.New(f.Type().Elem()))
				randWire(rng, f.Elem(), raw)
			}
		case f.CanInt():
			if rng.Intn(3) > 0 {
				f.SetInt(pickInt(rng))
			}
		case f.CanFloat():
			f.SetFloat(pickFloat(rng))
		case f.Kind() == reflect.String:
			f.SetString(randOp(rng, raw))
		case f.Kind() == reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		case f.Type().Elem().Kind() == reflect.Float64:
			f.Set(reflect.ValueOf(randFloats(rng)))
		case f.Type().Elem().Kind() == reflect.Int64:
			f.Set(reflect.ValueOf(randInt64s(rng)).Convert(f.Type()))
		default:
			f.Set(reflect.ValueOf(randInts(rng)).Convert(f.Type()))
		}
	}
}

// sortedWireTypes lists the wire types by name, so that a fuzz seed draws
// the same values on every run.
func sortedWireTypes() []reflect.Type {
	var types []reflect.Type
	for typ := range wireTypes {
		types = append(types, typ)
	}
	slices.SortFunc(types, func(a, b reflect.Type) int { return strings.Compare(a.Name(), b.Name()) })
	return types
}

// FuzzWireCodec holds the one-pass codec to encoding/json. From the seed it
// draws a random value of every wire type (see randWire): AppendBody must
// equal json.Marshal, WriteBody must equal a json.Encoder, and decoding the
// bytes must equal json.Unmarshal; the packed form must round-trip to
// json.Unmarshal's value too (checkPacked). The raw bytes are decoded as
// every wire type too, as JSON and behind a packed header.
func FuzzWireCodec(f *testing.F) {
	for i, s := range []string{
		`{"values_int":[1,-2],"cells":[3,4],"rounds":2,"combines":5,"elapsed_ms":0.25}`,
		`{"values_float":[1.5,-0,1e-7,5e-324],"cap_rounds":3,"elapsed_ms":1e21}`,
		`{"values_int":[],"values_float":null,"rounds":1e0}`,
		`{"values_int":[1],"values_int":[2]}`,
		`{"Values_Int":[1],"elapsed_ms":1}`,
		`{"powers":[[{"Cell":1,"Exp":"2"}]],"cap_rounds":1,"elapsed_ms":0}`,
		`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2,3],"opts":{}}`,
		`{"system":{"m":3,"g":[1,2],"f":[0,0],"h":[1,1]},"op":"mul-mod","mod":7,"init":[1,2,3],"with_powers":true,"opts":{"procs":2}}`,
		`{"system":{"m":3,"g":[1,2],"f":[0,0]},"op":"a\u003cb","init":[1.5, 2e3 ,-0.0],"opts":{"timeout_ms":5}} `,
		`{"system":{"m":3,"g":[1,2],"f":[0,0]},"op":"é","init":null}`,
		`{"system":{"m":1.5},"op":"x","init":[]}`,
		`{"system":{"m":3},"op":"x","init":[1,"2"]}`,
		`{"elapsed_ms":1e400}`, `{"rounds":9223372036854775808}`, `{"op":"\xff"}`, `{"init":[1]}x`,
		`null`, `[]`, ``, ` {} `, `{"with_powers":null}`,
		`{"m":3,"g":[1,2],"f":[0,1],"a":[0.1,-0],"b":[1e22,1e23],"x0":[1,2.5e-308,9007199254740993],"extended":true}`,
		`{"family":"linear","system":{"m":0,"n":0,"g":null,"f":null},"m":2,"x0":[0.5,-1.25],"opts":{}}`,
		`{"system":{"rows":1,"cols":2,"semiring":"minplus","north":[1,2],"west":[1],"northwest":-0},"opts":{}}`,
		`{"family":"grid2d","system":{"m":0,"n":0,"g":null,"f":null},"shard":{"lo":0,"hi":1},"grid":{"rows":1,"cols":1,"north":[1],"west":[2]},"opts":{}}`,
		`{"family":"moebius","system":{"m":2,"n":0,"g":[1],"f":[0]},"shard":{"lo":0,"hi":1},"grid":null,"opts":{}}`,
		`{"values":[1,2],"batch_size":1,"elapsed_ms":0.5}`, `{"a":[1,null]}`, `{"x0":[1e-400,-1e400]}`,
	} {
		f.Add(uint64(i), []byte(s))
	}
	types := sortedWireTypes()
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, typ := range types {
			checkDecode(t, typ, raw)
			checkPackedRaw(t, typ, raw)
			v := reflect.New(typ)
			randWire(rng, v.Elem(), raw)
			checkEncode(t, v.Elem().Interface())
			checkPacked(t, v.Elem())
			if b, err := json.Marshal(v.Interface()); err == nil {
				checkDecode(t, typ, b)
			}
		}
	})
}

// fillWire sets every field of the wire struct v, nested structs included,
// to a non-zero value the one-pass codec can carry, except the fields whose
// json key is in skip. A field of a kind it cannot fill fails the test, so a
// new field type is noticed too.
func fillWire(t *testing.T, v reflect.Value, skip map[string]bool) {
	t.Helper()
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if skip[key] {
			continue
		}
		switch {
		case f.Type() == reflect.TypeOf(json.RawMessage(nil)):
			f.SetBytes([]byte("[1,-2,3]"))
		case f.Kind() == reflect.Struct:
			fillWire(t, f, skip)
		case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct:
			f.Set(reflect.New(f.Type().Elem()))
			fillWire(t, f.Elem(), skip)
		case f.CanInt():
			f.SetInt(int64(3 + i))
		case f.CanFloat():
			f.SetFloat(0.5 + float64(i))
		case f.Kind() == reflect.String:
			f.SetString("mul-mod")
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Slice && (f.Type().Elem().Kind() == reflect.Int ||
			f.Type().Elem().Kind() == reflect.Int64 || f.Type().Elem().Kind() == reflect.Float64):
			s := reflect.MakeSlice(f.Type(), 2, 2)
			for k := range 2 {
				if e := s.Index(k); e.CanInt() {
					e.SetInt(int64(k - i))
				} else {
					e.SetFloat(float64(k) - 0.25)
				}
			}
			f.Set(s)
		default:
			t.Fatalf("%s.%s: no non-zero value for a %s", v.Type(), sf.Name, f.Type())
		}
	}
}

// TestCodecKnowsEveryField: with every field of each wire type set, nested
// structs included, AppendBody must still equal json.Marshal and the bytes
// must decode through the walk, not the fallback, to what json.Unmarshal
// gives; the packed form must carry the value too (checkPacked). The field tables are built from the struct tags, so this holds a
// new field of a kind the tables carry to encoding/json, and fails on a
// field of a kind they do not. Power traces are left out: encoding/json
// writes and reads them.
func TestCodecKnowsEveryField(t *testing.T) {
	if len(wireTypes) < 16 {
		t.Fatalf("%d wire types, want the 16 the solve, session and shard routes carry", len(wireTypes))
	}
	for typ := range wireTypes {
		v := reflect.New(typ)
		fillWire(t, v.Elem(), map[string]bool{"powers": true})
		b, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendBody(nil, v.Elem().Interface())
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%s AppendBody (err %v):\n got %s\nwant %s", typ, err, got, b)
		}
		checkDecode(t, typ, b)
		checkPacked(t, v.Elem())
		before := fallbacks.Load()
		if err := UnmarshalBody(b, reflect.New(typ).Interface()); err != nil || fallbacks.Load() != before {
			t.Fatalf("%s %s: err %v, decode fell back to encoding/json: %v", typ, b, err, fallbacks.Load() != before)
		}
	}
}

// TestUnmarshalBodyCopiesInit: UnmarshalBody's walked Init is a copy, as
// json.Unmarshal's is, so a caller may reuse the body's buffer. The server's
// own decoders alone read it in place.
func TestUnmarshalBodyCopiesInit(t *testing.T) {
	const body = `{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2,3],"opts":{}}`
	before := fallbacks.Load()
	b := []byte(body)
	var o OrdinaryRequest
	var g GeneralRequest
	if err := UnmarshalBody(b, &o); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalBody(b, &g); err != nil {
		t.Fatal(err)
	}
	if fallbacks.Load() != before {
		t.Fatal("the canonical body fell back to encoding/json")
	}
	clear(b)
	if string(o.Init) != "[1,2,3]" || string(g.Init) != "[1,2,3]" {
		t.Fatalf("Init changed with the input: %q, %q", o.Init, g.Init)
	}
}
