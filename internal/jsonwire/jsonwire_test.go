package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestAppendMatchesMarshal checks the appenders against json.Marshal on
// the float cut-offs, the int64 extremes and strings needing escapes.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, 0.1, 123.25} {
		want, _ := json.Marshal(f)
		if got, ok := AppendFloat(nil, f); !ok || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal %s", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendFloat(nil, f); ok {
			t.Errorf("AppendFloat(%v) ok, json.Marshal refuses it", f)
		}
	}
	for _, v := range [][]int64{nil, {}, {math.MinInt64, -1, 0, math.MaxInt64}, {9, 10, 99, 100, -999, 1e18 - 1, 1e18}} {
		want, _ := json.Marshal(v)
		if got := AppendInts(nil, v); string(got) != string(want) {
			t.Errorf("AppendInts(%v) = %s, json.Marshal %s", v, got, want)
		}
		if n := IntsLen(v); len(v) > 0 && n != len(want)+1 {
			t.Errorf("IntsLen(%v) = %d, want %d", v, n, len(want)+1)
		}
	}
	for _, s := range []string{"", "int64-add", "a<b&c>", `q"\`, "é", "\xff", " ", "\x00\x7f"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

func TestIsCompactNumberArray(t *testing.T) {
	for s, want := range map[string]bool{
		`[]`: true, `[1]`: true, `[-0,1.5e3,2]`: true,
		``: false, `[`: false, `[ ]`: false, `[1, 2]`: false, `[1,]`: false, `[,1]`: false,
		`[01]`: false, `[null]`: false, `["1"]`: false, `[1]]`: false, `[[1]]`: false, `null`: false,
	} {
		if got := IsCompactNumberArray([]byte(s)); got != want {
			t.Errorf("IsCompactNumberArray(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestWalker reads a canonical object and declines the forms it leaves to
// encoding/json.
func TestWalker(t *testing.T) {
	w := NewWalker([]byte(` {"a":[1, 2],"b" : -3,"c":"x<y","d":[0.5,-0],"e":true,"f":[1e2] } `))
	for key := range w.Object() {
		switch string(key) {
		case "a":
			if v := IntArray[int](w, 64); len(v) != 2 || v[1] != 2 {
				t.Errorf("a = %v", v)
			}
		case "b":
			if v := w.Int(64); v != -3 {
				t.Errorf("b = %d", v)
			}
		case "c":
			if v := w.Text(); v != "x<y" {
				t.Errorf("c = %q", v)
			}
		case "d":
			if v := w.Floats(); len(v) != 2 || v[0] != 0.5 {
				t.Errorf("d = %v", v)
			}
		case "e":
			if !w.Bool() {
				t.Error("e = false")
			}
		case "f":
			if v := w.NumberArray(); string(v) != "[1e2]" {
				t.Errorf("f = %s", v)
			}
		default:
			w.Fail()
		}
	}
	if !w.Done() {
		t.Fatal("canonical object declined")
	}
	for _, s := range []string{
		`{"a":"A"}`, `{"a":"é"}`, `{"a":null}`, `{"a":1}x`, `{"a":1,}`, `{"a" 1}`, `{"a":01}`, `{"a":1.5}`, `[1]`, `{`,
	} {
		w := NewWalker([]byte(s))
		for range w.Object() {
			w.Int(64)
		}
		if w.Done() {
			t.Errorf("%s: walk accepted, want it declined", s)
		}
	}
}

// TestParseIntMatchesStrconv holds the eight-bytes-at-a-time digit loop to
// strconv.ParseInt on every length from 1 to 21 digits, both signs, and
// every kind of byte that can end a number.
func TestParseIntMatchesStrconv(t *testing.T) {
	digits := "98765432109876543210987"
	for n := 1; n <= 21; n++ {
		for _, sign := range []string{"", "-"} {
			for _, tail := range []string{"", ",", "]", " 1", ".5", "e3", ":", "/"} {
				lit := sign + digits[:n]
				b := []byte(lit + tail + "12345678")[:len(lit)+len(tail)]
				v, end, ok := ParseInt(b, 0, 64)
				want, err := strconv.ParseInt(lit, 10, 64)
				wantOK := err == nil && (tail == "" || tail[0] != '.' && tail[0] != 'e')
				if ok != wantOK || ok && (v != want || end != len(lit)) {
					t.Errorf("ParseInt(%q) = %d, %d, %v; want %d, %d, %v", b, v, end, ok, want, len(lit), wantOK)
				}
			}
		}
	}
}

// FuzzParseFloat holds ParseFloat to strconv.ParseFloat bit for bit, on
// the literal's JSON grammar (NumberEnd) and its end: the exact path and
// the fallback must agree with strconv on every well-formed number, and
// both must refuse what encoding/json refuses.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "0e400", "1", "-1.5", "0.1", "1e22", "1e23", "9007199254740992", "9007199254740993",
		"5e-324", "4.9e-324", "2.2250738585072014e-308", "2.225073858507201e-308", "1e-400", "1e400",
		"1.7976931348623157e308", "1.7976931348623159e308", "12345678901234567890", "123456789012345678901234567890e-10",
		"0.000000000000000000000000001", "00", "01", "-", ".5", "1.", "1e", "1e+", "1E-0005", "1e0000000000000000000001",
		"3.141592653589793", "-0.9999999999999999", "100000000000000000000000", "1x", "1.5,", "2]",
		"4503599627370496.5", "4503599627370497.5", "-0.12345678901234567", "0.9999999999999999999",
		"18446744073709551615e-19", "9007199254740993e-1", "0.0012345678901234567", "1.2345678901234567e-5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		got, end, ok := ParseFloat(b, 0)
		want := NumberEnd(b, 0)
		if want < 0 {
			if ok {
				t.Fatalf("ParseFloat(%q) = %v, accepted a malformed number", s, got)
			}
			return
		}
		v, err := strconv.ParseFloat(s[:want], 64)
		if ok != (err == nil) || end != want {
			t.Fatalf("ParseFloat(%q) = %v, %d, %v; strconv %v, %v, end %d", s, got, end, ok, v, err, want)
		}
		if ok && math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("ParseFloat(%q) = %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), v, math.Float64bits(v))
		}
	})
}

// TestParseFloatMatchesStrconv holds ParseFloat to strconv.ParseFloat on
// the shortest forms of random float64s across the whole exponent range
// and on random mantissas of 15 to 20 digits over 10^1 to 10^22: the
// exact path and the fallback, on both sides of 2⁵³ and of 10^-22.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(s string) {
		got, end, ok := ParseFloat([]byte(s), 0)
		want, err := strconv.ParseFloat(s, 64)
		if !ok || err != nil || end != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloat(%q) = %v, %d, %v; strconv %v, %v", s, got, end, ok, want, err)
		}
	}
	for range 100_000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		b, _ := AppendFloat(nil, f)
		check(string(b))
		b, _ = AppendFloat(nil, 2*rng.Float64()-1)
		check(string(b))
		digits := strconv.FormatUint(rng.Uint64()>>rng.Intn(14), 10)
		switch k := 1 + rng.Intn(22); {
		case k < len(digits):
			digits = digits[:len(digits)-k] + "." + digits[len(digits)-k:]
		default:
			digits += "e-" + strconv.Itoa(k)
		}
		check(digits)
	}
}

// tableCase has a field of every kind the tables carry, with and without
// omitempty, plus one they do not (a map).
type tableCase struct {
	I    int               `json:"i,omitempty"`
	I64  int64             `json:"i64"`
	F    float64           `json:"f,omitempty"`
	S    string            `json:"s,omitempty"`
	B    bool              `json:"b"`
	Is   []int             `json:"is,omitempty"`
	I64s []int64           `json:"i64s"`
	Fs   []float64         `json:"fs"`
	Raw  json.RawMessage   `json:"raw,omitempty"`
	Sub  tableSub          `json:"sub,omitempty"`
	Ptr  *tableSub         `json:"ptr,omitempty"`
	Map  map[string]string `json:"map,omitempty"`
	Name string
	skip int
}

type tableSub struct {
	X float64 `json:"x"`
	Y []int   `json:"y"`
}

// TestTableMatchesEncodingJSON holds Append and Decode to json.Marshal and
// json.Unmarshal on the edges of encoding/json's rules: omitempty keeps -0
// and structs, drops nil pointers and empty slices; null reads as a nil
// slice; a field of a kind the table lacks, a non-finite float or a raw
// value that is not a compact number array sends the body to encoding/json.
func TestTableMatchesEncodingJSON(t *testing.T) {
	for _, v := range []tableCase{
		{},
		{F: math.Copysign(0, -1), Is: []int{}, I64s: []int64{}, Fs: []float64{}, Ptr: &tableSub{}},
		{I: -3, I64: math.MinInt64, F: 1e21, S: "abc", B: true, Is: []int{1, -2}, I64s: []int64{math.MaxInt64},
			Fs: []float64{0.1, math.Copysign(0, -1), 5e-324}, Raw: json.RawMessage(`[1,2.5]`), Sub: tableSub{X: -1.5, Y: []int{0}},
			Ptr: &tableSub{Y: []int{}}, Name: "n"},
		{Raw: json.RawMessage(`[1, 2]`)},
		{S: "a<b"},
		{Fs: []float64{math.Inf(1)}},
		{Map: map[string]string{"k": "v"}},
	} {
		want, wantErr := json.Marshal(v)
		got, ok := Append(nil, v)
		if ok && (wantErr != nil || string(got) != string(want)) {
			t.Errorf("Append(%+v) = %s, json.Marshal %s (%v)", v, got, want, wantErr)
		}
		if !ok && wantErr == nil && v.Map == nil && v.Raw == nil {
			t.Errorf("Append(%+v) declined a value the table carries", v)
		}
		if wantErr != nil {
			continue
		}
		var dec, ref tableCase
		walk := v.Map == nil && v.S != "a<b" // json.Marshal escapes <
		if Decode(want, &dec, false) != walk {
			t.Errorf("Decode(%s): walk taken = %v, want %v", want, !walk, walk)
		}
		if !walk {
			continue
		}
		if err := json.Unmarshal(want, &ref); err != nil || !reflect.DeepEqual(dec, ref) {
			t.Errorf("Decode(%s) = %+v, json.Unmarshal %+v (%v)", want, dec, ref, err)
		}
	}
	var v tableCase
	for _, s := range []string{`{"is":null,"fs":null,"ptr":{"x":1,"y":null}}`, `{"is":[1],"i64s":null}`} {
		if !Decode([]byte(s), &v, false) {
			t.Errorf("Decode(%s) declined", s)
		}
	}
	before := v
	for _, s := range []string{`{"i":null}`, `{"ptr":null}`, `{"raw":null}`, `{"I":1}`, `{"i":1,"i":2}`, `{"skip":1}`, `{"fs":[1e400]}`, `{"is":[1],"b":1}`} {
		if Decode([]byte(s), &v, false) || !reflect.DeepEqual(v, before) {
			t.Errorf("Decode(%s) took the walk or changed the value: %+v", s, v)
		}
	}
}

// TestTablesConcurrent builds and uses one type's table from several
// goroutines at once, as concurrent requests do on a fresh server.
func TestTablesConcurrent(t *testing.T) {
	type fresh struct {
		A []float64 `json:"a"`
		B tableSub  `json:"b"`
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := fresh{A: []float64{float64(g), 0.5}, B: tableSub{X: 1, Y: []int{g}}}
			b, ok := Append(nil, v)
			var got fresh
			if !ok || !Decode(b, &got, false) || !reflect.DeepEqual(got, v) {
				t.Errorf("goroutine %d: %s decoded to %+v, want %+v", g, b, got, v)
			}
		}()
	}
	wg.Wait()
}

// TestPackedMatchesEncodingJSON holds the packed form to JSON's values: a
// packed value decodes to what json.Unmarshal makes of json.Marshal's
// bytes (an empty omitempty slice and -0 under omitempty read back as JSON
// reads them; nil and empty stay apart elsewhere), and AppendPacked
// declines what JSON refuses or rewrites.
func TestPackedMatchesEncodingJSON(t *testing.T) {
	for _, v := range []tableCase{
		{},
		{F: math.Copysign(0, -1), Is: []int{}, I64s: []int64{}, Fs: []float64{}, Ptr: &tableSub{}},
		{I: -3, I64: math.MinInt64, F: 1e21, S: "a<b é", B: true, Is: []int{1, -2, 1 << 40}, I64s: []int64{math.MaxInt64},
			Fs: []float64{0.1, math.Copysign(0, -1), 5e-324}, Raw: json.RawMessage(`[1,2.5]`), Sub: tableSub{X: -1.5, Y: []int{0}},
			Ptr: &tableSub{Y: []int{}}, Name: "n"},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want, got tableCase
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		packed, ok := AppendPacked(nil, v)
		if !ok || !IsPacked(packed) {
			t.Fatalf("AppendPacked(%+v) declined", v)
		}
		if err := DecodePacked(packed, &got, false); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("packed %+v decoded to %+v (%v), JSON to %+v", v, got, err, want)
		}
	}
	for _, v := range []tableCase{
		{F: math.NaN()}, {Fs: []float64{1, math.Inf(-1)}}, {S: "\xff"},
		{Raw: json.RawMessage(`[1, 2]`)}, {Map: map[string]string{"k": "v"}},
	} {
		if b, ok := AppendPacked([]byte("x"), v); ok || string(b) != "x" {
			t.Errorf("AppendPacked(%+v) = %q, %v; want it declined with dst unchanged", v, b, ok)
		}
	}
}

// TestDecodePackedRefuses: every prefix of a packed body fails without
// changing the value, as do a foreign schema, trailing bytes, a bad bool
// byte, a non-finite float, invalid UTF-8 and a length past the body.
func TestDecodePackedRefuses(t *testing.T) {
	v := tableCase{I: 7, S: "ok", B: true, Is: []int{300, -1}, Fs: []float64{1.5}, Ptr: &tableSub{X: 2}}
	packed, ok := AppendPacked(nil, v)
	if !ok {
		t.Fatal("declined")
	}
	keep := tableCase{I: 99}
	for n := range len(packed) {
		got := keep
		if err := DecodePacked(packed[:n], &got, false); err == nil || !reflect.DeepEqual(got, keep) {
			t.Fatalf("%d-byte prefix: err %v, value %+v", n, err, got)
		}
	}
	var sub tableSub
	if err := DecodePacked(packed, &sub, false); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("another type's body: err %v", err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(packed)) }
	header := len(PackedMagic) + 4
	for name, body := range map[string][]byte{
		"trailing byte":  append(bytes.Clone(packed), 0),
		"bool byte 2":    edit(func(b []byte) []byte { b[header+1+1+8+3] = 2; return b }), // i, i64, f, s precede it
		"NaN float":      edit(func(b []byte) []byte { copy(b[header+2:], []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}); return b }),
		"invalid string": edit(func(b []byte) []byte { b[header+2+8+1] = 0xff; return b }),
		"huge length":    append(append([]byte(PackedMagic), packed[len(PackedMagic):header]...), 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x0f),
	} {
		got := keep
		if err := DecodePacked(body, &got, false); err == nil || !reflect.DeepEqual(got, keep) {
			t.Errorf("%s: err %v, value %+v", name, err, got)
		}
	}
}
