package jsonwire

import (
	"encoding/json"
	"math"
	"strconv"
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
