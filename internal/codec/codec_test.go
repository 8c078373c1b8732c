package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func mustAppend(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%v): %v", v, err)
	}
	return buf
}

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	buf := mustAppend(t, v)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if n != len(buf) {
		t.Fatalf("Decode(%v) consumed %d of %d", v, n, len(buf))
	}
	return got
}

func TestScalarRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		in   any
		want any
	}{
		{"nil", nil, nil},
		{"true", true, true},
		{"false", false, false},
		{"int", 42, int64(42)},
		{"negative int", -17, int64(-17)},
		{"int8", int8(-8), int64(-8)},
		{"int64 min", int64(math.MinInt64), int64(math.MinInt64)},
		{"uint", uint(7), uint64(7)},
		{"uint64 max", uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{"float", 3.25, 3.25},
		{"float32", float32(1.5), 1.5},
		{"NaN-free inf", math.Inf(-1), math.Inf(-1)},
		{"string", "héllo", "héllo"},
		{"empty string", "", ""},
		{"bytes", []byte{1, 2, 3}, []byte{1, 2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.in)
			if b, ok := tt.want.([]byte); ok {
				if !bytes.Equal(got.([]byte), b) {
					t.Errorf("got %v, want %v", got, tt.want)
				}
				return
			}
			if got != tt.want {
				t.Errorf("got %#v (%T), want %#v (%T)", got, got, tt.want, tt.want)
			}
		})
	}
}

func TestFloatNaN(t *testing.T) {
	got := roundTrip(t, math.NaN())
	if f, ok := got.(float64); !ok || !math.IsNaN(f) {
		t.Errorf("NaN round-trip = %v", got)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	in := time.Date(2026, 7, 5, 12, 30, 0, 123456789, time.UTC)
	got := roundTrip(t, in)
	if !got.(time.Time).Equal(in) {
		t.Errorf("time round-trip = %v, want %v", got, in)
	}
}

func TestListRoundTrip(t *testing.T) {
	in := []any{int64(1), "two", []any{true, nil}, 4.5}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %#v, want %#v", got, in)
	}
}

func TestMapRoundTrip(t *testing.T) {
	in := map[string]any{"a": int64(1), "b": "two", "nested": map[string]any{"x": false}}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %#v, want %#v", got, in)
	}
}

func TestMapCanonicalEncoding(t *testing.T) {
	in := map[string]any{"z": int64(1), "a": int64(2), "m": int64(3)}
	first := mustAppend(t, in)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(mustAppend(t, in), first) {
			t.Fatal("map encoding not canonical across iterations")
		}
	}
}

func TestStructRoundTrip(t *testing.T) {
	in := Struct{Name: "Account", Fields: []Field{
		{Name: "Owner", Value: "alice"},
		{Name: "Balance", Value: int64(100)},
	}}
	got := roundTrip(t, in).(*Struct)
	if got.Name != in.Name || len(got.Fields) != 2 {
		t.Fatalf("struct round-trip = %+v", got)
	}
	if v, ok := got.Get("Owner"); !ok || v != "alice" {
		t.Errorf("Get(Owner) = %v, %v", v, ok)
	}
	if _, ok := got.Get("Missing"); ok {
		t.Error("Get(Missing) found a field")
	}
}

func TestRefRoundTrip(t *testing.T) {
	in := Ref{
		Target: wire.ObjAddr{Addr: wire.Addr{Node: 2, Context: 1}, Object: 77},
		Type:   "FileService",
		Hint:   []byte("private-lease-token"),
		Cap:    0xdeadbeefcafe,
	}
	got := roundTrip(t, in).(Ref)
	if got.Target != in.Target || got.Type != in.Type || !bytes.Equal(got.Hint, in.Hint) || got.Cap != in.Cap {
		t.Errorf("ref round-trip = %+v, want %+v", got, in)
	}
}

func TestRefHookSubstitutes(t *testing.T) {
	ref := Ref{Target: wire.ObjAddr{Addr: wire.Addr{Node: 1, Context: 1}, Object: 5}, Type: "T"}
	buf := mustAppend(t, []any{"before", ref, "after"})
	d := Decoder{RefHook: func(r Ref) (any, error) {
		return "proxy:" + r.Type, nil
	}}
	got, _, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"before", "proxy:T", "after"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestRefHookError(t *testing.T) {
	boom := errors.New("no factory")
	buf := mustAppend(t, Ref{Type: "T"})
	d := Decoder{RefHook: func(Ref) (any, error) { return nil, boom }}
	if _, _, err := d.Decode(buf); !errors.Is(err, boom) {
		t.Errorf("Decode = %v, want wrapped %v", err, boom)
	}
}

func TestRefsWalk(t *testing.T) {
	r1 := Ref{Type: "A", Target: wire.ObjAddr{Object: 1}}
	r2 := Ref{Type: "B", Target: wire.ObjAddr{Object: 2}}
	v := []any{r1, map[string]any{"k": r2}, &Struct{Fields: []Field{{Name: "f", Value: r1}}}}
	refs := Refs(v)
	if len(refs) != 3 {
		t.Fatalf("Refs found %d, want 3", len(refs))
	}
	if refs[0].Type != r1.Type || refs[0].Target != r1.Target {
		t.Errorf("refs[0] = %v", refs[0])
	}
}

func TestEncodeDecodeArgs(t *testing.T) {
	buf, err := EncodeArgs("read", int64(0), int64(4096))
	if err != nil {
		t.Fatal(err)
	}
	args, err := DecodeArgs(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"read", int64(0), int64(4096)}
	if !reflect.DeepEqual(args, want) {
		t.Errorf("args = %#v, want %#v", args, want)
	}
}

func TestEncodeArgsEmpty(t *testing.T) {
	buf, err := EncodeArgs()
	if err != nil {
		t.Fatal(err)
	}
	args, err := DecodeArgs(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 0 {
		t.Errorf("empty args decoded to %v", args)
	}
}

func TestDecodeArgsTrailing(t *testing.T) {
	buf, _ := EncodeArgs(int64(1))
	buf = append(buf, 0xff)
	if _, err := DecodeArgs(buf); err == nil {
		t.Error("DecodeArgs accepted trailing garbage")
	}
}

// TestArgsMatchGenericList pins EncodeArgs and DecodeArgs to the generic
// list path they bypass: byte-identical encodings, the same depth limit,
// and the same error text, including for vectors nested right at the
// depth limit and for inputs that are not lists at all.
func TestArgsMatchGenericList(t *testing.T) {
	nest := func(levels int) any {
		var v any = int64(1)
		for i := 0; i < levels; i++ {
			v = []any{v}
		}
		return v
	}
	// genericDecodeArgs is the decode-then-assert form DecodeArgs replaces.
	genericDecodeArgs := func(src []byte) ([]any, error) {
		v, n, err := Decode(src)
		if err != nil {
			return nil, err
		}
		if n != len(src) {
			return nil, fmt.Errorf("codec: %d trailing bytes after argument vector", len(src)-n)
		}
		args, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("codec: argument vector is %T, want list", v)
		}
		return args, nil
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var inputs [][]byte
	for _, args := range [][]any{
		nil,
		{"get", int64(-3), []byte("v"), true},
		{nest(MaxDepth - 2)},
		{nest(MaxDepth - 1)},
		{nest(MaxDepth)},
		{make(chan int)},
	} {
		got, gerr := EncodeArgs(args...)
		want, werr := Append(nil, append([]any{}, args...))
		if errText(gerr) != errText(werr) {
			t.Fatalf("EncodeArgs(%d args) error %q, generic %q", len(args), gerr, werr)
		}
		if gerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("EncodeArgs = %x, generic = %x", got, want)
		}
		inputs = append(inputs, want)
	}
	deep, _ := Append(nil, []any{nest(MaxDepth - 1)})
	deeper := append([]byte{byte(TagList), 1}, deep...) // one level past the limit
	str, _ := Append(nil, "not a list")
	inputs = append(inputs, deeper, str, append(str, 0), nil, []byte{byte(TagList), 5, byte(TagNil)})
	for _, in := range inputs {
		got, gerr := DecodeArgs(in)
		want, werr := genericDecodeArgs(in)
		if errText(gerr) != errText(werr) {
			t.Errorf("DecodeArgs(%x) error %q, generic %q", in, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeArgs(%x) = %#v, generic %#v", in, got, want)
		}
	}
}

func TestUnsupportedType(t *testing.T) {
	type odd struct{ C chan int }
	if _, err := Append(nil, odd{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Append(struct) = %v, want ErrUnsupported (use Marshal)", err)
	}
	if _, err := Marshal(odd{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Marshal(chan field) = %v, want ErrUnsupported", err)
	}
}

func TestDecodeHostileInput(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{0xee}},
		{"truncated string", append([]byte{byte(TagString)}, wire.AppendUvarint(nil, 100)...)},
		{"truncated float", []byte{byte(TagFloat), 1, 2, 3}},
		{"huge list count", append([]byte{byte(TagList)}, wire.AppendUvarint(nil, 1<<40)...)},
		{"huge map count", append([]byte{byte(TagMap)}, wire.AppendUvarint(nil, 1<<40)...)},
		{"list missing elems", append([]byte{byte(TagList)}, 5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Decode(tt.in); err == nil {
				t.Errorf("Decode(%x) succeeded", tt.in)
			}
		})
	}
}

func TestDecodeDeepNesting(t *testing.T) {
	// Build input nested beyond MaxDepth: list-of-list-of-...
	buf := []byte{byte(TagNil)}
	for i := 0; i < MaxDepth+10; i++ {
		inner := buf
		buf = append([]byte{byte(TagList)}, wire.AppendUvarint(nil, 1)...)
		buf = append(buf, inner...)
	}
	if _, _, err := Decode(buf); !errors.Is(err, ErrTooDeep) {
		t.Errorf("Decode(deep) = %v, want ErrTooDeep", err)
	}
}

func TestAppendDeepNesting(t *testing.T) {
	v := any(nil)
	for i := 0; i < MaxDepth+10; i++ {
		v = []any{v}
	}
	if _, err := Append(nil, v); !errors.Is(err, ErrTooDeep) {
		t.Errorf("Append(deep) = %v, want ErrTooDeep", err)
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	gen := func(i int64, u uint64, f float64, s string, b []byte, flag bool) bool {
		in := []any{i, u, f, s, b, flag, nil}
		buf, err := Append(nil, in)
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		out := got.([]any)
		if len(out) != len(in) {
			return false
		}
		// NaN and byte-slice need special comparison.
		if out[0] != i || out[1] != u || out[3] != s || out[5] != flag || out[6] != nil {
			return false
		}
		if g := out[2].(float64); g != f && !(math.IsNaN(g) && math.IsNaN(f)) {
			return false
		}
		gb, ok := out[4].([]byte)
		if b == nil {
			return out[4] == nil || (ok && len(gb) == 0)
		}
		return ok && bytes.Equal(gb, b)
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeArgs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EncodeArgs("method", int64(i), "payload", true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeArgs(b *testing.B) {
	buf, _ := EncodeArgs("method", int64(1), "payload", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArgs(buf); err != nil {
			b.Fatal(err)
		}
	}
}
