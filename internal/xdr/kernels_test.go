package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The array kernels move eight bytes per step. These references are
// the plain byte-at-a-time encodings they replaced; the kernels must
// produce and accept exactly the same bytes.

func refPutInt32s(v []int32) []byte {
	b := []byte{byte(len(v) >> 24), byte(len(v) >> 16), byte(len(v) >> 8), byte(len(v))}
	for _, x := range v {
		u := uint32(x)
		b = append(b, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return b
}

func refPutFloat64s(v []float64) []byte {
	b := []byte{byte(len(v) >> 24), byte(len(v) >> 16), byte(len(v) >> 8), byte(len(v))}
	for _, x := range v {
		u := math.Float64bits(x)
		b = append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return b
}

func refInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(uint32(b[4*i])<<24 | uint32(b[4*i+1])<<16 | uint32(b[4*i+2])<<8 | uint32(b[4*i+3]))
	}
	return out
}

func refFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		var u uint64
		for _, c := range b[8*i : 8*i+8] {
			u = u<<8 | uint64(c)
		}
		out[i] = math.Float64frombits(u)
	}
	return out
}

// checkArrayKernels compares the encoders with their references on the
// given values and checks that the decoders return what was encoded.
// Floats are compared by bit pattern so NaN payloads count.
func checkArrayKernels(t *testing.T, ints []int32, floats []float64) {
	t.Helper()
	e := NewEncoder(0)
	e.PutInt32s(ints)
	if want := refPutInt32s(ints); !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("PutInt32s(len %d) = %x, want %x", len(ints), e.Bytes(), want)
	}
	got, err := NewDecoder(e.Bytes()).Int32s()
	if err != nil {
		t.Fatalf("Int32s(len %d): %v", len(ints), err)
	}
	if len(got) != len(ints) {
		t.Fatalf("Int32s: decoded %d elements, encoded %d", len(got), len(ints))
	}
	for i := range got {
		if got[i] != ints[i] {
			t.Fatalf("Int32s(len %d)[%d] = %d, want %d", len(ints), i, got[i], ints[i])
		}
	}

	e.Reset()
	e.PutFloat64s(floats)
	if want := refPutFloat64s(floats); !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("PutFloat64s(len %d) = %x, want %x", len(floats), e.Bytes(), want)
	}
	gotF, err := NewDecoder(e.Bytes()).Float64s()
	if err != nil {
		t.Fatalf("Float64s(len %d): %v", len(floats), err)
	}
	if len(gotF) != len(floats) {
		t.Fatalf("Float64s: decoded %d elements, encoded %d", len(gotF), len(floats))
	}
	for i := range gotF {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("Float64s(len %d)[%d] = %v, want %v", len(floats), i, gotF[i], floats[i])
		}
	}
}

// TestArrayKernelsMatchReference covers every length from empty through
// several unrolled steps plus each possible tail, with seeded random
// values spanning the full bit range.
func TestArrayKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 67; n++ {
		ints := make([]int32, n)
		floats := make([]float64, n)
		for i := range ints {
			ints[i] = int32(rng.Uint32())
			floats[i] = math.Float64frombits(rng.Uint64())
		}
		checkArrayKernels(t, ints, floats)
	}
}

// TestArrayKernelsDecodeArbitraryBytes feeds the decoders bytes no
// encoder wrote and compares them with the reference element by element.
func TestArrayKernelsDecodeArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n <= 67; n++ {
		body := make([]byte, 8*n)
		rng.Read(body)
		checkDecodeKernels(t, body)
	}
}

func checkDecodeKernels(t *testing.T, body []byte) {
	t.Helper()
	prefixed := func(n int, b []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(n)), b...)
	}
	n32 := len(body) / 4
	got, err := NewDecoder(prefixed(n32, body[:4*n32])).Int32s()
	if err != nil {
		t.Fatalf("Int32s(%d): %v", n32, err)
	}
	for i, w := range refInt32s(body[:4*n32]) {
		if got[i] != w {
			t.Fatalf("Int32s(%d)[%d] = %d, want %d", n32, i, got[i], w)
		}
	}
	n64 := len(body) / 8
	gotF, err := NewDecoder(prefixed(n64, body[:8*n64])).Float64s()
	if err != nil {
		t.Fatalf("Float64s(%d): %v", n64, err)
	}
	for i, w := range refFloat64s(body[:8*n64]) {
		if math.Float64bits(gotF[i]) != math.Float64bits(w) {
			t.Fatalf("Float64s(%d)[%d] = %v, want %v", n64, i, gotF[i], w)
		}
	}
	// One element short: the kernels must report a short buffer, not
	// read past the input.
	if n32 > 0 {
		if _, err := NewDecoder(prefixed(n32, body[:4*n32-4])).Int32s(); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("Int32s short by one element: %v, want ErrShortBuffer", err)
		}
	}
	if n64 > 0 {
		if _, err := NewDecoder(prefixed(n64, body[:8*n64-8])).Float64s(); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("Float64s short by one element: %v, want ErrShortBuffer", err)
		}
	}
}

// FuzzArrayKernels checks the kernels against the references on
// arbitrary bytes, read both as array bodies to decode and as element
// values to encode.
func FuzzArrayKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0, 0xff}, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeKernels(t, data)
		checkArrayKernels(t, refInt32s(data), refFloat64s(data))
	})
}

// unencoded takes memory but encodes to no bytes: its only field is
// unexported.
type unencoded struct{ x int }

// readsNothing is an Unmarshaler that takes memory but reads no input.
type readsNothing struct{ x [4]int64 }

func (*readsNothing) UnmarshalXDR(*Decoder) error { return nil }

// TestReflectDecodeBoundsPrealloc pins the fix for a decoder that sized
// its allocation from an unchecked length prefix: a four-byte input
// claiming 2^24 int64s used to allocate 128 MiB before failing with a
// short buffer. Now the preallocation is capped by the input that is
// actually there, and elements that read no input at all stop at
// maxUnbacked bytes instead of growing to the 2^28 length limit.
func TestReflectDecodeBoundsPrealloc(t *testing.T) {
	const budget = 64 << 10
	cases := []struct {
		name string
		in   []byte
		into func() any
		want error
	}{
		{"slice", []byte{1, 0, 0, 0}, func() any { return &[]int64{} }, ErrShortBuffer},
		{"slice-at-limit", []byte{0x10, 0, 0, 0}, func() any { return &[]int64{} }, ErrShortBuffer},
		{"map", []byte{1, 0, 0, 0}, func() any { return &map[string]int64{} }, ErrShortBuffer},
		{"map-of-empty", []byte{1, 0, 0, 0}, func() any { return &map[string]struct{}{} }, ErrShortBuffer},
		{"slice-of-unencoded", []byte{0x10, 0, 0, 0}, func() any { return &[]unencoded{} }, ErrLength},
		{"slice-of-reads-nothing", []byte{0x10, 0, 0, 0}, func() any { return &[]readsNothing{} }, ErrLength},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := c.into()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := UnmarshalAny(c.in, v)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, c.want) {
				t.Fatalf("UnmarshalAny: %v, want %v", err, c.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Fatalf("allocated %d bytes decoding %d input bytes, budget %d", got, len(c.in), budget)
			}
		})
	}
}

// TestReflectDecodeGrowsPastPrealloc checks that capping the
// preallocation loses nothing: zero-size elements, which encode to no
// bytes at all, elements that take memory but encode to nothing (up to
// maxUnbacked bytes of them), and elements that outnumber the cap still
// decode.
func TestReflectDecodeGrowsPastPrealloc(t *testing.T) {
	var empties []struct{}
	if err := UnmarshalAny([]byte{0, 0, 0, 5}, &empties); err != nil || len(empties) != 5 {
		t.Fatalf("[]struct{}: len %d, %v", len(empties), err)
	}
	var hid []unencoded
	if err := UnmarshalAny([]byte{0, 0, 0, 3}, &hid); err != nil || len(hid) != 3 {
		t.Fatalf("[]struct{unexported}: len %d, %v", len(hid), err)
	}
	most := maxUnbacked / int(reflect.TypeOf(unencoded{}).Size())
	if err := UnmarshalAny(binary.BigEndian.AppendUint32(nil, uint32(most)), &hid); err != nil || len(hid) != most {
		t.Fatalf("[]struct{unexported} at the bound: len %d, %v", len(hid), err)
	}
	if err := UnmarshalAny(binary.BigEndian.AppendUint32(nil, uint32(most+1)), &hid); !errors.Is(err, ErrLength) {
		t.Fatalf("[]struct{unexported} past the bound: %v, want ErrLength", err)
	}
	want := []int64{1, -2, 3, math.MaxInt64}
	p, err := MarshalAny(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	if err := UnmarshalAny(p, &got); err != nil || len(got) != len(want) {
		t.Fatalf("[]int64: %v, %v", got, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("[]int64[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
