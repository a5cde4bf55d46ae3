package xdr

import (
	"reflect"
	"sort"

	"openhpcxx/internal/errs"
)

// Reflection-based codec: MarshalValue/UnmarshalValue encode arbitrary
// Go values under XDR rules without hand-written MarshalXDR methods, in
// the spirit of Sun RPC's rpcgen-generated routines. Hand-written
// codecs remain the fast path for hot message types; the reflective
// path trades speed for convenience in tools and tests.
//
// Supported types: booleans; signed integers (encoded as hyper except
// int32, which stays a 4-byte int); unsigned integers (unsigned hyper
// except uint32); float32/float64; strings; []byte (opaque); slices and
// fixed arrays of supported types; maps with string keys (encoded as a
// length-prefixed sequence of key/value pairs in sorted key order, so
// encoding is deterministic); pointers (XDR optional-data); and structs
// of exported fields in declaration order. Fields tagged `xdr:"-"` are
// skipped. Types implementing Marshaler/Unmarshaler use their own
// methods.

// MarshalValue appends v to the encoder using reflection. A top-level
// pointer is dereferenced without an optional-data marker, mirroring
// UnmarshalValue's pointer argument; nested pointers encode as XDR
// optional data.
func (e *Encoder) MarshalValue(v any) error {
	if m, ok := v.(Marshaler); ok {
		return m.MarshalXDR(e)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return errs.Newf(errs.Codec, "xdr: cannot marshal nil %T", v)
		}
		rv = rv.Elem()
	}
	return e.marshalReflect(rv)
}

// MarshalAny encodes v into a fresh buffer using reflection.
func MarshalAny(v any) ([]byte, error) {
	e := NewEncoder(64)
	if err := e.MarshalValue(v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

func (e *Encoder) marshalReflect(v reflect.Value) error {
	if !v.IsValid() {
		return errs.New(errs.Codec, "xdr: cannot marshal invalid value")
	}
	if v.CanInterface() {
		if m, ok := v.Interface().(Marshaler); ok && v.Kind() != reflect.Pointer {
			return m.MarshalXDR(e)
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		e.PutBool(v.Bool())
	case reflect.Int32:
		e.PutInt32(int32(v.Int()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int64:
		e.PutInt64(v.Int())
	case reflect.Uint32:
		e.PutUint32(uint32(v.Uint()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint64:
		e.PutUint64(v.Uint())
	case reflect.Float32:
		e.PutFloat32(float32(v.Float()))
	case reflect.Float64:
		e.PutFloat64(v.Float())
	case reflect.String:
		e.PutString(v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.PutOpaque(v.Bytes())
			return nil
		}
		e.PutUint32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := e.marshalReflect(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := e.marshalReflect(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return errs.Newf(errs.Codec, "xdr: unsupported map key type %s", v.Type().Key())
		}
		keys := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		e.PutUint32(uint32(len(keys)))
		for _, k := range keys {
			e.PutString(k)
			if err := e.marshalReflect(v.MapIndex(reflect.ValueOf(k).Convert(v.Type().Key()))); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.PutBool(false)
			return nil
		}
		if m, ok := v.Interface().(Marshaler); ok {
			return m.MarshalXDR(e)
		}
		e.PutBool(true)
		return e.marshalReflect(v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("xdr") == "-" {
				continue
			}
			if err := e.marshalReflect(v.Field(i)); err != nil {
				return errs.Wrapf(errs.Codec, err, "field %s.%s", t.Name(), f.Name)
			}
		}
	default:
		return errs.Newf(errs.Codec, "xdr: unsupported kind %s", v.Kind())
	}
	return nil
}

// UnmarshalValue reads into the pointed-to value using reflection.
func (d *Decoder) UnmarshalValue(v any) error {
	if u, ok := v.(Unmarshaler); ok {
		return u.UnmarshalXDR(d)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errs.Newf(errs.Codec, "xdr: UnmarshalValue needs a non-nil pointer, got %T", v)
	}
	return d.unmarshalReflect(rv.Elem())
}

// UnmarshalAny decodes p into the pointed-to value, requiring all input
// be consumed.
func UnmarshalAny(p []byte, v any) error {
	d := NewDecoder(p)
	if err := d.UnmarshalValue(v); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return errs.Wrapf(errs.Codec, ErrTrailing, "%d bytes", d.Remaining())
	}
	return nil
}

func (d *Decoder) unmarshalReflect(v reflect.Value) error {
	if v.CanAddr() && v.Addr().CanInterface() {
		if u, ok := v.Addr().Interface().(Unmarshaler); ok {
			return u.UnmarshalXDR(d)
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		b, err := d.Bool()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int32:
		i, err := d.Int32()
		if err != nil {
			return err
		}
		v.SetInt(int64(i))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int64:
		i, err := d.Int64()
		if err != nil {
			return err
		}
		if v.OverflowInt(i) {
			return errs.Newf(errs.Codec, "xdr: %d overflows %s", i, v.Type())
		}
		v.SetInt(i)
	case reflect.Uint32:
		u, err := d.Uint32()
		if err != nil {
			return err
		}
		v.SetUint(uint64(u))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint64:
		u, err := d.Uint64()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return errs.Newf(errs.Codec, "xdr: %d overflows %s", u, v.Type())
		}
		v.SetUint(u)
	case reflect.Float32:
		f, err := d.Float32()
		if err != nil {
			return err
		}
		v.SetFloat(float64(f))
	case reflect.Float64:
		f, err := d.Float64()
		if err != nil {
			return err
		}
		v.SetFloat(f)
	case reflect.String:
		s, err := d.String()
		if err != nil {
			return err
		}
		v.SetString(s)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.Opaque()
			if err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		}
		n, err := d.length()
		if err != nil {
			return err
		}
		// A zero-size element costs no memory whatever the count;
		// otherwise the count is believed only as far as the input
		// backs it, and the slice grows as elements actually arrive.
		// An element that takes memory but reads no input (a struct of
		// unexported or skipped fields, an Unmarshaler that reads
		// nothing) is not backed at all, so only maxUnbacked bytes of
		// such elements decode.
		size := v.Type().Elem().Size()
		c := n
		if size != 0 {
			c = d.maxItems(n)
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(reflect.MakeSlice(v.Type(), 0, c))
		var unbacked uintptr
		for i := 0; i < n; i++ {
			out.Grow(1)
			out.SetLen(i + 1)
			before := d.Remaining()
			if err := d.unmarshalReflect(out.Index(i)); err != nil {
				return err
			}
			if d.Remaining() == before {
				if unbacked += size; unbacked > maxUnbacked {
					return errs.Wrapf(errs.Codec, ErrLength, "%d %s elements read no input", n, v.Type().Elem())
				}
			}
		}
		v.Set(out)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.unmarshalReflect(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return errs.Newf(errs.Codec, "xdr: unsupported map key type %s", v.Type().Key())
		}
		n, err := d.length()
		if err != nil {
			return err
		}
		// Every entry carries a string key, so none encodes to nothing.
		out := reflect.MakeMapWithSize(v.Type(), d.maxItems(n))
		for i := 0; i < n; i++ {
			k, err := d.String()
			if err != nil {
				return err
			}
			elem := reflect.New(v.Type().Elem()).Elem()
			if err := d.unmarshalReflect(elem); err != nil {
				return err
			}
			out.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), elem)
		}
		v.Set(out)
	case reflect.Pointer:
		present, err := d.Bool()
		if err != nil {
			return err
		}
		if !present {
			v.SetZero()
			return nil
		}
		elem := reflect.New(v.Type().Elem())
		if err := d.unmarshalReflect(elem.Elem()); err != nil {
			return err
		}
		v.Set(elem)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("xdr") == "-" {
				continue
			}
			if err := d.unmarshalReflect(v.Field(i)); err != nil {
				return errs.Wrapf(errs.Codec, err, "field %s.%s", t.Name(), f.Name)
			}
		}
	default:
		return errs.Newf(errs.Codec, "xdr: unsupported kind %s", v.Kind())
	}
	return nil
}

// maxUnbacked bounds the memory a slice's elements may take when they
// read no input, so a length prefix alone cannot make the decoder
// allocate more.
const maxUnbacked = 16 << 10

// maxItems caps a decoded element count n, which comes off the wire, at
// what the unread input can hold: every XDR item is a multiple of four
// bytes, so an element that encodes to anything takes at least four.
// Decoders preallocate only that many.
func (d *Decoder) maxItems(n int) int { return min(n, d.Remaining()/4) }
