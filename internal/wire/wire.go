// Package wire holds the primitives of the binary codec every durable
// body is written in: session snapshots, journal records and migration
// bodies. The format is deliberately dumb and stable: uvarint lengths
// and counts, zigzag varint ints, one byte per bool, and float64 values
// as raw little-endian bits, so every value round-trips bit for bit
// (0.0 and -0.0, NaN payloads included).
//
// Encoders are append functions into a caller-owned buffer, so a
// caller that reuses its buffer encodes without allocating. Decoding
// goes through a Decoder that records the first failure and turns
// every later read into a zero-value no-op: decode code reads field
// after field and checks Finish once. The decoder accepts only the
// bytes the encoders produce — non-minimal varints, bools other than 0
// and 1, lengths beyond the remaining input and trailing bytes are all
// rejected — so any accepted input re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrMalformed is wrapped by every decode failure.
var ErrMalformed = errors.New("wire: malformed encoding")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends the raw little-endian bits of v.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendFloats appends a uvarint length and the raw bits of each value.
func AppendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendBytes appends a uvarint length and the bytes.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends a uvarint length and the string's bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// FloatsSize is the encoded size of n float64 values under AppendFloats.
func FloatsSize(n int) int { return uvarintSize(uint64(n)) + 8*n }

// uvarintSize is the encoded size of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decoder reads values written by the Append functions. The zero value
// is not usable; construct one with NewDecoder.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over data. Bytes and Text return
// copies; only Raw aliases data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Fail records a decode failure (the first one wins) and empties the
// input, so every later read returns a zero value. Callers use it for
// semantic rejections found mid-decode.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	d.buf = nil
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error when input remains
// unread: an encoding is exactly its bytes, never a prefix of them.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.Fail("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Uvarint reads a minimally encoded uvarint.
func (d *Decoder) Uvarint() uint64 {
	if len(d.buf) > 0 && d.buf[0] < 0x80 { // the one-byte common case
		v := d.buf[0]
		d.buf = d.buf[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.Fail("truncated varint")
		return 0
	case n < 0:
		d.Fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.buf[n-1] == 0:
		d.Fail("non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a minimally encoded zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint that fits an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) < 1 {
		d.Fail("truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bool reads a bool byte, rejecting anything but 0 and 1.
func (d *Decoder) Bool() bool {
	switch b := d.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		d.Fail("bool byte %d", b)
		return false
	}
}

// Float64 reads one raw float64.
func (d *Decoder) Float64() float64 {
	if len(d.buf) < 8 {
		d.Fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Len reads a length or count whose elements take at least minSize
// bytes each, rejecting one the remaining input cannot hold. Callers
// allocate for it directly only when a decoded element is no larger
// than its encoding (bytes, floats); counted structures go through
// ReadSeq, which does not trust the count with an allocation.
func (d *Decoder) Len(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.buf)/minSize) {
		d.Fail("length %d exceeds the remaining %d bytes", n, len(d.buf))
		return 0
	}
	return int(n)
}

// minPreallocBytes is how much ReadSeq reserves up front even when less
// input remains: enough that real states decode without regrowing.
const minPreallocBytes = 1 << 20

// ReadSeq reads a count, then that many elements through read, each of
// which takes at least minSize encoded bytes; count 0 decodes to nil.
// It stops at the first failure. Up front it reserves room for no more
// bytes than the input has left (or minPreallocBytes, if larger), and
// the slice grows past that only as elements decode. So a count that
// promises more than the input holds costs at most one allocation of
// about the input's size before the decode fails, however much larger
// the decoded element is than its encoding.
func ReadSeq[T any](d *Decoder, minSize int, read func(*Decoder) T) []T {
	n := d.Len(minSize)
	if n == 0 {
		return nil
	}
	var zero T
	room := max(len(d.buf), minPreallocBytes) / max(int(unsafe.Sizeof(zero)), 1)
	out := make([]T, 0, min(n, room))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, read(d))
	}
	return out
}

// Floats reads a slice written by AppendFloats; length 0 decodes to nil.
func (d *Decoder) Floats() []float64 {
	n := d.Len(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
	}
	d.buf = d.buf[8*n:]
	return out
}

// Raw returns the next n bytes without copying; they alias the input.
func (d *Decoder) Raw(n int) []byte {
	if n < 0 || n > len(d.buf) {
		d.Fail("truncated: want %d bytes, %d remain", n, len(d.buf))
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Bytes reads a copy of a slice written by AppendBytes; length 0
// decodes to nil.
func (d *Decoder) Bytes() []byte {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.Raw(n)...)
}

// Text reads a string written by AppendString.
func (d *Decoder) Text() string { return string(d.Raw(d.Len(1))) }
