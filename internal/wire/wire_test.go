package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

// TestRoundTrip: every primitive decodes to what was appended, and the
// decoder ends exactly at the end of the input.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendInt(b, -5)
	b = AppendVarint(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = AppendFloats(b, []float64{1.5, math.Inf(-1)})
	b = AppendFloats(b, nil)
	b = AppendBytes(b, []byte{7, 8})
	b = AppendString(b, "key")
	if FloatsSize(2) != 17 {
		t.Fatalf("FloatsSize(2) = %d", FloatsSize(2))
	}
	d := NewDecoder(b)
	if v := d.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Int(); v != -5 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.Varint(); v != math.MinInt64 {
		t.Fatalf("Varint = %d", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.Float64(); math.Float64bits(v) != 1<<63 {
		t.Fatalf("Float64 = %v", v)
	}
	if v := d.Floats(); len(v) != 2 || v[0] != 1.5 || !math.IsInf(v[1], -1) {
		t.Fatalf("Floats = %v", v)
	}
	if v := d.Floats(); v != nil {
		t.Fatalf("empty Floats = %v, want nil", v)
	}
	if v := d.Bytes(); len(v) != 2 || v[0] != 7 || v[1] != 8 {
		t.Fatalf("Bytes = %v", v)
	}
	if v := d.Text(); v != "key" {
		t.Fatalf("Text = %q", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNonCanonical: the decoder accepts only what the encoders
// write, and the first failure sticks.
func TestRejectsNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(d *Decoder)
	}{
		"non-minimal varint": {[]byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		"overflowing varint": {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(d *Decoder) { d.Uvarint() }},
		"truncated varint":   {[]byte{0x80}, func(d *Decoder) { d.Uvarint() }},
		"bool byte 2":        {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"truncated float":    {[]byte{1, 2, 3}, func(d *Decoder) { d.Float64() }},
		"oversize floats":    {[]byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Floats() }},
		"oversize bytes":     {[]byte{5, 1}, func(d *Decoder) { d.Bytes() }},
		"trailing bytes":     {[]byte{1, 9}, func(d *Decoder) { d.Byte() }},
	} {
		d := NewDecoder(tc.in)
		tc.read(d)
		if err := d.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err %v", name, err)
		}
	}
	d := NewDecoder([]byte{2, 1})
	d.Bool()
	if v := d.Byte(); v != 0 || d.Err() == nil {
		t.Fatalf("read after failure returned %d, err %v", v, d.Err())
	}
}

// TestReadSeq: elements decode in order, count 0 is nil, and a count
// the input cannot back fails after reserving room for about the
// input's size, not the count.
func TestReadSeq(t *testing.T) {
	d := NewDecoder(AppendInt(AppendInt(AppendUvarint(nil, 2), 7), -7))
	if v := ReadSeq(d, 1, (*Decoder).Int); len(v) != 2 || v[0] != 7 || v[1] != -7 || d.Finish() != nil {
		t.Fatalf("ReadSeq = %v, err %v", v, d.Err())
	}
	if v := ReadSeq(NewDecoder([]byte{0}), 1, (*Decoder).Int); v != nil {
		t.Fatalf("empty ReadSeq = %v, want nil", v)
	}
	// 4 MiB of overflowing varints under a count of 4Mi elements of
	// 64 bytes each: trusting the count would allocate 256 MiB.
	tail := bytes.Repeat([]byte{0xff}, 4<<20)
	body := append(AppendUvarint(nil, uint64(len(tail))), tail...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = NewDecoder(body)
	ReadSeq(d, 1, func(d *Decoder) (big [64]byte) { d.Int(); return big })
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(len(body))+64<<10 {
		t.Fatalf("ReadSeq allocated %d bytes for a failing count in %d bytes", n, len(body))
	}
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("err %v", d.Err())
	}
}
