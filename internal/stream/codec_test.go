package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// codecTestServer is a small multi-cohort server with some history.
func codecTestServer(t *testing.T) *Server {
	t.Helper()
	pb := stateChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	models := []AdversaryModel{{Backward: pb, Forward: pb}, {Backward: pb}, {}}
	srv, err := NewServer(2, len(models), models, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNoiseSeed(4)
	for i := 0; i < 5; i++ {
		if _, err := srv.Collect([]int{i % 2, 1, 0}, 0.1*float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// allocatedBytes is how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeServerStateBoundsAllocation: a count that promises more
// elements than the input holds fails after allocating no more than
// about the input's size. Each body states as many user cohorts,
// cohorts or published rows as its 4 MiB tail could hold at their
// smallest encoding, then breaks off at the first element; decoding for
// the count would take 32, 64 and 96 MiB.
func TestDecodeServerStateBoundsAllocation(t *testing.T) {
	prefix := []byte{serverStateVersion}
	for range 3 { // Domain, Users, Workers
		prefix = wire.AppendInt(prefix, 0)
	}
	prefix = wire.AppendFloat64(prefix, 1)    // Sensitivity
	prefix = wire.AppendInt(prefix, 0)        // Noise
	tail := bytes.Repeat([]byte{0xff}, 4<<20) // an overflowing varint
	for name, body := range map[string][]byte{
		"user cohorts": append(wire.AppendUvarint(bytes.Clone(prefix), uint64(len(tail))), tail...),
		"cohorts":      append(wire.AppendUvarint(append(bytes.Clone(prefix), 0), uint64(len(tail)/minCohortSize)), tail...),
		"published":    append(wire.AppendUvarint(append(bytes.Clone(prefix), 0, 0), uint64(len(tail))), tail...),
	} {
		var err error
		if n := allocatedBytes(func() { _, err = DecodeServerState(body) }); n > uint64(len(body))+64<<10 {
			t.Errorf("%s: decode allocated %d bytes for a %d-byte body", name, n, len(body))
		}
		if !errors.Is(err, ErrBadServerState) {
			t.Errorf("%s: err %v", name, err)
		}
	}
}

// TestServerStateCodecRejectsCorruption: every truncation, a trailing
// byte and an unknown version fail with ErrBadServerState, never a
// panic or a partial state.
func TestServerStateCodecRejectsCorruption(t *testing.T) {
	wire, err := codecTestServer(t).Snapshot().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if st, err := DecodeServerState(wire[:cut]); !errors.Is(err, ErrBadServerState) || st != nil {
			t.Fatalf("truncation at %d/%d: state %v, err %v", cut, len(wire), st, err)
		}
	}
	if _, err := DecodeServerState(append(wire, 0)); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("trailing byte: err %v", err)
	}
	bumped := append([]byte(nil), wire...)
	bumped[0] = serverStateVersion + 1
	if _, err := DecodeServerState(bumped); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("unknown version: err %v", err)
	}
	// A length prefix claiming more elements than the input holds is
	// rejected before anything is allocated for it.
	huge := append([]byte{serverStateVersion, 2, 2, 0}, make([]byte, 8)...)
	huge = append(huge, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := DecodeServerState(huge); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("oversize length: err %v", err)
	}
}

// TestStepRecordCodecRoundTrip: a step record round-trips bit for bit
// (negative zero, subnormals, NaN payloads) and rejects truncation and
// trailing bytes.
func TestStepRecordCodecRoundTrip(t *testing.T) {
	rec := StepRecord{T: 1 << 40, Eps: 0.1, Published: []float64{math.Copysign(0, -1), 5e-324, math.Float64frombits(0x7ff8000000000abc), -3.5}, NoiseDraws: math.MaxUint64}
	wire, err := rec.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	wire = wire[len("prefix"):]
	back, err := DecodeStepRecord(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.T != rec.T || back.Eps != rec.Eps || back.NoiseDraws != rec.NoiseDraws || len(back.Published) != len(rec.Published) {
		t.Fatalf("decoded %+v, want %+v", back, rec)
	}
	for i, v := range back.Published {
		if math.Float64bits(v) != math.Float64bits(rec.Published[i]) {
			t.Fatalf("bin %d: bits %x, want %x", i, math.Float64bits(v), math.Float64bits(rec.Published[i]))
		}
	}
	again, _ := back.AppendBinary(nil)
	if !bytes.Equal(again, wire) {
		t.Fatal("decoded record re-encodes to different bytes")
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeStepRecord(wire[:cut]); !errors.Is(err, ErrBadServerState) {
			t.Fatalf("truncation at %d/%d: err %v", cut, len(wire), err)
		}
	}
	if _, err := DecodeStepRecord(append(wire, 0)); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("trailing byte: err %v", err)
	}
}

// benchServerState is a 100k-user, 10-cohort state with T steps.
func benchServerState(b *testing.B, steps int) *ServerState {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const users, domain, classes = 100_000, 4, 10
	models := make([]AdversaryModel, users)
	for i := range models {
		if i < classes {
			c := sparseChain(b, domain, int64(i))
			models[i] = AdversaryModel{Backward: c, Forward: c}
		} else {
			models[i] = models[i%classes]
		}
	}
	srv, err := NewServer(domain, users, models, rng)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{users / 4, users / 4, users / 4, users - 3*(users/4)}
	batch := make([]BatchStep, 256)
	eps := 0.1
	for i := range batch {
		batch[i] = BatchStep{Counts: counts, Eps: &eps}
	}
	for srv.T() < steps {
		if _, err := srv.CollectBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return srv.Snapshot()
}

// BenchmarkServerStateCodec: encoding into a reused buffer and decoding
// a snapshot-sized state (100k users, 10 cohorts, T=8192).
func BenchmarkServerStateCodec(b *testing.B) {
	st := benchServerState(b, 8192)
	buf, err := st.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		for b.Loop() {
			buf, _ = st.AppendBinary(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		for b.Loop() {
			if _, err := DecodeServerState(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
