package service

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/wire"
)

// codecTestState is the live session state of a small durable session
// with keyed batches behind it, ready to encode.
func codecTestState(t testing.TB) sessionState {
	t.Helper()
	dir, err := os.MkdirTemp("", "codec-state-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.EnablePersistence(store, 1000); err != nil {
		t.Fatal(err)
	}
	s, err := r.Create(persistTestConfig("codec", 5, true))
	if err != nil {
		t.Fatal(err)
	}
	e := 0.3
	for i, key := range []string{"a", "b"} {
		batch := []stream.BatchStep{{Counts: []int{3, 2}, Eps: &e}, {Counts: []int{1, 4}}}
		if _, _, err := s.CollectBatch(key, batch[:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return sessionState{ConfigJSON: s.cfgJSON, Created: s.created, Server: s.srv.Snapshot(), Idem: s.idem.entries()}
}

// codecTestResults is a landed batch of n steps over a domain-4
// histogram, with the awkward float values spelled out.
func codecTestResults(n int) []stream.StepResult {
	rng := rand.New(rand.NewSource(1))
	results := make([]stream.StepResult, n)
	for i := range results {
		pub := []float64{rng.NormFloat64(), math.Copysign(0, -1), 5e-324, rng.NormFloat64() * 1e6}
		results[i] = stream.StepResult{T: 1000 + i, Eps: 0.1, Planned: i%3 == 0, Published: pub, Draws: uint64(4 * (1000 + i))}
	}
	return results
}

// resultsOf turns decoded journal steps back into the results the
// encoder takes.
func resultsOf(steps []stream.StepRecord) []stream.StepResult {
	out := make([]stream.StepResult, len(steps))
	for i, st := range steps {
		out[i] = stream.StepResult{T: st.T, Eps: st.Eps, Published: st.Published, Draws: st.NoiseDraws}
	}
	return out
}

// TestSessionStateRoundTrip: a session state decodes to the same value
// and re-encodes to the same bytes, and any truncation or trailing byte
// is rejected.
func TestSessionStateRoundTrip(t *testing.T) {
	st := codecTestState(t)
	body, err := st.appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeSessionV3(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.ConfigJSON, st.ConfigJSON) || !back.Created.Equal(st.Created) || len(back.Idem) != 2 || back.Idem[1].Key != "b" || back.Idem[1].Hash != st.Idem[1].Hash {
		t.Fatalf("decoded state differs: %+v", back)
	}
	again, err := back.appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, body) {
		t.Fatal("decoded state re-encodes to different bytes")
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeSessionV3(body[:cut]); !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, stream.ErrBadServerState) {
			t.Fatalf("truncation at %d/%d: err %v", cut, len(body), err)
		}
	}
	if _, err := decodeSessionV3(append(body, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBatchRecordRoundTrip: the journal record of a batch decodes to
// its steps and key, bit for bit, and re-encodes to the same bytes.
func TestBatchRecordRoundTrip(t *testing.T) {
	results := codecTestResults(5)
	idem := &idemRecord{Key: "key", Hash: [32]byte{1, 2, 3}, FirstT: 1000, Planned: []bool{true, false, false, true, false}}
	for _, withKey := range []*idemRecord{idem, nil} {
		body := appendBatchRecord(nil, results, withKey)
		rec, err := decodeBatchV3(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Steps) != len(results) || (rec.Idem == nil) != (withKey == nil) {
			t.Fatalf("decoded %d steps, idem %v", len(rec.Steps), rec.Idem)
		}
		for i, st := range rec.Steps {
			r := results[i]
			if st.T != r.T || st.Eps != r.Eps || st.NoiseDraws != r.Draws {
				t.Fatalf("step %d: %+v from %+v", i, st, r)
			}
			for j, v := range st.Published {
				if math.Float64bits(v) != math.Float64bits(r.Published[j]) {
					t.Fatalf("step %d bin %d: bits %x, want %x", i, j, math.Float64bits(v), math.Float64bits(r.Published[j]))
				}
			}
		}
		if !bytes.Equal(appendBatchRecord(nil, resultsOf(rec.Steps), rec.Idem), body) {
			t.Fatal("decoded record re-encodes to different bytes")
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeBatchV3(body[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d accepted", cut, len(body))
			}
		}
		if _, err := decodeBatchV3(append(body, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
}

// TestAppendBatchRecordNoAllocs: journaling a 256-step batch into a
// reused buffer allocates nothing.
func TestAppendBatchRecordNoAllocs(t *testing.T) {
	results := codecTestResults(256)
	idem := &idemRecord{Key: "batch-key", FirstT: results[0].T, Planned: make([]bool, len(results))}
	buf := appendBatchRecord(nil, results, idem)
	if allocs := testing.AllocsPerRun(50, func() {
		buf = appendBatchRecord(buf[:0], results, idem)
	}); allocs != 0 {
		t.Fatalf("appendBatchRecord: %v allocs per 256-step record, want 0", allocs)
	}
}

// allocatedBytes is how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsAllocation: an idempotency-entry or step count that
// promises more than the body holds fails after allocating no more than
// about the body's size. Each body states as many entries as its 16 MiB
// tail could hold at their smallest encoding, then breaks off at the
// first one; decoding for the count would take about 38 and 70 MiB.
func TestDecodeBoundsAllocation(t *testing.T) {
	minimal, err := (&sessionState{Created: time.Unix(0, 0).UTC(), Server: &stream.ServerState{}}).appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	tail := bytes.Repeat([]byte{0xff}, 16<<20) // an overflowing varint
	session := append(wire.AppendUvarint(minimal[:len(minimal)-1], uint64(len(tail)/minIdemSize)), tail...)
	batch := append(wire.AppendUvarint(nil, uint64(len(tail)/stream.MinStepRecordSize)), tail...)
	for name, decode := range map[string]func() error{
		"idem entries": func() error { _, err := decodeSessionV3(session); return err },
		"steps":        func() error { _, err := decodeBatchV3(batch); return err },
	} {
		var err error
		if n := allocatedBytes(func() { err = decode() }); n > uint64(len(tail))+64<<10 {
			t.Errorf("%s: decode allocated %d bytes for a %d-byte tail", name, n, len(tail))
		}
		if !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: err %v", name, err)
		}
	}
}

// TestDecodeRejectsUnknownVersions: envelopes of versions this build
// does not read fail cleanly rather than being guessed at.
func TestDecodeRejectsUnknownVersions(t *testing.T) {
	if _, err := decodeSessionBody(sessionSchemaVersion+1, nil); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if _, err := decodeJournalRecord(batchSchemaVersion+1, nil); err == nil {
		t.Fatal("future journal version accepted")
	}
	// A gob body under the version-3 number is malformed, not legacy.
	snap, err := os.ReadFile(filepath.Join("testdata", "legacy", "legacy-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := persist.DecodeEnvelope(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSessionBody(sessionSchemaVersion, body); err == nil {
		t.Fatal("gob body decoded as version 3")
	}
}

// FuzzDecodeSessionState: arbitrary snapshot bodies never panic;
// whatever decodes re-encodes to exactly the input, and drops to an
// error when truncated or extended by a byte.
func FuzzDecodeSessionState(f *testing.F) {
	st := codecTestState(f)
	body, err := st.appendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte{})
	minimal := sessionState{Created: time.Unix(0, 0).UTC(), Server: &stream.ServerState{}}
	if b, err := minimal.appendBinary(nil); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSessionV3(data)
		if err != nil {
			return
		}
		again, err := st.appendBinary(nil)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		if _, err := decodeSessionV3(data[:len(data)-1]); err == nil {
			t.Fatal("truncated input accepted")
		}
		if _, err := decodeSessionV3(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}

// FuzzDecodeBatchRecord: arbitrary journal bodies never panic; whatever
// decodes re-encodes through the journal encoder to exactly the input,
// and drops to an error when truncated or extended by a byte.
func FuzzDecodeBatchRecord(f *testing.F) {
	results := codecTestResults(3)
	f.Add(appendBatchRecord(nil, results, &idemRecord{Key: "k", FirstT: results[0].T, Planned: []bool{true, false, true}}))
	f.Add(appendBatchRecord(nil, results[:1], nil))
	f.Add([]byte{0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeBatchV3(data)
		if err != nil {
			return
		}
		if again := appendBatchRecord(nil, resultsOf(rec.Steps), rec.Idem); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		if _, err := decodeBatchV3(data[:len(data)-1]); err == nil {
			t.Fatal("truncated input accepted")
		}
		if _, err := decodeBatchV3(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}
