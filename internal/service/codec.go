package service

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Body codec of the durable state, schema version 3: snapshot and
// migration bodies (sessionState) and journal records (batchRecord),
// written with the wire package's primitives. The envelope around each
// body carries the schema version; the layouts are:
//
//	sessionState:  ConfigJSON bytes
//	               Created    length, time.Time binary encoding
//	               Server     stream.ServerState encoding
//	               Idem       count, idemRecord each
//	batchRecord:   Steps      count, stream.StepRecord encoding each
//	               Idem       bool presence, idemRecord
//	idemRecord:    Key string, Hash 32 raw bytes, FirstT varint,
//	               Planned count + one bool byte each
//
// Every layout change here or in the embedded stream encodings bumps
// the schema version; versions 1 and 2 are read by legacy_gob.go. The
// fixtures under testdata/v3 pin this layout byte for byte.

// maxPooledEncode caps the encode buffers the pool keeps: a one-off huge
// snapshot should not pin its buffer for the life of the process.
const maxPooledEncode = 64 << 20

// bodyBufs recycles encode buffers across sessions. A buffer goes back
// only after the call that consumed its bytes (SaveSnapshot,
// appendJournal) has returned: a group-commit append writes the body
// from the committer's goroutine while the appender waits.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// getBodyBuf takes an empty pooled encode buffer.
func getBodyBuf() *[]byte {
	buf := bodyBufs.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

// putBodyBuf returns an encode buffer, keeping whatever capacity the
// encode grew it to.
func putBodyBuf(buf *[]byte, body []byte) {
	if cap(body) > maxPooledEncode {
		return
	}
	*buf = body[:0]
	bodyBufs.Put(buf)
}

// appendBinary appends the session state's version-3 encoding; Server
// must be set.
func (st *sessionState) appendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendBytes(dst, st.ConfigJSON)
	var buf [16]byte // time.Time's binary form is 15 or 16 bytes
	created, err := st.Created.AppendBinary(buf[:0])
	if err != nil {
		return dst, err
	}
	dst = wire.AppendBytes(dst, created)
	if dst, err = st.Server.AppendBinary(dst); err != nil {
		return dst, err
	}
	dst = wire.AppendUvarint(dst, uint64(len(st.Idem)))
	for i := range st.Idem {
		dst = appendIdem(dst, &st.Idem[i])
	}
	return dst, nil
}

// decodeSessionV3 decodes exactly one version-3 session state.
func decodeSessionV3(data []byte) (sessionState, error) {
	d := wire.NewDecoder(data)
	var st sessionState
	st.ConfigJSON = d.Bytes()
	if created := d.Raw(d.Len(1)); d.Err() == nil {
		if err := st.Created.UnmarshalBinary(created); err != nil {
			d.Fail("created time: %v", err)
		} else if again, _ := st.Created.AppendBinary(nil); !bytes.Equal(again, created) {
			// time.Time accepts more than one encoding of an instant;
			// only the canonical one re-encodes to the stored bytes.
			d.Fail("non-canonical created time")
		}
	}
	st.Server = stream.ReadServerState(d)
	st.Idem = wire.ReadSeq(d, minIdemSize, readIdem)
	if err := d.Finish(); err != nil {
		return sessionState{}, err
	}
	return st, nil
}

// appendIdem appends one idempotency record.
//
//tplvet:hotpath
func appendIdem(dst []byte, rec *idemRecord) []byte {
	dst = wire.AppendString(dst, rec.Key)
	dst = append(dst, rec.Hash[:]...)
	dst = wire.AppendInt(dst, rec.FirstT)
	dst = wire.AppendUvarint(dst, uint64(len(rec.Planned)))
	for _, p := range rec.Planned {
		dst = wire.AppendBool(dst, p)
	}
	return dst
}

// minIdemSize is the smallest appendIdem encoding: the key length,
// FirstT and the Planned count one byte each, the hash 32.
const minIdemSize = 35

// readIdem decodes one appendIdem encoding from the front of d.
func readIdem(d *wire.Decoder) idemRecord {
	rec := idemRecord{Key: d.Text()}
	copy(rec.Hash[:], d.Raw(len(rec.Hash)))
	rec.FirstT = d.Int()
	rec.Planned = wire.ReadSeq(d, 1, (*wire.Decoder).Bool)
	return rec
}

// appendBatchRecord appends the version-3 journal record of one landed
// batch: its steps straight from the results (no intermediate
// []stream.StepRecord) and its optional idempotency record. Into a
// buffer with room it does not allocate.
//
//tplvet:hotpath
func appendBatchRecord(dst []byte, results []stream.StepResult, idem *idemRecord) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(results)))
	for i := range results {
		r := &results[i]
		dst, _ = stream.StepRecord{T: r.T, Eps: r.Eps, Published: r.Published, NoiseDraws: r.Draws}.AppendBinary(dst)
	}
	dst = wire.AppendBool(dst, idem != nil)
	if idem != nil {
		dst = appendIdem(dst, idem)
	}
	return dst
}

// decodeBatchV3 decodes exactly one version-3 journal record.
func decodeBatchV3(data []byte) (batchRecord, error) {
	d := wire.NewDecoder(data)
	var rec batchRecord
	rec.Steps = wire.ReadSeq(d, stream.MinStepRecordSize, stream.ReadStepRecord)
	if d.Bool() {
		idem := readIdem(d)
		rec.Idem = &idem
	}
	if err := d.Finish(); err != nil {
		return batchRecord{}, err
	}
	return rec, nil
}

// decodeJournalRecord decodes a journal record of any version this
// build reads; a version-1 record is a batch of one step.
func decodeJournalRecord(version uint32, body []byte) (batchRecord, error) {
	var (
		rec batchRecord
		err error
	)
	switch version {
	case batchSchemaVersion:
		rec, err = decodeBatchV3(body)
	case batchSchemaVersionV2:
		rec, err = decodeLegacyBatchRecord(body)
	case stepSchemaVersionV1:
		var step stream.StepRecord
		step, err = decodeLegacyStepRecord(body)
		rec.Steps = []stream.StepRecord{step}
	default:
		return rec, fmt.Errorf("service: journal schema version %d not supported (want %d, %d or %d)", version, stepSchemaVersionV1, batchSchemaVersionV2, batchSchemaVersion)
	}
	if err != nil {
		return rec, fmt.Errorf("service: decoding journal record (version %d): %w", version, err)
	}
	return rec, nil
}

// decodeSessionBody decodes a snapshot or migration body of any
// version this build reads.
func decodeSessionBody(version uint32, body []byte) (sessionState, error) {
	var (
		st  sessionState
		err error
	)
	switch version {
	case sessionSchemaVersion:
		st, err = decodeSessionV3(body)
	case sessionSchemaVersionV1, sessionSchemaVersionV2:
		st, err = decodeLegacySessionState(body)
	default:
		return st, fmt.Errorf("service: snapshot schema version %d not supported (want %d)", version, sessionSchemaVersion)
	}
	if err != nil {
		return st, fmt.Errorf("service: decoding snapshot (version %d): %w", version, err)
	}
	return st, nil
}
