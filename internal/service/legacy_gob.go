package service

import (
	"bytes"
	"encoding/gob"

	"repro/internal/stream"
)

// Legacy readers. Before schema version 3 every durable body was
// encoding/gob: snapshots and migration bodies were gob sessionState
// values (version 1 predates the idempotency entries, which gob simply
// leaves empty), version-1 journal records gob stream.StepRecord values
// and version-2 journal records gob batchRecord values. State
// directories written then must still boot, so this file keeps their
// decoders. It decodes only: nothing writes these versions any more,
// and it is the one non-test file that imports encoding/gob.
//
// The decoders fill the live types, which works because gob matches
// fields by name and none of those types implements a gob or
// encoding.Binary/TextUnmarshaler decode method (gob would hand such a
// type the raw bytes instead of decoding it field by field). The one
// exception is core.AccountantState, which gob always stored through
// its MarshalBinary bytes, and those bytes have not changed. The
// fixtures under testdata/legacy pin all of this.
const (
	sessionSchemaVersionV1 = 1
	sessionSchemaVersionV2 = 2
	stepSchemaVersionV1    = 1
	batchSchemaVersionV2   = 2
)

// gobDecode decodes one gob value from data.
func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// decodeLegacySessionState decodes a version-1 or version-2 snapshot
// or migration body.
func decodeLegacySessionState(body []byte) (sessionState, error) {
	var st sessionState
	if err := gobDecode(body, &st); err != nil {
		return sessionState{}, err
	}
	return st, nil
}

// decodeLegacyStepRecord decodes a version-1 journal record.
func decodeLegacyStepRecord(body []byte) (stream.StepRecord, error) {
	var rec stream.StepRecord
	err := gobDecode(body, &rec)
	return rec, err
}

// decodeLegacyBatchRecord decodes a version-2 journal record.
func decodeLegacyBatchRecord(body []byte) (batchRecord, error) {
	var rec batchRecord
	err := gobDecode(body, &rec)
	return rec, err
}
