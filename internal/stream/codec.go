package stream

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// Binary encodings of ServerState and StepRecord, in the wire package's
// format. ServerState's encoding starts with a version byte and stands
// alone. StepRecord's has none: step records only travel inside a
// container (a journal batch record) whose version covers them.
//
// ServerState layout, version 1:
//
//	version byte
//	Domain, Users, Workers          varint
//	Sensitivity                     float64
//	Noise                           varint
//	UserCohort                      count, varint each
//	Cohorts                         count, then per cohort:
//	  FirstUser                     varint
//	  Backward, Forward             row count (0 = no chain), floats per row
//	  Accountant                    length (0 = nil), core.AccountantState wire bytes
//	Published                       count, floats per step
//	Budgets                         floats
//	HasPlan                         bool
//	PlanBase                        varint
//	RNG                             Provenance string, Seed varint, Draws uvarint
//
// StepRecord layout: T varint, Eps float64, Published floats,
// NoiseDraws uvarint.
//
// Every layout change bumps serverStateVersion (and the service's schema
// versions that embed it); decoders reject versions they do not know.
const serverStateVersion = 1

// AppendBinary appends the state's binary encoding to dst
// (encoding.BinaryAppender).
func (st *ServerState) AppendBinary(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, st.sizeHint())
	dst = append(dst, serverStateVersion)
	dst = wire.AppendInt(dst, st.Domain)
	dst = wire.AppendInt(dst, st.Users)
	dst = wire.AppendInt(dst, st.Workers)
	dst = wire.AppendFloat64(dst, st.Sensitivity)
	dst = wire.AppendInt(dst, st.Noise)
	dst = wire.AppendUvarint(dst, uint64(len(st.UserCohort)))
	for _, ci := range st.UserCohort {
		dst = wire.AppendInt(dst, ci)
	}
	dst = wire.AppendUvarint(dst, uint64(len(st.Cohorts)))
	for i := range st.Cohorts {
		c := &st.Cohorts[i]
		dst = wire.AppendInt(dst, c.FirstUser)
		dst = appendRows(dst, c.Backward)
		dst = appendRows(dst, c.Forward)
		if c.Accountant == nil {
			dst = wire.AppendUvarint(dst, 0)
			continue
		}
		dst = wire.AppendUvarint(dst, uint64(c.Accountant.BinarySize()))
		var err error
		if dst, err = c.Accountant.AppendBinary(dst); err != nil {
			return dst, fmt.Errorf("stream: encoding cohort %d: %w", i, err)
		}
	}
	dst = appendRows(dst, st.Published)
	dst = wire.AppendFloats(dst, st.Budgets)
	dst = wire.AppendBool(dst, st.HasPlan)
	dst = wire.AppendInt(dst, st.PlanBase)
	dst = wire.AppendString(dst, st.RNG.Provenance)
	dst = wire.AppendVarint(dst, st.RNG.Seed)
	dst = wire.AppendUvarint(dst, st.RNG.Draws)
	return dst, nil
}

// sizeHint estimates the encoded size so an encode grows dst at most
// once: the float payload dominates and is counted exactly.
func (st *ServerState) sizeHint() int {
	n := 64 + 2*len(st.UserCohort) + wire.FloatsSize(len(st.Budgets))
	for _, row := range st.Published {
		n += wire.FloatsSize(len(row))
	}
	for i := range st.Cohorts {
		c := &st.Cohorts[i]
		n += 16 + wire.FloatsSize(len(c.Backward)*len(c.Backward)) + wire.FloatsSize(len(c.Forward)*len(c.Forward))
		if c.Accountant != nil {
			n += c.Accountant.BinarySize()
		}
	}
	return n
}

// appendRows encodes a matrix: the row count, then each row's floats.
// A nil matrix and an empty one both encode as count 0.
func appendRows(dst []byte, rows [][]float64) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = wire.AppendFloats(dst, row)
	}
	return dst
}

// readRows decodes appendRows' output; count 0 decodes to nil. A row
// takes at least its one-byte length.
func readRows(d *wire.Decoder) [][]float64 {
	return wire.ReadSeq(d, 1, (*wire.Decoder).Floats)
}

// minCohortSize is the smallest cohort encoding: FirstUser, the two row
// counts and the accountant length, one byte each.
const minCohortSize = 4

// readCohort decodes one cohort of a ServerState encoding.
func readCohort(d *wire.Decoder) CohortState {
	c := CohortState{FirstUser: d.Int(), Backward: readRows(d), Forward: readRows(d)}
	if raw := d.Raw(d.Len(1)); len(raw) > 0 {
		c.Accountant = new(core.AccountantState)
		if err := c.Accountant.UnmarshalBinary(raw); err != nil {
			d.Fail("cohort accountant: %v", err)
		}
	}
	return c
}

// DecodeServerState decodes exactly one AppendBinary encoding.
// Truncated input, oversize lengths, unknown versions and trailing
// bytes are rejected with ErrBadServerState. It only decodes:
// RestoreServer checks the state's invariants.
func DecodeServerState(data []byte) (*ServerState, error) {
	d := wire.NewDecoder(data)
	st := ReadServerState(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadServerState, err)
	}
	return st, nil
}

// ReadServerState decodes one AppendBinary encoding from the front of
// d, for containers that embed a ServerState. Failures are recorded in
// d; the result is meaningless unless d.Err() is nil.
func ReadServerState(d *wire.Decoder) *ServerState {
	if v := d.Byte(); v != serverStateVersion && d.Err() == nil {
		d.Fail("server state version %d not supported (want %d)", v, serverStateVersion)
	}
	st := &ServerState{
		Domain:      d.Int(),
		Users:       d.Int(),
		Workers:     d.Int(),
		Sensitivity: d.Float64(),
		Noise:       d.Int(),
	}
	st.UserCohort = wire.ReadSeq(d, 1, (*wire.Decoder).Int)
	st.Cohorts = wire.ReadSeq(d, minCohortSize, readCohort)
	st.Published = readRows(d)
	st.Budgets = d.Floats()
	st.HasPlan = d.Bool()
	st.PlanBase = d.Int()
	st.RNG = NoiseState{Provenance: d.Text(), Seed: d.Varint(), Draws: d.Uvarint()}
	return st
}

// AppendBinary appends the record's binary encoding to dst
// (encoding.BinaryAppender). It never fails and, into a buffer with
// room, never allocates: the journal encodes every ingested step
// through it.
//
//tplvet:hotpath
func (rec StepRecord) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, rec.T)
	dst = wire.AppendFloat64(dst, rec.Eps)
	dst = wire.AppendFloats(dst, rec.Published)
	return wire.AppendUvarint(dst, rec.NoiseDraws), nil
}

// MinStepRecordSize is the smallest StepRecord encoding: T, the
// Published length and NoiseDraws one byte each, Eps eight.
const MinStepRecordSize = 11

// DecodeStepRecord decodes exactly one StepRecord encoding, rejecting
// truncated input and trailing bytes with ErrBadServerState.
func DecodeStepRecord(data []byte) (StepRecord, error) {
	d := wire.NewDecoder(data)
	rec := ReadStepRecord(d)
	if err := d.Finish(); err != nil {
		return StepRecord{}, fmt.Errorf("%w: %w", ErrBadServerState, err)
	}
	return rec, nil
}

// ReadStepRecord decodes one StepRecord encoding from the front of d.
// Failures are recorded in d.
func ReadStepRecord(d *wire.Decoder) StepRecord {
	return StepRecord{T: d.Int(), Eps: d.Float64(), Published: d.Floats(), NoiseDraws: d.Uvarint()}
}
