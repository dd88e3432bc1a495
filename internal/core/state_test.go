package core

import (
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
)

// stateTestChain builds a small correlated chain for accountant tests.
func stateTestChain(t testing.TB, rows [][]float64) *markov.Chain {
	t.Helper()
	c, err := markov.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func observedAccountant(t testing.TB, pb, pf *markov.Chain, budgets []float64) *Accountant {
	t.Helper()
	a := NewAccountant(pb, pf)
	for _, e := range budgets {
		if _, err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestSnapshotRestoreDifferential proves the restore contract: a
// restored accountant answers every query bit-identically to the
// original, both at the snapshot point and after both continue with the
// same observations.
func TestSnapshotRestoreDifferential(t *testing.T) {
	pb := stateTestChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	pf := stateTestChain(t, [][]float64{{0.6, 0.4}, {0.1, 0.9}})
	cases := []struct {
		name   string
		pb, pf *markov.Chain
	}{
		{"both-directions", pb, pf},
		{"backward-only", pb, nil},
		{"forward-only", nil, pf},
		{"no-correlation", nil, nil},
	}
	rng := rand.New(rand.NewSource(7))
	budgets := make([]float64, 20)
	for i := range budgets {
		budgets[i] = 0.05 + rng.Float64()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := observedAccountant(t, tc.pb, tc.pf, budgets[:12])
			// Force a partially stale FPL cache: query at 12, then observe more.
			if _, err := orig.TPL(5); err != nil {
				t.Fatal(err)
			}
			for _, e := range budgets[12:15] {
				if _, err := orig.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			st := orig.Snapshot()
			qb, qf := NewQuantifier(tc.pb), NewQuantifier(tc.pf)
			restored, err := RestoreAccountant(st, qb, qf)
			if err != nil {
				t.Fatal(err)
			}
			compare := func() {
				t.Helper()
				for tt := 1; tt <= orig.T(); tt++ {
					for name, f := range map[string]func(int) (float64, error){
						"BPL": orig.BPL, "FPL": orig.FPL, "TPL": orig.TPL,
					} {
						want, err := f(tt)
						if err != nil {
							t.Fatal(err)
						}
						var got float64
						switch name {
						case "BPL":
							got, err = restored.BPL(tt)
						case "FPL":
							got, err = restored.FPL(tt)
						case "TPL":
							got, err = restored.TPL(tt)
						}
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s(%d): restored %v != original %v", name, tt, got, want)
						}
					}
				}
				wantMax, err := orig.MaxTPL()
				if err != nil {
					t.Fatal(err)
				}
				gotMax, err := restored.MaxTPL()
				if err != nil {
					t.Fatal(err)
				}
				if gotMax != wantMax {
					t.Fatalf("MaxTPL: restored %v != original %v", gotMax, wantMax)
				}
				wantW, err := orig.WEvent(3)
				if err != nil {
					t.Fatal(err)
				}
				gotW, err := restored.WEvent(3)
				if err != nil {
					t.Fatal(err)
				}
				if gotW != wantW {
					t.Fatalf("WEvent(3): restored %v != original %v", gotW, wantW)
				}
			}
			compare()
			// Both continue: the incremental refresh must stay in lockstep.
			for _, e := range budgets[15:] {
				if _, err := orig.Observe(e); err != nil {
					t.Fatal(err)
				}
				if _, err := restored.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			compare()
		})
	}
}

// TestSnapshotIsDeepCopy ensures mutating a snapshot cannot corrupt the
// live accountant.
func TestSnapshotIsDeepCopy(t *testing.T) {
	a := observedAccountant(t, nil, nil, []float64{0.1, 0.2, 0.3})
	st := a.Snapshot()
	st.Eps[0] = 99
	st.BPL[0] = 99
	if got, _ := a.BPL(1); got != 0.1 {
		t.Fatalf("mutating the snapshot changed the accountant: BPL(1) = %v", got)
	}
}

// TestStateWireRoundTrip checks the binary encoding is bit-identical,
// including negative zero and subnormal values that text formats tend to
// mangle.
func TestStateWireRoundTrip(t *testing.T) {
	st := &AccountantState{
		BackwardHash: "abc123",
		ForwardHash:  "",
		Eps:          []float64{0.1, math.Nextafter(0.1, 1), 5e-324, 1e308},
		BPL:          []float64{0.1, 0.3, math.Copysign(0, -1), 7},
		FPL:          []float64{0.25, 0.5},
		FPLT:         2,
	}
	wire, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back AccountantState
	if err := back.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	if back.BackwardHash != st.BackwardHash || back.ForwardHash != st.ForwardHash || back.FPLT != st.FPLT {
		t.Fatalf("scalar fields mangled: %+v", back)
	}
	for name, pair := range map[string][2][]float64{
		"eps": {st.Eps, back.Eps}, "bpl": {st.BPL, back.BPL}, "fpl": {st.FPL, back.FPL},
	} {
		want, got := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s: length %d != %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: bits %x != %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestStateAppendBinaryPinsWireBytes: AppendBinary appends exactly the
// MarshalBinary bytes after whatever dst holds, and those bytes are the
// version-1 layout snapshots have always stored.
func TestStateAppendBinaryPinsWireBytes(t *testing.T) {
	st := &AccountantState{BackwardHash: "ab", Eps: []float64{0.5}, BPL: []float64{0.5}, FPL: []float64{0.5}, FPLT: 1}
	const want = "01026162000100000000000000000000000000e03f0100000000000000000000000000e03f0100000000000000000000000000e03f0100000000000000"
	wire, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(wire); got != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("prefix")
	out, err := st.AppendBinary(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:len(prefix)]) != "prefix" || hex.EncodeToString(out[len(prefix):]) != want {
		t.Fatalf("AppendBinary(prefix) = %x", out)
	}
}

// TestWireRejectsCorruption: truncations, version bumps and trailing
// garbage all fail with the typed error and never panic.
func TestWireRejectsCorruption(t *testing.T) {
	st := observedAccountant(t, nil, nil, []float64{0.1, 0.2, 0.3}).Snapshot()
	wire, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var invalid *InvalidStateError
	for cut := 0; cut < len(wire); cut++ {
		var back AccountantState
		if err := back.UnmarshalBinary(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(wire))
		} else if !errors.As(err, &invalid) {
			t.Fatalf("truncation at %d: error not typed: %v", cut, err)
		}
	}
	var back AccountantState
	if err := back.UnmarshalBinary(append(append([]byte(nil), wire...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	bumped := append([]byte(nil), wire...)
	bumped[0] = 99
	if err := back.UnmarshalBinary(bumped); err == nil {
		t.Fatal("unknown version decoded successfully")
	}
}

// TestRestoreRejectsInvalidState is the satellite fix: structurally
// inconsistent state must never restore.
func TestRestoreRejectsInvalidState(t *testing.T) {
	good := observedAccountant(t, nil, nil, []float64{0.1, 0.2, 0.3}).Snapshot()
	mutations := map[string]func(st *AccountantState){
		"bpl-shorter-than-eps": func(st *AccountantState) { st.BPL = st.BPL[:2] },
		"bpl-longer-than-eps":  func(st *AccountantState) { st.BPL = append(st.BPL, 1) },
		"fplt-beyond-eps":      func(st *AccountantState) { st.FPLT = len(st.Eps) + 1; st.FPL = make([]float64, st.FPLT) },
		"fplt-negative":        func(st *AccountantState) { st.FPLT = -1 },
		"fpl-length-mismatch":  func(st *AccountantState) { st.FPL = []float64{1} },
		"eps-zero":             func(st *AccountantState) { st.Eps[1] = 0 },
		"eps-nan":              func(st *AccountantState) { st.Eps[1] = math.NaN() },
		"eps-negative":         func(st *AccountantState) { st.Eps[1] = -0.5 },
		"bpl-nan":              func(st *AccountantState) { st.BPL[1] = math.NaN() },
		"bpl-below-budget":     func(st *AccountantState) { st.BPL[1] = st.Eps[1] / 2 },
		"bpl-first-not-budget": func(st *AccountantState) { st.BPL[0] = st.Eps[0] + 1 },
		"fpl-cache-tail-broken": func(st *AccountantState) {
			st.FPLT = len(st.Eps)
			st.FPL = append([]float64(nil), st.BPL...)
			st.FPL[len(st.FPL)-1] = st.Eps[len(st.Eps)-1] + 1
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			st := &AccountantState{
				Eps:  append([]float64(nil), good.Eps...),
				BPL:  append([]float64(nil), good.BPL...),
				FPL:  append([]float64(nil), good.FPL...),
				FPLT: good.FPLT,
			}
			mutate(st)
			_, err := RestoreAccountant(st, nil, nil)
			if err == nil {
				t.Fatal("corrupt state restored successfully")
			}
			var invalid *InvalidStateError
			if !errors.As(err, &invalid) {
				t.Fatalf("error not a *InvalidStateError: %v", err)
			}
		})
	}
	if _, err := RestoreAccountant(nil, nil, nil); err == nil {
		t.Fatal("nil state restored successfully")
	}
}

// TestRestoreRejectsWrongModel: re-binding onto a different correlation
// model must fail by content hash.
func TestRestoreRejectsWrongModel(t *testing.T) {
	pb := stateTestChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	other := stateTestChain(t, [][]float64{{0.5, 0.5}, {0.5, 0.5}})
	st := observedAccountant(t, pb, nil, []float64{0.1, 0.2}).Snapshot()
	var invalid *InvalidStateError
	if _, err := RestoreAccountant(st, NewQuantifier(other), nil); !errors.As(err, &invalid) {
		t.Fatalf("wrong backward model: want *InvalidStateError, got %v", err)
	}
	if _, err := RestoreAccountant(st, nil, nil); !errors.As(err, &invalid) {
		t.Fatalf("dropped backward model: want *InvalidStateError, got %v", err)
	}
	if _, err := RestoreAccountant(st, NewQuantifier(pb), NewQuantifier(pb)); !errors.As(err, &invalid) {
		t.Fatalf("added forward model: want *InvalidStateError, got %v", err)
	}
	if _, err := RestoreAccountant(st, NewQuantifier(pb), nil); err != nil {
		t.Fatalf("correct model rejected: %v", err)
	}
}

// TestContentHash pins the re-binding key's semantics: equal content
// gives equal hashes, different content different ones, nil hashes to "".
func TestContentHash(t *testing.T) {
	rows := [][]float64{{0.8, 0.2}, {0.3, 0.7}}
	a := NewQuantifier(stateTestChain(t, rows))
	b := NewQuantifier(stateTestChain(t, rows))
	c := NewQuantifier(stateTestChain(t, [][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("content-equal chains hash differently")
	}
	if a.ContentHash() == c.ContentHash() {
		t.Fatal("different chains share a hash")
	}
	var nilQ *Quantifier
	if nilQ.ContentHash() != "" {
		t.Fatal("nil quantifier must hash to empty")
	}
	if len(a.ContentHash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a.ContentHash()))
	}
}
