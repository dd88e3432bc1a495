package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
)

// The fixtures under testdata/legacy were written by the gob codec
// (schema versions 1 and 2) before version 3 replaced it. One session,
// "legacy" (domain 3, nine users in three cohorts: backward+forward
// chains, backward only, uncorrelated; seed 20261017; an upper-bound
// plan), landed four keyed batches: k1 and k2, a forced snapshot, then
// k3 and k4. The files are:
//
//   - legacy-v2.snap: the version-2 snapshot at T=7 (k1, k2 and their
//     idempotency entries);
//   - legacy-v2.journal: the version-2 journal after it (k3, k4, each a
//     batch record with its key);
//   - legacy-v1.journal: the same five steps as version-1 records, one
//     gob StepRecord each (the pre-batch format, which carried no keys);
//   - legacy-expected.json: what that server held at T=12, as float64
//     bits, and the results of one more batch (k5) it then landed.
//
// The step inputs come from rand.NewSource(3): rng.Intn(3) per user per
// step, in batch order.
//
// testdata/v3 pins the current format the same way: it is the state
// dir TestLegacyGobStateRestores leaves after booting legacy-v2.snap
// under legacy-v2.journal and landing k5 — the version-3 snapshot at
// T=12 (re-written by the restore) and a version-3 journal holding k5.
// That test checks this code still writes exactly those bytes, and
// TestV3StateRestores that it still reads them; a layout change fails
// both until the version is bumped and these files join the legacy
// fixtures.

// legacyCohortPoint is one cohort's leakage at one step, as bits.
type legacyCohortPoint struct {
	BPL uint64 `json:"bpl"`
	FPL uint64 `json:"fpl"`
	TPL uint64 `json:"tpl"`
}

// legacyStep is one step of the k5 batch, as bits.
type legacyStep struct {
	T         int      `json:"t"`
	Eps       uint64   `json:"eps"`
	Planned   bool     `json:"planned"`
	Published []uint64 `json:"published"`
}

// legacyGolden is legacy-expected.json.
type legacyGolden struct {
	T          int                   `json:"t"`
	NoiseDraws uint64                `json:"noise_draws"`
	Budgets    []uint64              `json:"budgets"`
	Published  [][]uint64            `json:"published"`
	Cohorts    [][]legacyCohortPoint `json:"cohorts"`
	Next       []legacyStep          `json:"next"`
}

// legacySnapT is the step the version-2 snapshot fixture covers.
const legacySnapT = 7

func loadLegacyGolden(t *testing.T) legacyGolden {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "legacy", "legacy-expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g legacyGolden
	if err := json.Unmarshal(blob, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// legacyStateDir builds a state dir holding the version-2 snapshot and
// the named journal fixture as session "legacy".
func legacyStateDir(t *testing.T, journal string) string {
	t.Helper()
	return fixtureStateDir(t, "legacy", map[string]string{"legacy-v2.snap": "legacy.snap", journal: "legacy.journal"})
}

// fixtureStateDir builds a state dir from fixture files under
// testdata/<sub>, each copied to its name in files.
func fixtureStateDir(t *testing.T, sub string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for src, dst := range files {
		blob, err := os.ReadFile(filepath.Join("testdata", sub, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dst), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkLegacyState compares a server with the golden state up to step
// upto: T, budgets, published values, per-cohort BPL/FPL/TPL and the
// noise position, all bit for bit.
func checkLegacyState(t *testing.T, srv *stream.Server, g legacyGolden, upto int) {
	t.Helper()
	if srv.T() != upto {
		t.Fatalf("T = %d, want %d", srv.T(), upto)
	}
	for i, e := range srv.Budgets() {
		if math.Float64bits(e) != g.Budgets[i] {
			t.Fatalf("budget %d: %v, want bits %x", i+1, e, g.Budgets[i])
		}
	}
	for tt := 1; tt <= upto; tt++ {
		p, err := srv.Published(tt)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range p {
			if math.Float64bits(v) != g.Published[tt-1][i] {
				t.Fatalf("published[%d][%d]: %v, want bits %x", tt, i, v, g.Published[tt-1][i])
			}
		}
		if upto != g.T {
			continue // FPL depends on the whole history; compare it only at T
		}
		cls, err := srv.CohortLeakages(tt)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cls {
			want := g.Cohorts[tt-1][ci]
			if math.Float64bits(c.BPL) != want.BPL || math.Float64bits(c.FPL) != want.FPL || math.Float64bits(c.TPL) != want.TPL {
				t.Fatalf("cohort %d at t=%d: BPL/FPL/TPL %v/%v/%v, want bits %x/%x/%x", ci, tt, c.BPL, c.FPL, c.TPL, want.BPL, want.FPL, want.TPL)
			}
		}
	}
	if upto == g.T && srv.NoiseState().Draws != g.NoiseDraws {
		t.Fatalf("noise draws %d, want %d", srv.NoiseState().Draws, g.NoiseDraws)
	}
}

// legacyNextBatch rebuilds the k5 batch the fixture server landed after
// T=12, from the same input stream.
func legacyNextBatch(users int) []stream.BatchStep {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12*users; i++ {
		rng.Intn(3) // k1..k4
	}
	var steps []stream.BatchStep
	for _, e := range []float64{0.1, 0, 0.25} {
		v := make([]int, users)
		for u := range v {
			v[u] = rng.Intn(3)
		}
		st := stream.BatchStep{Values: v}
		if e > 0 {
			e := e
			st.Eps = &e
		}
		steps = append(steps, st)
	}
	return steps
}

// TestLegacyGobStateRestores boots gob-era state dirs (a version-2
// snapshot under a version-2 or a version-1 journal): the restore is
// bit-identical to what the old server held, keys survive where the
// format carried them, and the session keeps ingesting in version 3 —
// with the noise stream exactly where the old server left it.
func TestLegacyGobStateRestores(t *testing.T) {
	g := loadLegacyGolden(t)
	for _, tc := range []struct {
		journal string
		keys    []string // idempotency keys the restore must remember
		absent  []string
	}{
		{"legacy-v2.journal", []string{"k1", "k2", "k3", "k4"}, nil},
		{"legacy-v1.journal", []string{"k1", "k2"}, []string{"k3", "k4"}},
	} {
		t.Run(tc.journal, func(t *testing.T) {
			dir := legacyStateDir(t, tc.journal)
			r := durableRegistry(t, dir, 1000)
			if restored, failed := r.RestoreAll(); len(restored) != 1 || len(failed) != 0 {
				t.Fatalf("restored %v, failed %v", restored, failed)
			}
			s, err := r.Get("legacy")
			if err != nil {
				t.Fatal(err)
			}
			checkLegacyState(t, s.Server(), g, g.T)
			s.stepMu.Lock()
			for _, k := range tc.keys {
				if _, ok := s.idem.get(k); !ok {
					t.Errorf("key %q forgotten", k)
				}
			}
			for _, k := range tc.absent {
				if _, ok := s.idem.get(k); ok {
					t.Errorf("key %q remembered, but its format carried no keys", k)
				}
			}
			s.stepMu.Unlock()
			// The restore re-snapshotted in the current version.
			if v, _, err := r.Store().LoadSnapshot("legacy"); err != nil || v != sessionSchemaVersion {
				t.Fatalf("snapshot after restore: version %d, err %v", v, err)
			}

			// Keep ingesting: k5 lands exactly as it did on the old server.
			res, replayed, err := s.CollectBatch("k5", legacyNextBatch(s.Server().Users()))
			if err != nil || replayed {
				t.Fatalf("k5: replayed=%v err=%v", replayed, err)
			}
			for i, want := range g.Next {
				got := res[i]
				if got.T != want.T || math.Float64bits(got.Eps) != want.Eps || got.Planned != want.Planned {
					t.Fatalf("k5 step %d: %+v, want %+v", i, got, want)
				}
				for j, v := range got.Published {
					if math.Float64bits(v) != want.Published[j] {
						t.Fatalf("k5 step %d bin %d: %v, want bits %x", i, j, v, want.Published[j])
					}
				}
			}
			if tc.journal == "legacy-v2.journal" {
				for _, name := range []string{"legacy.snap", "legacy.journal"} {
					got, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					want, err := os.ReadFile(filepath.Join("testdata", "v3", name))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s differs from testdata/v3/%s: the version-3 layout changed", name, name)
					}
				}
			}
			versions := 0
			if _, err := r.Store().ReplayJournal("legacy", func(version uint32, _ []byte) error {
				if version != batchSchemaVersion {
					t.Errorf("journal record version %d after restore, want %d", version, batchSchemaVersion)
				}
				versions++
				return nil
			}); err != nil || versions != 1 {
				t.Fatalf("journal after k5: %d records, err %v", versions, err)
			}

			// And the version-3 state boots again, to the same session.
			r2 := durableRegistry(t, dir, 1000)
			if restored, failed := r2.RestoreAll(); len(restored) != 1 || len(failed) != 0 {
				t.Fatalf("second restore: restored %v, failed %v", restored, failed)
			}
			s2, err := r2.Get("legacy")
			if err != nil {
				t.Fatal(err)
			}
			mustMatchSessions(t, s, s2)
			if _, replayed, err := s2.CollectBatch("k5", legacyNextBatch(s2.Server().Users())); err != nil || !replayed {
				t.Fatalf("k5 retry after restart: replayed=%v err=%v", replayed, err)
			}
		})
	}
}

// TestV3StateRestores boots the version-3 fixture dir: the snapshot and
// journal record decode and re-encode to exactly their stored bytes, and
// the restore is bit-identical to the gob-era state plus k5 — the same
// T, budgets, published values, cohort BPL, idempotency keys and noise
// position, and the same leakage as restoring the gob fixtures and
// landing k5 live.
func TestV3StateRestores(t *testing.T) {
	g := loadLegacyGolden(t)
	files := map[string]string{"legacy.snap": "legacy.snap", "legacy.journal": "legacy.journal"}
	r := durableRegistry(t, fixtureStateDir(t, "v3", files), 1000)

	version, body, err := r.Store().LoadSnapshot("legacy")
	if err != nil || version != sessionSchemaVersion {
		t.Fatalf("fixture snapshot: version %d, err %v", version, err)
	}
	st, err := decodeSessionBody(version, body)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := st.appendBinary(nil); err != nil || !bytes.Equal(again, body) {
		t.Fatalf("fixture snapshot re-encodes to different bytes (err %v)", err)
	}
	records := 0
	if _, err := r.Store().ReplayJournal("legacy", func(version uint32, body []byte) error {
		rec, err := decodeJournalRecord(version, body)
		if err != nil {
			return err
		}
		if again := appendBatchRecord(nil, resultsOf(rec.Steps), rec.Idem); version != batchSchemaVersion || !bytes.Equal(again, body) {
			t.Errorf("journal record version %d re-encodes to different bytes", version)
		}
		records++
		return nil
	}); err != nil || records != 1 {
		t.Fatalf("fixture journal: %d records, err %v", records, err)
	}

	if restored, failed := r.RestoreAll(); len(restored) != 1 || len(failed) != 0 {
		t.Fatalf("restored %v, failed %v", restored, failed)
	}
	s, err := r.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	srv := s.Server()
	if srv.T() != g.T+len(g.Next) {
		t.Fatalf("T = %d, want %d", srv.T(), g.T+len(g.Next))
	}
	budgets, published := g.Budgets, g.Published
	for _, st := range g.Next {
		budgets = append(budgets, st.Eps)
		published = append(published, st.Published)
	}
	for i, e := range srv.Budgets() {
		if math.Float64bits(e) != budgets[i] {
			t.Fatalf("budget %d: %v, want bits %x", i+1, e, budgets[i])
		}
	}
	for tt := 1; tt <= srv.T(); tt++ {
		p, err := srv.Published(tt)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range p {
			if math.Float64bits(v) != published[tt-1][i] {
				t.Fatalf("published[%d][%d]: %v, want bits %x", tt, i, v, published[tt-1][i])
			}
		}
		if tt > g.T {
			continue
		}
		cls, err := srv.CohortLeakages(tt) // BPL at tt is final once tt has landed
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cls {
			if want := g.Cohorts[tt-1][ci].BPL; math.Float64bits(c.BPL) != want {
				t.Fatalf("cohort %d BPL at t=%d: %v, want bits %x", ci, tt, c.BPL, want)
			}
		}
	}
	s.stepMu.Lock()
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5"} {
		if _, ok := s.idem.get(k); !ok {
			t.Errorf("key %q forgotten", k)
		}
	}
	s.stepMu.Unlock()

	live := durableRegistry(t, legacyStateDir(t, "legacy-v2.journal"), 1000)
	if restored, failed := live.RestoreAll(); len(restored) != 1 || len(failed) != 0 {
		t.Fatalf("legacy restore: restored %v, failed %v", restored, failed)
	}
	ls, err := live.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ls.CollectBatch("k5", legacyNextBatch(ls.Server().Users())); err != nil {
		t.Fatal(err)
	}
	if srv.NoiseState() != ls.Server().NoiseState() {
		t.Fatalf("noise state %+v, want %+v", srv.NoiseState(), ls.Server().NoiseState())
	}
	mustMatchSessions(t, s, ls)
}

// TestLegacyV2MigrationBodyImports: a gob-era shard pushes version-2
// bodies (the snapshot body in the same envelope); a current shard
// imports them.
func TestLegacyV2MigrationBodyImports(t *testing.T) {
	g := loadLegacyGolden(t)
	store := durableRegistry(t, legacyStateDir(t, "legacy-v2.journal"), 1000).Store()
	version, body, err := store.LoadSnapshot("legacy")
	if err != nil || version != sessionSchemaVersionV2 {
		t.Fatalf("fixture snapshot: version %d, err %v", version, err)
	}
	s, err := NewRegistry().ImportSession(version, body)
	if err != nil {
		t.Fatal(err)
	}
	checkLegacyState(t, s.Server(), g, legacySnapT)
	if _, ok := s.idem.get("k2"); !ok {
		t.Fatal("imported session forgot key k2")
	}
}
