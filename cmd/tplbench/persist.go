package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/markov"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/stream"
)

// The durability perf smoke: what a coalesced snapshot costs to
// capture, encode and durably write, what a boot-time restore costs,
// and how fast journal replay brings a restored session back to the
// present. Written as BENCH_persist.json so CI can track the perf
// trajectory alongside BENCH_engine.json — these numbers gate how
// aggressively snapshot-on-step coalescing can be tuned before the
// persistence pipeline shows up in the collect path.

// persistPoint is one row of BENCH_persist.json.
type persistPoint struct {
	Users            int     `json:"users"`
	Cohorts          int     `json:"cohorts"`
	Steps            int     `json:"steps"`
	SnapshotNs       int64   `json:"snapshot_ns"`        // capture the in-memory state
	EncodeNs         int64   `json:"encode_ns"`          // encode the state (ServerState.AppendBinary, the snapshot body codec)
	SnapshotBytes    int     `json:"snapshot_bytes"`     // encoded size (pre-envelope)
	SaveNs           int64   `json:"save_ns"`            // envelope + atomic write + fsync
	RestoreNs        int64   `json:"restore_ns"`         // decode + rebuild a live server
	ReplayRecords    int     `json:"replay_records"`     // journal records replayed
	ReplayPerSec     float64 `json:"replay_per_sec"`     // ApplyStep throughput during recovery
	JournalAppendNs  int64   `json:"journal_append_ns"`  // per-step journal cost (amortized)
	JournalRecordLen int     `json:"journal_record_len"` // bytes per step record on disk
}

// persistBenchFile is the BENCH_persist.json document.
type persistBenchFile struct {
	Benchmark string         `json:"benchmark"`
	Points    []persistPoint `json:"points"`
	Note      string         `json:"note"`
}

// persistBenchSizes is the reference population grid.
var persistBenchSizes = []int{1000, 100000}

// persistBench measures one population size.
func persistBench(seed int64, users int) (persistPoint, error) {
	const (
		domain   = 5
		classes  = 10
		steps    = 32
		tailLen  = 64 // journal records replayed on top of the snapshot
		appendsN = 256
	)
	rng := rand.New(rand.NewSource(seed))
	chains := make([]*markov.Chain, classes)
	for k := range chains {
		c, err := markov.Smoothed(rng, domain, 0.05)
		if err != nil {
			return persistPoint{}, err
		}
		chains[k] = c
	}
	models := make([]stream.AdversaryModel, users)
	for i := range models {
		c := chains[i%classes]
		models[i] = stream.AdversaryModel{Backward: c, Forward: c}
	}
	srv, err := stream.NewServer(domain, users, models, nil)
	if err != nil {
		return persistPoint{}, err
	}
	values := make([]int, users)
	for i := range values {
		values[i] = i % domain
	}
	for t := 0; t < steps; t++ {
		if _, err := srv.Collect(values, 0.1); err != nil {
			return persistPoint{}, err
		}
	}
	p := persistPoint{Users: users, Cohorts: srv.Cohorts(), Steps: steps}

	// Capture.
	start := time.Now()
	st := srv.Snapshot()
	p.SnapshotNs = time.Since(start).Nanoseconds()

	// Encode with the codec the service's snapshot bodies embed.
	start = time.Now()
	body, err := st.AppendBinary(nil)
	if err != nil {
		return persistPoint{}, err
	}
	p.EncodeNs = time.Since(start).Nanoseconds()
	p.SnapshotBytes = len(body)

	// Durable write: envelope + temp file + fsync + rename.
	dir, err := os.MkdirTemp("", "tplbench-persist-*")
	if err != nil {
		return persistPoint{}, err
	}
	defer os.RemoveAll(dir)
	store, err := persist.NewStore(dir)
	if err != nil {
		return persistPoint{}, err
	}
	start = time.Now()
	if err := store.SaveSnapshot("bench", 1, body); err != nil {
		return persistPoint{}, err
	}
	p.SaveNs = time.Since(start).Nanoseconds()

	// Journal the next tailLen steps (the crash-recovery window).
	j, err := store.OpenJournal("bench")
	if err != nil {
		return persistPoint{}, err
	}
	defer j.Close()
	var recs [][]byte
	for i := 0; i < tailLen; i++ {
		noisy, err := srv.Collect(values, 0.1)
		if err != nil {
			return persistPoint{}, err
		}
		rec := stream.StepRecord{T: srv.T(), Eps: 0.1, Published: noisy, NoiseDraws: srv.NoiseState().Draws}
		rb, err := rec.AppendBinary(nil)
		if err != nil {
			return persistPoint{}, err
		}
		recs = append(recs, rb)
		if err := j.Append(1, rb); err != nil {
			return persistPoint{}, err
		}
	}
	p.JournalRecordLen = len(recs[0])

	// Amortized append cost (re-appending the first record; the journal
	// is reset afterwards so replay below sees exactly the real tail).
	start = time.Now()
	for i := 0; i < appendsN; i++ {
		if err := j.Append(1, recs[i%len(recs)]); err != nil {
			return persistPoint{}, err
		}
	}
	p.JournalAppendNs = time.Since(start).Nanoseconds() / appendsN
	if err := j.Reset(); err != nil {
		return persistPoint{}, err
	}
	for _, rb := range recs {
		if err := j.Append(1, rb); err != nil {
			return persistPoint{}, err
		}
	}
	if err := j.Sync(); err != nil {
		return persistPoint{}, err
	}

	// Restore: load + decode + rebuild.
	start = time.Now()
	_, body, err = store.LoadSnapshot("bench")
	if err != nil {
		return persistPoint{}, err
	}
	back, err := stream.DecodeServerState(body)
	if err != nil {
		return persistPoint{}, err
	}
	restored, err := stream.RestoreServer(back, stream.RestoreOptions{})
	if err != nil {
		return persistPoint{}, err
	}
	p.RestoreNs = time.Since(start).Nanoseconds()

	// Replay rate: the journal tail through ApplyStep.
	start = time.Now()
	res, err := store.ReplayJournal("bench", func(version uint32, body []byte) error {
		rec, err := stream.DecodeStepRecord(body)
		if err != nil {
			return err
		}
		return restored.ApplyStep(rec)
	})
	if err != nil {
		return persistPoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	p.ReplayRecords = res.Records
	if elapsed > 0 {
		p.ReplayPerSec = float64(res.Records) / elapsed
	}
	if restored.T() != srv.T() {
		return persistPoint{}, fmt.Errorf("persist bench: replay ended at t=%d, want %d", restored.T(), srv.T())
	}
	return p, nil
}

// runPersistBench measures the reference populations, optionally
// writes BENCH_persist.json, and renders a table.
func runPersistBench(wr *report.Writer, seed int64, jsonPath string) error {
	doc := persistBenchFile{
		Benchmark: "persist",
		Note:      "snapshot/encode/save_ns is the coalesced per-snapshot cost, encode_ns and snapshot_bytes with ServerState.AppendBinary (the codec snapshot bodies embed); journal_append_ns the per-step cost of appending one StepRecord encoding; replay_per_sec the recovery rate of snapshot+journal restores",
	}
	for _, users := range persistBenchSizes {
		p, err := persistBench(seed, users)
		if err != nil {
			return err
		}
		doc.Points = append(doc.Points, p)
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	tb := &report.Table{
		Title:  "Durable-accounting benchmark (snapshot / restore / journal replay)",
		Header: []string{"users", "snapshot", "encode", "size", "save", "restore", "append/step", "replay rec/s"},
	}
	for _, p := range doc.Points {
		tb.AddRow(
			fmt.Sprintf("%d", p.Users),
			time.Duration(p.SnapshotNs).String(),
			time.Duration(p.EncodeNs).String(),
			fmt.Sprintf("%.1fMB", float64(p.SnapshotBytes)/1e6),
			time.Duration(p.SaveNs).String(),
			time.Duration(p.RestoreNs).String(),
			time.Duration(p.JournalAppendNs).String(),
			fmt.Sprintf("%.0f", p.ReplayPerSec),
		)
	}
	tb.Notes = append(tb.Notes, "regenerate BENCH_persist.json with: go run ./cmd/tplbench -fig persist -persist-json BENCH_persist.json")
	return wr.WriteTable(tb)
}
