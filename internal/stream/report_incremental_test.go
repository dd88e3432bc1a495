package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chunked"
	"repro/internal/core"
	"repro/internal/markov"
)

// reportOracle recomputes a Report from scratch over the full budget
// slice with the batch functions: core.MaxTPL per cohort model,
// core.UserLevelTPL, and a plain maximum of the budgets.
func reportOracle(t *testing.T, models []AdversaryModel, budgets []float64) Report {
	t.Helper()
	want := Report{T: len(budgets), EventLevelAlpha: math.Inf(-1), UserLevel: core.UserLevelTPL(budgets)}
	for _, e := range budgets {
		want.NominalEventLevel = max(want.NominalEventLevel, e)
	}
	for u, m := range models {
		v, err := core.MaxTPL(core.NewQuantifier(m.Backward), core.NewQuantifier(m.Forward), budgets)
		if err != nil {
			t.Fatal(err)
		}
		if v > want.EventLevelAlpha {
			want.EventLevelAlpha, want.WorstUser = v, u
		}
	}
	return want
}

// mustMatchReport compares every Report field bit for bit.
func mustMatchReport(t *testing.T, label string, s *Server, want Report) {
	t.Helper()
	got, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.T != want.T || got.WorstUser != want.WorstUser ||
		!same(got.EventLevelAlpha, want.EventLevelAlpha) ||
		!same(got.UserLevel, want.UserLevel) ||
		!same(got.NominalEventLevel, want.NominalEventLevel) {
		t.Fatalf("%s: Report %+v, batch %+v", label, *got, want)
	}
}

// TestIncrementalReportDifferential drives a server well past three
// history chunks with budgets from {0.05, 0.1, 0.2, 0.4}, restores a
// replica from a mid-stream snapshot and keeps it in step through
// ApplyStep (the recovery path), and checks both servers' Reports at
// random points and exactly at and one past every chunk boundary
// against the batch oracles over the full budget slice.
func TestIncrementalReportDifferential(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	// One user per distinct model, so the oracle's per-user loop is the
	// per-cohort one; the worst user is the smallest id attaining it.
	models := []AdversaryModel{{}, {Backward: pb}, {Forward: pf}, {Backward: pb, Forward: pf}}
	s, err := NewServer(pb.N(), len(models), models, nil)
	if err != nil {
		t.Fatal(err)
	}
	const total = 3*chunked.Size + 300
	rng := rand.New(rand.NewSource(23))
	reads := map[int]bool{total: true}
	for k := 1; k <= 3; k++ {
		reads[k*chunked.Size] = true
		reads[k*chunked.Size+1] = true
	}
	for len(reads) < 24 {
		reads[1+rng.Intn(total)] = true
	}
	const restoreAt = chunked.Size + 1234
	epsSet := []float64{0.05, 0.1, 0.2, 0.4}
	counts := []int{len(models), 0}

	var replica *Server
	var budgets []float64
	for T := 1; T <= total; T++ {
		e := epsSet[rng.Intn(len(epsSet))]
		res, err := s.CollectBatch([]BatchStep{{Counts: counts, Eps: &e}})
		if err != nil {
			t.Fatal(err)
		}
		budgets = append(budgets, e)
		if replica != nil {
			rec := StepRecord{T: T, Eps: e, Published: res[0].Published, NoiseDraws: res[0].Draws}
			if err := replica.ApplyStep(rec); err != nil {
				t.Fatal(err)
			}
		}
		if T == restoreAt {
			if replica, err = RestoreServer(s.Snapshot(), RestoreOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if reads[T] {
			want := reportOracle(t, models, budgets)
			mustMatchReport(t, "live", s, want)
			if replica != nil {
				mustMatchReport(t, "restored+replayed", replica, want)
			}
		}
	}
}

// TestReportAllocs pins the cost of a report at rest: with no step
// since the last one, Report allocates only the *Report it returns.
func TestReportAllocs(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	models := []AdversaryModel{{}, {Backward: pb}, {Backward: pb, Forward: pf}}
	s, err := NewServer(pb.N(), len(models), models, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	steps := make([]BatchStep, chunked.Size+50)
	for i := range steps {
		steps[i] = BatchStep{Counts: []int{len(models), 0}, Eps: &eps}
	}
	if _, err := s.CollectBatch(steps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Report(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Report at rest allocated %v times, want 1 (the *Report)", allocs)
	}
}

// BenchmarkServerReport measures GET-report cost at the ingest
// benchmark's scale: ~300k steps over 10 cohorts (cohort 0 without
// correlation, the rest with lazy backward and forward chains). "rest"
// reads with no step since the last report; "after-batch" lands a
// 256-step batch (untimed) before each read, so the read pays the FPL
// refresh and the rescan of the chunks it touched.
func BenchmarkServerReport(b *testing.B) {
	const (
		domain  = 4
		cohorts = 10
		users   = 1000
		steps   = 300_000
		batch   = 256
	)
	build := func(b *testing.B) (*Server, []BatchStep) {
		b.Helper()
		models := make([]AdversaryModel, users)
		for k := 0; k < cohorts; k++ {
			var m AdversaryModel
			if k > 0 {
				bw, err := markov.Lazy(domain, 0.5+0.45*float64(k)/cohorts)
				if err != nil {
					b.Fatal(err)
				}
				fw, err := markov.Lazy(domain, 0.95-0.45*float64(k)/cohorts)
				if err != nil {
					b.Fatal(err)
				}
				m = AdversaryModel{Backward: bw, Forward: fw}
			}
			for u := k * users / cohorts; u < (k+1)*users/cohorts; u++ {
				models[u] = m
			}
		}
		s, err := NewServer(domain, users, models, nil)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		epsSet := []float64{0.05, 0.1, 0.2, 0.4}
		counts := []int{users, 0, 0, 0}
		mk := func() []BatchStep {
			out := make([]BatchStep, batch)
			for i := range out {
				e := epsSet[rng.Intn(len(epsSet))]
				out[i] = BatchStep{Counts: counts, Eps: &e}
			}
			return out
		}
		for s.T() < steps {
			if _, err := s.CollectBatch(mk()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Report(); err != nil {
			b.Fatal(err)
		}
		return s, mk()
	}
	b.Run("rest", func(b *testing.B) {
		s, _ := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Report(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("after-batch", func(b *testing.B) {
		s, next := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := s.CollectBatch(next); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := s.Report(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
