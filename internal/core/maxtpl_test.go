package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chunked"
	"repro/internal/markov"
)

// The accountant answers MaxTPL, FPL and UserLevel from state it updates
// in place: the FPL cache is refreshed from the tail only until it
// reproduces a stored value, MaxTPL rescans only the chunks that refresh
// touched, and UserLevel is a running sum. The tests here pin all three
// bit-for-bit to the batch oracles run over the full budget slice.

// incrementalEps is the budget alphabet of the adaptive ingest workload.
var incrementalEps = [4]float64{0.05, 0.1, 0.2, 0.4}

// stubSeries is the batch BPL/FPL/TPL recurrence (BPLSeries, FPLSeries,
// TPLSeries, MaxTPL) over a loss stub, which the exported batch
// functions cannot take.
func stubSeries(l lossQuantifier, eps []float64) (fpl []float64, maxTPL float64) {
	T := len(eps)
	bpl := make([]float64, T)
	bpl[0] = eps[0]
	for t := 1; t < T; t++ {
		bpl[t] = l.LossValue(bpl[t-1]) + eps[t]
	}
	fpl = make([]float64, T)
	fpl[T-1] = eps[T-1]
	for t := T - 2; t >= 0; t-- {
		fpl[t] = l.LossValue(fpl[t+1]) + eps[t]
	}
	maxTPL = math.Inf(-1)
	for t := range eps {
		if v := bpl[t] + fpl[t] - eps[t]; v > maxTPL {
			maxTPL = v
		}
	}
	return fpl, maxTPL
}

// incrementalCase is one accountant configuration with its batch oracle.
type incrementalCase struct {
	name    string
	fresh   func() *Accountant
	restore func(*AccountantState) (*Accountant, error)
	oracle  func(eps []float64) (fpl []float64, maxTPL float64, err error)
}

func incrementalCases() []incrementalCase {
	qb, qf := NewQuantifier(markov.Fig7Backward()), NewQuantifier(markov.Fig7Forward())
	quantified := func(name string, qb, qf *Quantifier) incrementalCase {
		return incrementalCase{
			name:    name,
			fresh:   func() *Accountant { return NewAccountantFromQuantifiers(qb, qf) },
			restore: func(st *AccountantState) (*Accountant, error) { return RestoreAccountant(st, qb, qf) },
			oracle: func(eps []float64) ([]float64, float64, error) {
				fpl, err := FPLSeries(qf, eps)
				if err != nil {
					return nil, 0, err
				}
				m, err := MaxTPL(qb, qf, eps)
				return fpl, m, err
			},
		}
	}
	stub := &countingLoss{}
	return []incrementalCase{
		quantified("fig7", qb, qf),
		quantified("fig7-forward-only", nil, qf),
		{
			name:  "saturating-stub",
			fresh: func() *Accountant { return &Accountant{qb: stub, qf: stub} },
			restore: func(st *AccountantState) (*Accountant, error) {
				a, err := RestoreAccountant(st, nil, nil) // the stub has no content hash
				if err != nil {
					return nil, err
				}
				a.qb, a.qf = stub, stub
				return a, nil
			},
			oracle: func(eps []float64) ([]float64, float64, error) {
				fpl, m := stubSeries(stub, eps)
				return fpl, m, nil
			},
		},
	}
}

// checkAgainstOracle compares every incrementally maintained answer of
// acc with the batch oracle over eps, bit for bit.
func checkAgainstOracle(t *testing.T, c incrementalCase, acc *Accountant, eps []float64) {
	label := c.name
	t.Helper()
	wantFPL, wantMax, err := c.oracle(eps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.MaxTPL()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(wantMax) {
		t.Fatalf("%s T=%d: MaxTPL %v, batch %v", label, len(eps), got, wantMax)
	}
	if got, want := acc.UserLevel(), UserLevelTPL(eps); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s T=%d: UserLevel %v, batch %v", label, len(eps), got, want)
	}
	if n := acc.fpl.Len(); n != len(eps) {
		t.Fatalf("%s T=%d: FPL cache holds %d values after a refresh", label, len(eps), n)
	}
	if st := acc.Snapshot(); st.FPLT != len(eps) || len(st.FPL) != st.FPLT {
		t.Fatalf("%s T=%d: snapshot FPLT %d with %d values", label, len(eps), st.FPLT, len(st.FPL))
	}
	for tm := 1; tm <= len(eps); tm++ {
		v, err := acc.FPL(tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(wantFPL[tm-1]) {
			t.Fatalf("%s T=%d: FPL(%d) = %v, batch %v", label, len(eps), tm, v, wantFPL[tm-1])
		}
	}
	// White-box: every cached per-chunk maximum is the maximum of the
	// current TPL values in its chunk, so no stale chunk can hide
	// behind a larger one elsewhere.
	for ci := 0; ci < acc.eps.Chunks(); ci++ {
		lo := ci * chunked.Size
		hi := min(lo+chunked.Size, len(eps))
		want := math.Inf(-1)
		for i := lo; i < hi; i++ {
			if v := acc.bpl.At(i) + wantFPL[i] - eps[i]; v > want {
				want = v
			}
		}
		if math.Float64bits(acc.tplMax[ci]) != math.Float64bits(want) {
			t.Fatalf("%s T=%d: chunk %d cached max %v, want %v", label, len(eps), ci, acc.tplMax[ci], want)
		}
	}
}

// TestIncrementalMaxTPLDifferential drives accountants well past three
// history chunks with budgets from the adaptive workload's alphabet,
// reads at random points and exactly at and one past every chunk
// boundary, and restores from a snapshot mid-stream; every read must
// be bit-identical to the batch oracles over the full budget slice.
func TestIncrementalMaxTPLDifferential(t *testing.T) {
	const total = 3*chunked.Size + 300
	for _, c := range incrementalCases() {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			reads := map[int]bool{total: true}
			for k := 1; k <= 3; k++ {
				reads[k*chunked.Size] = true
				reads[k*chunked.Size+1] = true
			}
			for len(reads) < 30 {
				reads[1+rng.Intn(total)] = true
			}
			// Restore once between reads (so the restored accountant
			// starts from a stale FPL cache) and once right at a read.
			restoreAt := map[int]bool{chunked.Size + 777: true, 2 * chunked.Size: true}

			acc := c.fresh()
			var eps []float64
			for T := 1; T <= total; T++ {
				e := incrementalEps[rng.Intn(len(incrementalEps))]
				eps = append(eps, e)
				if _, err := acc.Observe(e); err != nil {
					t.Fatal(err)
				}
				if restoreAt[T] {
					st := acc.Snapshot()
					var err error
					if acc, err = c.restore(st); err != nil {
						t.Fatal(err)
					}
				}
				if reads[T] {
					checkAgainstOracle(t, c, acc, eps)
				}
			}
		})
	}
}

// TestMaxTPLRescansBoundaryChunk pins the chunk a refresh invalidates
// when its only rewrite is the last slot of a chunk. Without forward
// correlation FPL(t) = eps_t, so a refresh writes just the new steps;
// a large budget on each chunk's last step puts that chunk's maximum
// TPL there, and reads one step apart around the boundary must see it.
func TestMaxTPLRescansBoundaryChunk(t *testing.T) {
	qb := NewQuantifier(markov.Fig7Backward())
	acc := NewAccountantFromQuantifiers(qb, nil)
	var eps []float64
	for T := 1; T <= 2*chunked.Size+1; T++ {
		e := 0.05
		if T%chunked.Size == 0 {
			e = 0.4
		}
		eps = append(eps, e)
		if _, err := acc.Observe(e); err != nil {
			t.Fatal(err)
		}
		if r := T % chunked.Size; r > 1 && r < chunked.Size-2 {
			continue
		}
		got, err := acc.MaxTPL()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaxTPL(qb, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("T=%d: MaxTPL %v, batch %v", T, got, want)
		}
	}
}

// TestMaxTPLAllocs pins the cost of a read after an append: refreshing
// the FPL cache in place and rescanning the open chunk allocate
// nothing unless the append starts a new chunk.
func TestMaxTPLAllocs(t *testing.T) {
	acc := NewAccountant(markov.Fig7Backward(), markov.Fig7Forward())
	for i := 0; i < chunked.Size+100; i++ {
		if _, err := acc.Observe(incrementalEps[i%len(incrementalEps)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.MaxTPL(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() { // stays inside the second chunk
		i++
		if _, err := acc.Observe(incrementalEps[i%len(incrementalEps)]); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.MaxTPL(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe+MaxTPL inside a chunk allocated %v times per call, want 0", allocs)
	}
}

// FuzzIncrementalMaxTPL checks the incremental MaxTPL and FPL against
// the batch oracles on fuzzed budget sequences and read positions. Each
// budget byte appends a run of 1..64 steps of one budget (so short
// inputs still cross chunk boundaries); each read byte says whether to
// read after the run and which FPL point to compare.
func FuzzIncrementalMaxTPL(f *testing.F) {
	f.Add([]byte{0xff, 0x03, 0x80, 0x41}, []byte{1, 0, 1})
	f.Add(bytes.Repeat([]byte{0xfc, 0xfd, 0xfe, 0xff}, 20), []byte{0, 0, 0, 1, 0xff}) // crosses a chunk
	qb, qf := NewQuantifier(markov.Fig7Backward()), NewQuantifier(markov.Fig7Forward())
	f.Fuzz(func(t *testing.T, budgets, reads []byte) {
		if len(budgets) == 0 || len(budgets) > 400 || len(reads) == 0 {
			return
		}
		acc := NewAccountantFromQuantifiers(qb, qf)
		var eps []float64
		checks := 0
		for i, b := range budgets {
			e := incrementalEps[b&3]
			for run := int(b>>2) + 1; run > 0; run-- {
				eps = append(eps, e)
				if _, err := acc.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			r := reads[i%len(reads)]
			last := i == len(budgets)-1
			if !last && (r&1 == 0 || checks >= 8) {
				continue
			}
			checks++
			got, err := acc.MaxTPL()
			if err != nil {
				t.Fatal(err)
			}
			want, err := MaxTPL(qb, qf, eps)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("T=%d: MaxTPL %v, batch %v", len(eps), got, want)
			}
			fpl, err := FPLSeries(qf, eps)
			if err != nil {
				t.Fatal(err)
			}
			tm := 1 + int(r>>1)*len(eps)/128
			if v, err := acc.FPL(tm); err != nil || math.Float64bits(v) != math.Float64bits(fpl[tm-1]) {
				t.Fatalf("T=%d: FPL(%d) = %v (%v), batch %v", len(eps), tm, v, err, fpl[tm-1])
			}
		}
	})
}
