package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/markov"
	"repro/internal/stream"
	"repro/tpl/client"
)

// workload is one traffic mix; BENCHMARK.json carries its traffic
// parameters in each workload's one-line why.
type workload struct {
	Name        string
	Why         string
	ReportsPerS float64 // open-loop report reader rate (0 = none)
	Sessions    int
	Users       int // per session
	Cohorts     int // per session
	Domain      int
	BatchSteps  int
	Budgets     []float64 // each step's eps is drawn from this set
	Forward     bool      // cohorts carry forward chains too
	Durable     bool      // server runs with a state dir
	Keyed       bool      // batches carry Idempotency-Keys
	WarmBatches int       // untimed warm-up batches per session, in set-up
	// CapBatches is how many batches a session takes before it is
	// verified and replaced by a fresh one.
	CapBatches int
	// ColdStart workloads run create/land/kill/restart cycles instead
	// of an ingest window; BatchesPerSession is the load each session
	// lands before the kill.
	ColdStart         bool
	BatchesPerSession int
}

var workloads = []*workload{
	{
		Name:     "ingest-steady",
		Why:      "Closed loop, 1 conn: 256-step NDJSON count batches (return=minimal) into 1 session of 100k users/10 cohorts, domain 4, eps 0.1; memo hits, so HTTP, decode and noise dominate",
		Sessions: 1, Users: 100_000, Cohorts: 10, Domain: 4, BatchSteps: 256,
		Budgets: []float64{0.1}, WarmBatches: 128, CapBatches: 1024,
	},
	{
		Name:        "ingest-adaptive",
		Why:         "Closed-loop writer (1 conn) + open-loop GET report at 20/s (1 conn); eps per step from {0.05,0.1,0.2,0.4}, backward+forward chains: memo misses, so core Eval and reports dominate",
		ReportsPerS: 20, Sessions: 1, Users: 100_000, Cohorts: 10, Domain: 4, BatchSteps: 256,
		Budgets: []float64{0.05, 0.1, 0.2, 0.4}, Forward: true, WarmBatches: 64, CapBatches: 1024,
	},
	{
		Name:     "ingest-durable",
		Why:      "Closed loop, 2 conns, 2 sessions capped at 64 batches: keyed 256-step batches to tplserved on a fresh -state-dir (group commit, snapshot every 64 steps), eps 0.1: persist, snapshots",
		Sessions: 2, Users: 100_000, Cohorts: 10, Domain: 4, BatchSteps: 256,
		Budgets: []float64{0.1}, Durable: true, Keyed: true, WarmBatches: 4, CapBatches: 64,
	},
	{
		Name:     "cold-start",
		Why:      "Closed loop, 1 conn, cycles: create 6 sessions with fresh dense n=32 bwd+fwd chains, land 3x64 steps each, SIGKILL, restart on the same dirs: compile, engine cache, snapshot+journal restore",
		Sessions: 6, Users: 1000, Cohorts: 1, Domain: 32, BatchSteps: 64,
		Budgets: []float64{0.1}, Forward: true, Durable: true, Keyed: true,
		ColdStart: true, BatchesPerSession: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bodiesPerSession is how many distinct pre-encoded batches each ingest
// session cycles through.
const bodiesPerSession = 32

// batchInput is one pre-encoded batch: the NDJSON wire body and the same
// steps in the form the in-process layers take.
type batchInput struct {
	body  []byte
	steps []stream.BatchStep
	eps   []float64
}

// sessionInput is one session's configuration and batches.
type sessionInput struct {
	cfg     client.SessionConfig
	batches []batchInput
	one     batchInput // a one-step batch, for acknowledgements after restarts
}

// ingestInputs builds every session of an ingest workload from seed.
func ingestInputs(w *workload, seed int64) ([]sessionInput, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sessionInput, w.Sessions)
	for s := range out {
		// A non-zero config seed makes the session's noise reproducible.
		noiseSeed := seed*16 + int64(s) + 1
		if noiseSeed == 0 {
			noiseSeed = 1
		}
		cfg, err := loadgen.SessionConfig(fmt.Sprintf("%s-%d", w.Name, s), w.Users, w.Domain, w.Cohorts, 0.45, noiseSeed)
		if err != nil {
			return nil, err
		}
		if w.Forward {
			for k := 1; k < len(cfg.Cohorts); k++ {
				chain, err := markov.Lazy(w.Domain, 0.95-0.45*float64(k)/float64(w.Cohorts))
				if err != nil {
					return nil, err
				}
				cfg.Cohorts[k].Model.Forward = &client.Chain{Rows: chain.Rows()}
			}
		}
		out[s] = sessionInput{cfg: cfg, batches: make([]batchInput, bodiesPerSession)}
		for b := range out[s].batches {
			out[s].batches[b] = makeBatch(rng, w.BatchSteps, w.Users, w.Domain, w.Budgets)
		}
		out[s].one = makeBatch(rng, 1, w.Users, w.Domain, w.Budgets)
	}
	return out, nil
}

// coldInputs builds one cold-start cycle's sessions: each has its own
// freshly drawn dense backward and forward chains, so every creation
// compiles two engines nobody has compiled before.
func coldInputs(w *workload, rng *rand.Rand, cycle, sessions int) ([]sessionInput, error) {
	out := make([]sessionInput, sessions)
	for s := range out {
		pb, err := markov.UniformRandom(rng, w.Domain)
		if err != nil {
			return nil, err
		}
		pf, err := markov.UniformRandom(rng, w.Domain)
		if err != nil {
			return nil, err
		}
		cfg := client.SessionConfig{
			Name: fmt.Sprintf("cold-%d-%d", cycle, s), Domain: w.Domain, Seed: int64(cycle*w.Sessions+s) + 1000,
			Cohorts: []client.Cohort{{Users: w.Users, Model: client.Model{
				Backward: &client.Chain{Rows: pb.Rows()}, Forward: &client.Chain{Rows: pf.Rows()},
			}}},
		}
		out[s] = sessionInput{cfg: cfg, batches: make([]batchInput, w.BatchesPerSession)}
		for b := range out[s].batches {
			out[s].batches[b] = makeBatch(rng, w.BatchSteps, w.Users, w.Domain, w.Budgets)
		}
		out[s].one = makeBatch(rng, 1, w.Users, w.Domain, w.Budgets)
	}
	return out, nil
}

// makeBatch draws steps histograms of users over domain values, each
// step's budget from budgets, and encodes them as NDJSON.
func makeBatch(rng *rand.Rand, steps, users, domain int, budgets []float64) batchInput {
	b := batchInput{steps: make([]stream.BatchStep, steps), eps: make([]float64, steps)}
	var buf bytes.Buffer
	weights := make([]float64, domain)
	for i := range b.steps {
		total := 0.0
		for v := range weights {
			weights[v] = 0.2 + rng.Float64()
			total += weights[v]
		}
		counts := make([]int, domain)
		left := users
		for v := 0; v < domain-1; v++ {
			counts[v] = min(left, int(float64(users)*weights[v]/total))
			left -= counts[v]
		}
		counts[domain-1] = left
		b.eps[i] = budgets[rng.Intn(len(budgets))]
		b.steps[i] = stream.BatchStep{Counts: counts, Eps: &b.eps[i]}
		buf.WriteString(`{"counts":[`)
		for v, n := range counts {
			if v > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.Itoa(n))
		}
		buf.WriteString(`],"eps":`)
		buf.WriteString(strconv.FormatFloat(b.eps[i], 'g', -1, 64))
		buf.WriteString("}\n")
	}
	b.body = buf.Bytes()
	return b
}
