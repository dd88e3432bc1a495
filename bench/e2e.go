package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/tpl/client"
)

// Run shape shared by the workloads.
const (
	// Probes each ingest round runs after its unit: timed reports at
	// rest (where no reader runs during the window), session creations
	// of the workload's shape, and SIGKILL restarts.
	roundReports  = 10
	roundCreates  = 10
	roundRestarts = 3
	// coldRoundCycles is how many cold-start cycles make one round.
	coldRoundCycles = 8
	// failedMS is the latency recorded for a failed operation: a
	// failure misses every latency limit.
	failedMS = 60_000
)

// unit is one measured round of a run: an ingest segment (fresh
// sessions filled to the workload's cap) followed by its probes, or a
// fixed number of cold-start cycles. Every full unit is the same work,
// and the units of a run spread over its whole window.
type unit struct {
	dur      time.Duration // time its steps took
	steps    int
	cpu      time.Duration // server user+system CPU
	wchar    int64         // server write-syscall bytes (files and sockets)
	batchMS  []float64
	reportMS []float64 // the open-loop reader's reports, or reports at rest
	lateMS   []float64 // open-loop reader: how late each request was sent
	createMS []float64
	restoreS []float64
	hwmKB    int64 // peak RSS of the server process by the unit's end
	full     bool  // ran to the cap (ingest) or to the end of the round
	// Shares of the machine's CPU time other guests took while the
	// unit's steps ran, while its probes ran, and while its reports ran
	// (the reader runs beside the steps, reports at rest among the
	// probes). A cold-start round has one share for all three.
	steal, probeSteal, reportSteal float64
}

// e2eStats is everything the untraced run measures.
type e2eStats struct {
	setupS     []float64
	setupSteal []float64 // each set-up's steal share
	units      []unit
	attempted  int
	failed     int
	checks     map[string]*checkResult
}

type checkResult struct {
	pass, fail int
	detail     string // first failure
}

// runner drives one workload against tplserved child processes.
type runner struct {
	opt options
	w   *workload
	// endpoint maps a child to the base URL clients use (nil: the
	// child's own); self-tests interpose a faulty proxy here.
	endpoint func(*child) string
	srv      *child
	base     string
	boots    int
	dirs     []string
	st       e2eStats
	logged   int
}

func newRunner(opt options, w *workload) *runner {
	return &runner{opt: opt, w: w, st: e2eStats{checks: map[string]*checkResult{}}}
}

// boot starts a fresh child with the given flags.
func (r *runner) boot(flags ...string) error {
	c, err := startChild(r.opt.server, flags...)
	if err != nil {
		return err
	}
	r.srv, r.base = c, c.base
	if r.endpoint != nil {
		r.base = r.endpoint(c)
	}
	r.boots++
	return nil
}

// stop kills the current child, if any.
func (r *runner) stop() {
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
}

// close stops the child and removes every directory the run made.
func (r *runner) close() {
	r.stop()
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// freshDir returns a new empty directory under the work dir.
func (r *runner) freshDir(kind string) (string, error) {
	d := filepath.Join(r.opt.workdir, fmt.Sprintf("%s-%d-%d", kind, os.Getpid(), len(r.dirs)))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	r.dirs = append(r.dirs, d)
	return d, os.MkdirAll(d, 0o755)
}

// op counts one attempted operation and reports whether it succeeded.
func (r *runner) op(err error) bool {
	r.st.attempted++
	if err != nil {
		r.st.failed++
		r.logf("operation failed: %v", err)
		return false
	}
	return true
}

// timedOp runs f, counts it, and appends its latency in ms to dst
// unless dst is nil (a failure counts as failedMS).
func (r *runner) timedOp(dst *[]float64, f func() error) bool {
	t0 := time.Now()
	err := f()
	d := ms(time.Since(t0))
	ok := r.op(err)
	if !ok {
		d = failedMS
	}
	if dst != nil {
		*dst = append(*dst, d)
	}
	return ok
}

// check records one output check.
func (r *runner) check(name string, ok bool, format string, args ...any) {
	c := r.st.checks[name]
	if c == nil {
		c = &checkResult{}
		r.st.checks[name] = c
	}
	if ok {
		c.pass++
		return
	}
	if c.fail == 0 {
		c.detail = fmt.Sprintf(format, args...)
	}
	c.fail++
}

// logf reports a diagnostic on stderr, at most 20 per run.
func (r *runner) logf(format string, args ...any) {
	if r.logged++; r.logged <= 20 {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// sessState tracks one session's acknowledged stream on the client.
type sessState struct {
	in     sessionInput
	target *stepsTarget
	t      int       // steps acknowledged so far
	next   int       // next batch index (cycles through in.batches)
	eps    []float64 // acknowledged budget sequence
	keyed  bool
}

// newSession registers a session on the current server, appending the
// creation latency to lat (nil: not sampled), and returns its
// client-side state.
func (r *runner) newSession(c *conn, in sessionInput, lat *[]float64) (*sessState, error) {
	s := &sessState{in: in, keyed: r.w.Keyed}
	if err := s.retarget(r.base, r.boots); err != nil {
		return nil, err
	}
	r.timedOp(lat, func() error { return c.create(r.base, in.cfg) })
	return s, nil
}

// retarget points the session at a (re)booted server.
func (s *sessState) retarget(base string, boot int) error {
	t, err := newStepsTarget(base, s.in.cfg.Name, s.keyed)
	if err != nil {
		return err
	}
	// Idempotency keys outlive restarts, so each boot gets its own key
	// space.
	t.prefix += strconv.Itoa(boot) + "-"
	s.target = t
	return nil
}

// postNext sends the session's next batch.
func (s *sessState) postNext(c *conn) error {
	i := s.next % len(s.in.batches)
	s.next++
	b := &s.in.batches[i]
	if err := c.post(s.target, b.body, len(b.eps), s.t); err != nil {
		return err
	}
	s.t += len(b.eps)
	s.eps = append(s.eps, b.eps...)
	return nil
}

// postOne sends the session's one-step batch.
func (s *sessState) postOne(c *conn) error {
	if err := c.post(s.target, s.in.one.body, 1, s.t); err != nil {
		return err
	}
	s.t++
	s.eps = append(s.eps, s.in.one.eps...)
	return nil
}

// writerResult is one closed-loop writer's share of a segment.
type writerResult struct {
	batchMS           []float64
	steps             int
	attempted, failed int
	errs              []error
}

// writeUntil posts the session's batches back to back until ctx ends
// or the session holds capSteps.
func (s *sessState) writeUntil(ctx context.Context, c *conn, capSteps int) writerResult {
	var res writerResult
	for ctx.Err() == nil && s.t < capSteps {
		before := s.t
		t0 := time.Now()
		err := s.postNext(c)
		d := ms(time.Since(t0))
		res.attempted++
		if err != nil {
			res.failed++
			res.errs = append(res.errs, err)
			d = failedMS
		}
		res.batchMS = append(res.batchMS, d)
		res.steps += s.t - before
	}
	return res
}

// readerResult is the open-loop reader's share of a segment.
type readerResult struct {
	latMS, lateMS     []float64
	attempted, failed int
	errs              []error
}

// readOpenLoop sends GET report at a fixed rate from start until ctx
// ends, timing each request from when it was due.
func readOpenLoop(ctx context.Context, c *conn, base, name string, rate float64, start time.Time) readerResult {
	var res readerResult
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-ctx.Done():
			return res
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		_, err := c.api(base).Report(context.Background(), name)
		res.attempted++
		lat := ms(time.Since(due))
		if err != nil {
			res.failed++
			res.errs = append(res.errs, err)
			lat = failedMS
		}
		res.latMS = append(res.latMS, lat)
		res.lateMS = append(res.lateMS, ms(sent.Sub(due)))
	}
}

// serverFlags are the child's flags for a state dir ("" = ephemeral)
// and an engine-cache dir ("" = none).
func serverFlags(state, cache string) []string {
	var f []string
	if state != "" {
		f = append(f, "-state-dir", state)
	}
	if cache != "" {
		f = append(f, "-engine-cache-dir", cache)
	}
	return f
}

// runIngest runs one of the ingest workloads. The timed window is a
// sequence of rounds. Each sets up a fresh server (a fresh state dir
// where the workload is durable) with the workload's sessions and
// warms them, fills the sessions to the cap, verifies them, and runs
// the probes on sessions of exactly that history. The cap keeps the
// history a session accumulates — and with it the server's memory and
// every O(T) scan — the same on every run however fast the server is.
func (r *runner) runIngest() ([]sessionInput, error) {
	in, err := ingestInputs(r.w, r.opt.seed)
	if err != nil {
		return nil, err
	}
	c := newConn()
	defer c.close()
	deadline := time.Now().Add(time.Duration(r.opt.seconds) * time.Second)
	for gen := 0; ; gen++ {
		t0, steal := time.Now(), startSteal()
		sess, state, err := r.setup(c, in)
		if err != nil {
			return nil, err
		}
		r.st.setupS = append(r.st.setupS, time.Since(t0).Seconds())
		r.st.setupSteal = append(r.st.setupSteal, steal.share())
		u, err := r.segment(sess, time.Until(deadline))
		if err != nil {
			return nil, err
		}
		if !u.full {
			// The window closed mid-unit. A run too short to fill one
			// still probes, so every metric exists.
			r.verify(c, sess, true)
			if len(r.st.units) == 0 {
				if err := r.probe(c, in, sess, state, &u); err != nil {
					return nil, err
				}
			}
			r.st.units = append(r.st.units, u)
			return in, nil
		}
		// The oracle recomputes the whole history, so it checks the first
		// full sessions and the last ones (the next unit cannot fill);
		// every session gets the T check.
		r.verify(c, sess, gen == 0 || time.Until(deadline) < time.Since(t0))
		if err := r.probe(c, in, sess, state, &u); err != nil {
			return nil, err
		}
		r.st.units = append(r.st.units, u)
		if !time.Now().Before(deadline) {
			r.verify(c, sess, false)
			return in, nil
		}
	}
}

// setup starts a fresh server (on a fresh state dir where the workload
// is durable, returned), creates the workload's sessions and posts
// their untimed warm-up batches, which count toward the cap.
func (r *runner) setup(c *conn, in []sessionInput) (sess []*sessState, state string, err error) {
	r.stop()
	c.close()
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
	r.dirs = r.dirs[:0]
	if r.w.Durable {
		if state, err = r.freshDir("state"); err != nil {
			return nil, "", err
		}
	}
	if err := r.boot(serverFlags(state, "")...); err != nil {
		return nil, "", err
	}
	for i := range in {
		s, err := r.newSession(c, in[i], nil)
		if err != nil {
			return nil, "", err
		}
		sess = append(sess, s)
	}
	for j := 0; j < r.w.WarmBatches; j++ {
		for _, s := range sess {
			r.op(s.postNext(c))
		}
	}
	return sess, state, nil
}

// segment runs one timed unit: a closed-loop writer per session, each
// on its own connection, plus the open-loop reader where the workload
// has one, until budget is spent or a session reaches the cap.
func (r *runner) segment(sess []*sessState, budget time.Duration) (unit, error) {
	var u unit
	u0, err := readUsage(r.srv.pid())
	if err != nil {
		return u, err
	}
	steal := startSteal()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	capSteps := r.w.CapBatches * r.w.BatchSteps
	start := time.Now()
	writers := make([]writerResult, len(sess))
	var reader readerResult
	var wg, rwg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.close()
			writers[i] = s.writeUntil(ctx, c, capSteps)
			if s.t >= capSteps {
				cancel()
			}
		}()
	}
	if r.w.ReportsPerS > 0 {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			c := newConn()
			defer c.close()
			reader = readOpenLoop(ctx, c, r.base, sess[0].in.cfg.Name, r.w.ReportsPerS, start)
		}()
	}
	wg.Wait()
	u.dur = time.Since(start)
	cancel()
	rwg.Wait()
	u1, err := readUsage(r.srv.pid())
	if err != nil {
		return u, err
	}
	u.cpu, u.wchar, u.hwmKB = u1.cpu-u0.cpu, u1.wchar-u0.wchar, u1.hwmKB
	u.steal = steal.share()
	for _, s := range sess {
		u.full = u.full || s.t >= capSteps
	}
	for _, wr := range writers {
		u.steps += wr.steps
		u.batchMS = append(u.batchMS, wr.batchMS...)
		r.st.attempted += wr.attempted
		r.st.failed += wr.failed
		for _, err := range wr.errs {
			r.logf("batch failed: %v", err)
		}
	}
	u.reportMS, u.lateMS, u.reportSteal = reader.latMS, reader.lateMS, u.steal
	r.st.attempted += reader.attempted
	r.st.failed += reader.failed
	for _, err := range reader.errs {
		r.logf("report failed: %v", err)
	}
	return u, nil
}

// verify runs the output checks on live sessions: no step lost or
// applied twice, and with oracle, where budgets vary, the served alpha
// equals the paper's batch oracle bit for bit.
func (r *runner) verify(c *conn, sess []*sessState, oracle bool) {
	for _, s := range sess {
		sum, err := c.api(r.base).GetSession(context.Background(), s.in.cfg.Name)
		if r.op(err) {
			r.check("t_equals_acked", sum.T == s.t, "%s: server T=%d, acknowledged %d", s.in.cfg.Name, sum.T, s.t)
		}
		if !oracle || len(r.w.Budgets) == 1 {
			continue
		}
		rep, err := c.api(r.base).Report(context.Background(), s.in.cfg.Name)
		if !r.op(err) {
			continue
		}
		want, err := oracleAlpha(s.in.cfg, s.eps)
		r.check("alpha_equals_oracle", err == nil && math.Float64bits(rep.EventLevelAlpha) == math.Float64bits(want),
			"%s: served event-level alpha %v, core.MaxTPL oracle %v (T=%d, err %v)", s.in.cfg.Name, rep.EventLevelAlpha, want, rep.T, err)
	}
}

// probe runs one round's probes on the sessions the unit filled and
// records them in u: reports at rest (where no reader runs during the
// window), session creations of the workload's shape, and a restart:
// SIGKILL, re-exec on the same state dir, and the time until every
// session acknowledges its next step. An ephemeral server forgets its
// sessions by design, so there a restart includes re-creating them.
func (r *runner) probe(c *conn, in []sessionInput, sess []*sessState, state string, u *unit) error {
	steal := startSteal()
	defer func() { u.probeSteal = steal.share() }()
	if r.w.ReportsPerS == 0 {
		for _, s := range sess { // the first report refreshes; untimed
			_, err := c.api(r.base).Report(context.Background(), s.in.cfg.Name)
			r.op(err)
		}
		for k := 0; k < roundReports; k++ {
			name := sess[k%len(sess)].in.cfg.Name
			r.timedOp(&u.reportMS, func() error { _, err := c.api(r.base).Report(context.Background(), name); return err })
		}
		u.reportSteal = steal.share()
	}
	for k := 0; k < roundCreates; k++ {
		cfg := in[0].cfg
		cfg.Name = fmt.Sprintf("probe-%d-%d", len(r.st.units), k)
		if r.timedOp(&u.createMS, func() error { return c.create(r.base, cfg) }) {
			r.op(c.api(r.base).DeleteSession(context.Background(), cfg.Name))
		}
	}
	for k := 0; k < roundRestarts; k++ {
		c.close()
		r.stop()
		t0 := time.Now()
		if err := r.boot(serverFlags(state, "")...); err != nil {
			return err
		}
		for _, s := range sess {
			if err := s.retarget(r.base, r.boots); err != nil {
				return err
			}
			if !r.w.Durable {
				if !r.op(c.create(r.base, s.in.cfg)) {
					continue
				}
				s.t, s.eps = 0, nil
			}
			err := s.postOne(c)
			r.op(err)
			if r.w.Durable {
				r.check("restored_t_equals_acked", err == nil, "%s: %v", s.in.cfg.Name, err)
			}
		}
		u.restoreS = append(u.restoreS, time.Since(t0).Seconds())
	}
	return nil
}

// runColdStart runs rounds until the window closes (at least one):
// a set-up cycle of one session, then coldRoundCycles full
// create/land/kill/restart cycles.
func (r *runner) runColdStart() ([]sessionInput, error) {
	rng := rand.New(rand.NewSource(r.opt.seed))
	var first []sessionInput
	deadline := time.Now().Add(time.Duration(r.opt.seconds) * time.Second)
	for round, cycle := 0, 0; round == 0 || time.Now().Before(deadline); round++ {
		in, err := coldInputs(r.w, rng, -1-round, 1)
		if err != nil {
			return nil, err
		}
		t0, steal := time.Now(), startSteal()
		// Set-up cycles count as operations, not as measurements.
		if _, err := r.coldCycle(in, &unit{}); err != nil {
			return nil, err
		}
		r.st.setupS = append(r.st.setupS, time.Since(t0).Seconds())
		r.st.setupSteal = append(r.st.setupSteal, steal.share())
		u := unit{full: true}
		var hwm []float64
		steal = startSteal()
		for k := 0; k < coldRoundCycles; k, cycle = k+1, cycle+1 {
			in, err := coldInputs(r.w, rng, cycle, r.w.Sessions)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = in
			}
			kb, err := r.coldCycle(in, &u)
			if err != nil {
				return nil, err
			}
			hwm = append(hwm, float64(kb))
		}
		// Each cycle runs its own two processes; the round reports the
		// median cycle's peak, not the largest.
		u.hwmKB = int64(median(hwm))
		u.steal = steal.share()
		u.probeSteal, u.reportSteal = u.steal, u.steal
		r.st.units = append(r.st.units, u)
	}
	return first, nil
}

// coldCycle is one cold-start cycle on fresh state and engine-cache
// dirs, recorded in u: create the sessions (each compiles its models),
// land the workload's batches, SIGKILL, re-exec on the same dirs, and
// time until every session acknowledges its next step; then read each
// report. It returns the larger peak RSS of the cycle's two processes.
func (r *runner) coldCycle(in []sessionInput, u *unit) (hwmKB int64, err error) {
	state, err := r.freshDir("state")
	if err != nil {
		return 0, err
	}
	cache, err := r.freshDir("cache")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(state)
	defer os.RemoveAll(cache)
	if err := r.boot(serverFlags(state, cache)...); err != nil {
		return 0, err
	}
	c := newConn()
	defer c.close()
	var sess []*sessState
	for i := range in {
		s, err := r.newSession(c, in[i], &u.createMS)
		if err != nil {
			return 0, err
		}
		sess = append(sess, s)
	}
	for j := 0; j < r.w.BatchesPerSession; j++ {
		for _, s := range sess {
			before := s.t
			t0 := time.Now()
			r.timedOp(&u.batchMS, func() error { return s.postNext(c) })
			u.dur += time.Since(t0)
			u.steps += s.t - before
		}
	}
	// Engines compiled before the crash: compilation is lazy, so these
	// are the models the landed batches needed.
	stored := int64(-1)
	if h, err := c.api(r.base).Health(context.Background()); r.op(err) && h.EngineCache != nil {
		stored = h.EngineCache.Stores
	}
	pre, err := readUsage(r.srv.pid())
	if err != nil {
		return 0, err
	}
	c.close()
	r.stop()

	t0 := time.Now()
	if err := r.boot(serverFlags(state, cache)...); err != nil {
		return 0, err
	}
	for _, s := range sess {
		if err := s.retarget(r.base, r.boots); err != nil {
			return 0, err
		}
		err := s.postOne(c)
		if r.op(err) {
			u.steps++
		}
		r.check("restored_t_equals_acked", err == nil, "%s: %v", s.in.cfg.Name, err)
	}
	u.restoreS = append(u.restoreS, time.Since(t0).Seconds())
	if h, err := c.api(r.base).Health(context.Background()); r.op(err) {
		ec := h.EngineCache
		ok := ec != nil && stored >= int64(len(sess)) && ec.Hits == stored && ec.Stores == 0
		r.check("warm_start_no_recompile", ok, "engine cache after restart %+v, want hits=%d (engines stored before the crash) and stores=0", ec, stored)
	}
	for _, s := range sess {
		r.timedOp(&u.reportMS, func() error { _, err := c.api(r.base).Report(context.Background(), s.in.cfg.Name); return err })
	}
	post, err := readUsage(r.srv.pid())
	if err != nil {
		return 0, err
	}
	u.cpu += pre.cpu + post.cpu
	u.wchar += pre.wchar + post.wchar
	r.stop()
	return max(pre.hwmKB, post.hwmKB), nil
}

// oracleAlpha is the paper's batch computation of the session's
// event-level alpha: the worst core.MaxTPL over its cohorts for the
// acknowledged budget sequence.
func oracleAlpha(cfg client.SessionConfig, eps []float64) (float64, error) {
	qb, qf, err := quantifiers(cfg)
	if err != nil {
		return 0, err
	}
	vals := make([]float64, len(qb))
	errs := make([]error, len(qb))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // two cohorts at a time bound the oracle's memory
	for i := range qb {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vals[i], errs[i] = core.MaxTPL(qb[i], qf[i], eps)
		}()
	}
	wg.Wait()
	worst := math.Inf(-1)
	for i, v := range vals {
		if errs[i] != nil {
			return 0, errs[i]
		}
		worst = max(worst, v)
	}
	return worst, nil
}

// chainOf converts a wire chain (nil = no correlation).
func chainOf(c *client.Chain) (*markov.Chain, error) {
	if c == nil {
		return nil, nil
	}
	return markov.FromRows(c.Rows)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd turns the untraced run into the end-to-end metrics. Each
// full round gives one value per metric: throughput, CPU, bytes, peak
// RSS, or a percentile of the round's own samples. Bytes written and
// peak RSS, which other guests on the machine do not move, are the
// median over rounds; every time and throughput metric is the
// round values' estimate at zero steal (atZeroSteal).
func (st *e2eStats) endToEnd() map[string]float64 { return st.metrics(atZeroSteal) }

// rawMedians are the time and throughput metrics as plain medians over
// rounds, printed beside the estimates for comparison.
func (st *e2eStats) rawMedians() map[string]float64 {
	return st.metrics(func(pts []sample) float64 { return median(values(pts)) })
}

// sample is one round's value of a metric and the share of the
// machine's CPU time other guests took while it was measured.
type sample struct{ steal, v float64 }

func values(pts []sample) []float64 {
	vs := make([]float64, len(pts))
	for i, p := range pts {
		vs[i] = p.v
	}
	return vs
}

// atZeroSteal estimates a metric as the machine shows it when no other
// guest takes CPU time. On a shared virtual machine a round's times
// grow with the share the hypervisor stole from it while it ran, by a
// close to constant factor per point of steal, and that share swings
// from minute to minute, so a plain median tracks the neighbours as
// much as the program. The estimate fits log(value) = a + b*steal
// through the rounds' points by Theil-Sen — b is the median of the
// pairwise slopes, a the median of the log values moved along b to
// steal 0 — and returns exp(a). On a quiet machine every round reads
// about 0 and the estimate is close to the plain median; a change to
// the program moves every round, and with it the fit.
func atZeroSteal(all []sample) float64 {
	var pts []sample // a value of 0 (a round with no steps) has no log
	for _, p := range all {
		if p.v > 0 {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	var slopes []float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if dx := pts[j].steal - pts[i].steal; dx != 0 {
				slopes = append(slopes, (math.Log(pts[j].v)-math.Log(pts[i].v))/dx)
			}
		}
	}
	b := median(slopes)
	moved := make([]float64, len(pts))
	for i, p := range pts {
		moved[i] = math.Log(p.v) - b*p.steal
	}
	return math.Exp(median(moved))
}

// metrics reduces the rounds with at for every time and throughput
// metric.
func (st *e2eStats) metrics(at func([]sample) float64) map[string]float64 {
	var rate, cpu, p50, p90, r50, r90, c50, c90, restore, setup []sample
	var wchar, hwm []float64
	for _, u := range st.fullUnits() {
		steps := float64(max(u.steps, 1))
		rate = append(rate, sample{u.steal, float64(u.steps) / u.dur.Seconds()})
		cpu = append(cpu, sample{u.steal, float64(u.cpu.Microseconds()) / steps})
		p50 = append(p50, sample{u.steal, quantile(u.batchMS, 0.5)})
		p90 = append(p90, sample{u.steal, quantile(u.batchMS, 0.9)})
		wchar = append(wchar, float64(u.wchar)/steps)
		hwm = append(hwm, float64(u.hwmKB)/1024)
		if len(u.reportMS) > 0 {
			r50 = append(r50, sample{u.reportSteal, quantile(u.reportMS, 0.5)})
			r90 = append(r90, sample{u.reportSteal, quantile(u.reportMS, 0.9)})
		}
		if len(u.createMS) > 0 {
			c50 = append(c50, sample{u.probeSteal, quantile(u.createMS, 0.5)})
			c90 = append(c90, sample{u.probeSteal, quantile(u.createMS, 0.9)})
		}
		if len(u.restoreS) > 0 {
			restore = append(restore, sample{u.probeSteal, median(u.restoreS)})
		}
	}
	for i, v := range st.setupS {
		setup = append(setup, sample{st.setupSteal[i], v})
	}
	return map[string]float64{
		"steps_per_s":            at(rate),
		"batch_p50_ms":           at(p50),
		"batch_p90_ms":           at(p90),
		"cpu_us_per_step":        at(cpu),
		"report_p50_ms":          at(r50),
		"report_p90_ms":          at(r90),
		"written_bytes_per_step": median(wchar),
		"create_p50_ms":          at(c50),
		"create_p90_ms":          at(c90),
		"restore_s":              at(restore),
		"server_rss_mb":          median(hwm),
		"setup_s":                at(setup),
		"success_rate":           1 - float64(st.failed)/float64(max(st.attempted, 1)),
	}
}

// fullUnits are the units that ran to completion, or every unit when
// none did (a server too slow to reach the cap).
func (st *e2eStats) fullUnits() []unit {
	var full []unit
	for _, u := range st.units {
		if u.full {
			full = append(full, u)
		}
	}
	if len(full) == 0 {
		return st.units
	}
	return full
}

// allBatches pools every unit's batch latencies.
func (st *e2eStats) allBatches() []float64 {
	var all []float64
	for _, u := range st.units {
		all = append(all, u.batchMS...)
	}
	return all
}
