package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/enginecache"
	"repro/internal/markov"
	"repro/internal/mechanism"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/tpl/client"
)

// The traced run replays the workload's seeded batches through each
// layer's public entry points, outermost first, each layer on its own
// twin state built from the same config: API.Handler().ServeHTTP, then
// Registry.Get + Session.CollectBatch, then stream.Server.CollectBatch,
// then the noise release and core.Accountant.Observe per cohort. Every
// call is a span whose parent is the same batch's span one layer up; a
// layer's self time is its span minus its children's.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Batch  int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// end closes a span opened at start and returns its index.
func (tr *tracer) end(name string, start int64, parent, batch int) int {
	tr.spans = append(tr.spans, span{Name: name, Start: start, End: tr.now(), Parent: parent, Batch: batch})
	return len(tr.spans) - 1
}

// write saves the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twin is one in-process copy of the service: built exactly as
// tplserved builds it, but never listening.
type twin struct {
	srv *service.Server
	reg *service.Registry
}

func newTwin(state, cache string, snapshotEvery int) (*twin, error) {
	s, err := service.NewWithOptions("", nil, service.Options{StateDir: state, EngineCacheDir: cache, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, err
	}
	return &twin{srv: s, reg: s.API().Registry()}, nil
}

// create registers a session from its wire config.
func (t *twin) create(cfg client.SessionConfig) (*service.Session, error) {
	sc, err := serviceConfig(cfg)
	if err != nil {
		return nil, err
	}
	return t.reg.Create(sc)
}

func (t *twin) close() error { return t.reg.Close() }

// serviceConfig converts a wire config the way the server decodes it.
func serviceConfig(cfg client.SessionConfig) (*service.SessionConfig, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var sc service.SessionConfig
	return &sc, json.Unmarshal(data, &sc)
}

// quantifiers compiles each cohort's chains once.
func quantifiers(cfg client.SessionConfig) (qb, qf []*core.Quantifier, err error) {
	for _, co := range cfg.Cohorts {
		pb, err := chainOf(co.Model.Backward)
		if err != nil {
			return nil, nil, err
		}
		pf, err := chainOf(co.Model.Forward)
		if err != nil {
			return nil, nil, err
		}
		qb = append(qb, core.NewQuantifier(pb))
		qf = append(qf, core.NewQuantifier(pf))
	}
	return qb, qf, nil
}

// traceInputs are what the traced run shares with the untraced one.
type traceInputs struct {
	w        *workload
	sessions []sessionInput // sessions[0] is the one replayed through every layer
	seed     int64
	seconds  int
	workdir  string
	e2e      *e2eStats
}

// traceBudget caps the span loop's replay time.
const traceBudget = 4 * time.Second

// traceRun produces the per-layer metrics and the closure table.
func traceRun(ti traceInputs) (map[string]float64, []closureRow, error) {
	dir, err := os.MkdirTemp(ti.workdir, "trace-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}
	tr := &tracer{t0: time.Now()}
	// Per-layer metrics have no bound, so the replay stays short.
	budget := min(time.Duration(ti.seconds)*time.Second/2, traceBudget)
	batches, err := traceLayers(ti, dir, tr, budget, m)
	if err != nil {
		return nil, nil, err
	}
	if err := traceOverhead(ti, batches, m); err != nil {
		return nil, nil, err
	}
	if err := tracePersist(ti, dir, m); err != nil {
		return nil, nil, err
	}
	if err := traceCompile(ti, m); err != nil {
		return nil, nil, err
	}
	m["loadgen.batch_p99_ms"] = quantile(ti.e2e.allBatches(), 0.99)
	var late []float64
	for _, u := range ti.e2e.units {
		late = append(late, u.lateMS...)
	}
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	spanFile := filepath.Join(ti.workdir, fmt.Sprintf("spans-%s-%d.jsonl", ti.w.Name, ti.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, nil, err
	}
	return m, closure(ti, m), nil
}

// stepsRequest builds the in-memory POST a handler twin serves.
func stepsRequest(name string, body []byte, key string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v2/sessions/"+name+"/steps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Prefer", "return=minimal")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	return req
}

// traceLayers is the span loop: every batch through every layer until
// budget is spent. It returns how many batches it replayed.
func traceLayers(ti traceInputs, dir string, tr *tracer, budget time.Duration, m map[string]float64) (int, error) {
	in := &ti.sessions[0]
	name := in.cfg.Name
	state := func(k string) string {
		if !ti.w.Durable {
			return ""
		}
		return filepath.Join(dir, k)
	}
	ta, err := newTwin(state("handler"), "", 0)
	if err != nil {
		return 0, err
	}
	defer ta.close()
	tb, err := newTwin(state("session"), "", 0)
	if err != nil {
		return 0, err
	}
	defer tb.close()
	qb, qf, err := quantifiers(in.cfg)
	if err != nil {
		return 0, err
	}
	// fresh starts the session every layer's twin replays into, as the
	// untraced run does: a cold-start session after its few batches, an
	// ingest session at the workload's cap.
	var streamTwin *stream.Server
	var accts []*core.Accountant
	fresh := func(b int) error {
		cfg := in.cfg
		if b > 0 {
			cfg.Name = fmt.Sprintf("%s-r%d", in.cfg.Name, b)
			if err := ta.reg.Delete(name); err != nil {
				return err
			}
			if err := tb.reg.Delete(name); err != nil {
				return err
			}
		}
		name = cfg.Name
		if _, err := ta.create(cfg); err != nil {
			return err
		}
		if _, err := tb.create(cfg); err != nil {
			return err
		}
		sc, err := serviceConfig(cfg)
		if err != nil {
			return err
		}
		if streamTwin, err = sc.Build(); err != nil {
			return err
		}
		accts = make([]*core.Accountant, len(qb))
		for i := range accts {
			accts[i] = core.NewAccountantFromQuantifiers(qb[i], qf[i])
		}
		return nil
	}
	if err := fresh(0); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(ti.seed))
	laps := map[float64]*mechanism.Laplace{}
	for _, e := range ti.w.Budgets {
		if laps[e], err = mechanism.NewLaplace(e, 1, rng); err != nil {
			return 0, err
		}
	}
	h := ta.srv.API().Handler()
	stepsPerBatch := len(in.batches[0].eps)
	// The reader's interval in batches: how many steps land between two
	// 20/s reports at the untraced run's rate.
	interval := max(1, int(ti.e2e.endToEnd()["steps_per_s"]/20/float64(stepsPerBatch)+0.5))
	dst := make([]float64, 0, ti.w.Domain)
	var steps, calls int
	start := time.Now()
	b := 0
	for ; b == 0 || time.Since(start) < budget; b++ {
		every := ti.w.CapBatches
		if ti.w.ColdStart {
			every = ti.w.BatchesPerSession
		}
		if b > 0 && b%every == 0 {
			if err := fresh(b); err != nil {
				return 0, err
			}
		}
		bi := &in.batches[b%len(in.batches)]
		key := ""
		if ti.w.Keyed {
			key = "trace-" + strconv.Itoa(b)
		}
		req, rec := stepsRequest(name, bi.body, key), httptest.NewRecorder()
		s := tr.now()
		h.ServeHTTP(rec, req)
		hs := tr.end("service.handler", s, -1, b)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler twin: %d %s", rec.Code, rec.Body.String())
		}
		s = tr.now()
		sess, err := tb.reg.Get(name)
		if err == nil {
			_, _, err = sess.CollectBatch(key, bi.steps)
		}
		ss := tr.end("service.session_collect", s, hs, b)
		if err != nil {
			return 0, fmt.Errorf("session twin: %w", err)
		}
		s = tr.now()
		_, err = streamTwin.CollectBatch(bi.steps)
		sc := tr.end("stream.collect", s, ss, b)
		if err != nil {
			return 0, fmt.Errorf("stream twin: %w", err)
		}
		s = tr.now()
		for i := range bi.steps {
			dst = laps[bi.eps[i]].AppendReleaseCounts(dst[:0], bi.steps[i].Counts)
		}
		tr.end("mechanism.release", s, sc, b)
		for _, a := range accts {
			s = tr.now()
			for _, e := range bi.eps {
				if _, err := a.Observe(e); err != nil {
					return 0, err
				}
			}
			tr.end("core.observe", s, sc, b)
			calls += len(bi.eps)
		}
		steps += len(bi.eps)
		// A read is not part of the batch's ingest path: its spans form
		// their own tree.
		if (b+1)%interval == 0 {
			s = tr.now()
			_, err := streamTwin.Report()
			rs := tr.end("stream.report", s, -1, b)
			if err != nil {
				return 0, err
			}
			for _, a := range accts {
				s = tr.now()
				_, err := a.MaxTPL()
				tr.end("core.maxtpl", s, rs, b)
				if err != nil {
					return 0, err
				}
			}
		}
	}

	sum := map[string]float64{}
	var reports, maxtpls []float64
	for _, sp := range tr.spans {
		d := float64(sp.End - sp.Start)
		sum[sp.Name] += d
		switch sp.Name {
		case "stream.report":
			reports = append(reports, d/1e6)
		case "core.maxtpl":
			maxtpls = append(maxtpls, d/1e6)
		}
	}
	n := float64(steps)
	m["service.handler_ns_per_step"] = sum["service.handler"] / n
	m["service.session_collect_ns_per_step"] = sum["service.session_collect"] / n
	m["service.decode_respond_ns_per_step"] = (sum["service.handler"] - sum["service.session_collect"]) / n
	m["stream.collect_ns_per_step"] = sum["stream.collect"] / n
	m["stream.self_ns_per_step"] = (sum["stream.collect"] - sum["core.observe"] - sum["mechanism.release"]) / n
	m["mechanism.release_ns_per_step"] = sum["mechanism.release"] / n
	m["core.observe_ns"] = sum["core.observe"] / float64(calls)
	m["stream.report_ms"] = median(reports)
	m["core.maxtpl_ms"] = median(maxtpls)
	m["service.transport_ns_per_step"] = ti.e2e.endToEnd()["batch_p50_ms"]*1e6/float64(ti.w.BatchSteps) - m["service.handler_ns_per_step"]
	// The handler's only child span is the session's; what it leaves of
	// the handler (request decode and response encode) no deeper layer
	// accounts for.
	m["trace.unattributed_frac"] = (sum["service.handler"] - sum["service.session_collect"]) / sum["service.handler"]
	return b, nil
}

// traceOverhead replays the same batches through two fresh ephemeral
// handler twins, alternating batch by batch so drift in the machine's
// speed hits both alike, one with span recording and one without; the
// throughput lost to recording is the tracing overhead.
func traceOverhead(ti traceInputs, batches int, m map[string]float64) error {
	in := &ti.sessions[0]
	var handlers [2]http.Handler
	for k := range handlers {
		t, err := newTwin("", "", 0)
		if err != nil {
			return err
		}
		defer t.close()
		if _, err := t.create(in.cfg); err != nil {
			return err
		}
		handlers[k] = t.srv.API().Handler()
	}
	tr := &tracer{t0: time.Now()}
	var busy [2]time.Duration
	for b := 0; b < batches; b++ {
		for k, h := range handlers {
			req, rec := stepsRequest(in.cfg.Name, in.batches[b%len(in.batches)].body, ""), httptest.NewRecorder()
			t0 := time.Now()
			if k == 1 {
				s := tr.now()
				h.ServeHTTP(rec, req)
				tr.end("service.handler", s, -1, b)
			} else {
				h.ServeHTTP(rec, req)
			}
			busy[k] += time.Since(t0)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("overhead twin: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
	m["trace.overhead_frac"] = 1 - float64(busy[0])/float64(busy[1])
	return nil
}

// persistBatches is how many batches per session the persistence twins
// ingest.
const persistBatches = 24

// tracePersist measures the persistence path on the workload's sessions:
// a durable twin against an ephemeral one, the journal, group commit,
// fsync and snapshot primitives on the twin's real record bodies, and
// the warm restore of the twin's state and engine-cache dirs.
func tracePersist(ti traceInputs, dir string, m map[string]float64) error {
	sessions := ti.sessions[:1]
	nb := persistBatches
	if ti.w.ColdStart {
		sessions, nb = ti.sessions, ti.w.BatchesPerSession
	}
	stateD, cacheD, stateJ := filepath.Join(dir, "durable"), filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	td, err := newTwin(stateD, cacheD, 0)
	if err != nil {
		return err
	}
	te, err := newTwin("", "", 0)
	if err != nil {
		return err
	}
	defer te.close()
	// Snapshots off: this twin's journal keeps every record body.
	tj, err := newTwin(stateJ, "", 1<<30)
	if err != nil {
		return err
	}
	var durable, ephemeral time.Duration
	steps := 0
	for _, t := range []*twin{td, te, tj} {
		for _, in := range sessions {
			if _, err := t.create(in.cfg); err != nil {
				return err
			}
		}
	}
	for b := 0; b < nb; b++ {
		for i, in := range sessions {
			bi := &in.batches[b%len(in.batches)]
			key := ""
			if ti.w.Keyed {
				key = fmt.Sprintf("persist-%d-%d", i, b)
			}
			for _, t := range []*twin{td, te, tj} {
				sess, err := t.reg.Get(in.cfg.Name)
				if err != nil {
					return err
				}
				t0 := time.Now()
				if _, _, err := sess.CollectBatch(key, bi.steps); err != nil {
					return err
				}
				switch t {
				case td:
					durable += time.Since(t0)
				case te:
					ephemeral += time.Since(t0)
				}
			}
			steps += len(bi.eps)
		}
	}
	name := sessions[0].cfg.Name
	first, err := td.reg.Get(name)
	if err != nil {
		return err
	}
	var snaps []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if _, err := first.SnapshotNow(); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0)))
	}
	m["service.snapshot_now_ms"] = median(snaps)
	if err := td.close(); err != nil {
		return err
	}

	// The restore a restarted server performs, on the twin's dirs.
	store, err := persist.NewStore(stateD)
	if err != nil {
		return err
	}
	ec, err := enginecache.Open(cacheD)
	if err != nil {
		return err
	}
	reg := service.NewRegistry()
	reg.SetEngineCache(ec)
	if err := reg.SetJournalSync(service.JournalSyncGroup, 0); err != nil {
		return err
	}
	if err := reg.EnablePersistence(store, 0); err != nil {
		return err
	}
	t0 := time.Now()
	restored, failed := reg.RestoreAll()
	m["service.restore_all_ms"] = ms(time.Since(t0))
	if len(failed) > 0 || len(restored) != len(sessions) {
		return fmt.Errorf("restore twin: restored %d of %d: %v", len(restored), len(sessions), failed)
	}
	mc, es := reg.ModelCache().Stats(), ec.Stats()
	m["stream.model_compiles"], m["stream.model_hits"] = float64(mc.Misses), float64(mc.Hits)
	m["enginecache.hits"], m["enginecache.misses"] = float64(es.Hits), float64(es.Misses)
	if err := reg.Close(); err != nil {
		return err
	}
	version, snap, err := store.LoadSnapshot(name)
	if err != nil {
		return err
	}
	m["persist.snapshot_bytes"] = float64(len(snap))

	// Journal record bodies, read back through the replay path.
	storeJ, err := persist.NewStore(stateJ)
	if err != nil {
		return err
	}
	var bodies [][]byte
	var versions []uint32
	t0 = time.Now()
	res, err := storeJ.ReplayJournal(name, func(v uint32, body []byte) error {
		bodies = append(bodies, bytes.Clone(body))
		versions = append(versions, v)
		return nil
	})
	replay := time.Since(t0)
	if err != nil {
		return err
	}
	if len(bodies) == 0 {
		return fmt.Errorf("journal twin: no records replayed (%+v)", res)
	}
	// Closing takes a final snapshot and truncates the journal, so the
	// twin closes only once its records are read.
	if err := tj.close(); err != nil {
		return err
	}
	m["persist.replay_records_per_s"] = float64(len(bodies)) / replay.Seconds()
	recordBytes, recordSteps := 0, 0
	for _, b := range bodies {
		recordBytes += len(b)
	}
	for b := 0; b < nb; b++ {
		recordSteps += len(sessions[0].batches[b%len(sessions[0].batches)].eps)
	}
	m["persist.journal_bytes_per_step"] = float64(recordBytes) / float64(recordSteps)

	spare, err := persist.NewStore(filepath.Join(dir, "spare"))
	if err != nil {
		return err
	}
	j, err := spare.OpenJournal("append")
	if err != nil {
		return err
	}
	var appendNs, syncNs time.Duration
	for i, b := range bodies {
		t0 := time.Now()
		if err := j.Append(versions[i], b); err != nil {
			return err
		}
		appendNs += time.Since(t0)
		t0 = time.Now()
		if err := j.Sync(); err != nil {
			return err
		}
		syncNs += time.Since(t0)
	}
	j.Close()
	m["persist.journal_append_ns"] = float64(appendNs) / float64(len(bodies))
	m["persist.fsync_ns"] = float64(syncNs) / float64(len(bodies))

	// Group commit: two writers, each on its own journal, appending the
	// same record bodies through one committer.
	gc := persist.NewGroupCommitter(0)
	var wg sync.WaitGroup
	var gcNs [2]time.Duration
	var gcErr [2]error
	for wr := 0; wr < 2; wr++ {
		gj, err := spare.OpenJournal("group-" + strconv.Itoa(wr))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer gj.Close()
			for i, b := range bodies {
				t0 := time.Now()
				if err := gc.Append(gj, versions[i], b); err != nil {
					gcErr[wr] = err
					return
				}
				gcNs[wr] += time.Since(t0)
			}
		}()
	}
	wg.Wait()
	if err := gc.Close(); err != nil {
		return err
	}
	for _, err := range gcErr {
		if err != nil {
			return err
		}
	}
	groupNs := float64(gcNs[0]+gcNs[1]) / float64(2*len(bodies))
	m["persist.group_commit_ns"] = groupNs
	// The durable twin's extra cost over the ephemeral one, less the
	// commit it waits for once per batch: the journal record and
	// snapshot encoding the session does itself.
	batchesD := float64(nb * len(sessions))
	m["service.persist_self_ns_per_step"] = (float64(durable-ephemeral) - groupNs*batchesD) / float64(steps)

	var saves []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if err := spare.SaveSnapshot("snapshot", version, snap); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	m["persist.snapshot_save_ms"] = median(saves)
	return nil
}

// compileRuns is how many fresh compiles and creates are timed.
const compileRuns = 5

// traceCompile measures model compilation, session creation with a
// fresh model, engine evaluation and the engine cache.
func traceCompile(ti traceInputs, m map[string]float64) error {
	rng := rand.New(rand.NewSource(ti.seed + 1))
	var compiles []float64
	var last *core.Engine
	for k := 0; k < compileRuns; k++ {
		c, err := markov.UniformRandom(rng, 32)
		if err != nil {
			return err
		}
		t0 := time.Now()
		last = core.NewQuantifier(c).Engine()
		compiles = append(compiles, ms(time.Since(t0)))
	}
	m["core.compile_ms"] = median(compiles)
	st := last.Stats()
	m["core.engine_curves"], m["core.engine_frontier"] = float64(st.Curves), float64(st.Frontier)

	// Registry.Create into an empty registry, so every model compiles;
	// cold-start sessions get chains nobody has compiled before.
	var creates []float64
	for k := 0; k < compileRuns; k++ {
		cfg := ti.sessions[0].cfg
		if ti.w.ColdStart {
			fresh, err := coldInputs(ti.w, rng, 1000+k, 1)
			if err != nil {
				return err
			}
			cfg = fresh[0].cfg
		}
		sc, err := serviceConfig(cfg)
		if err != nil {
			return err
		}
		reg := service.NewRegistry()
		t0 := time.Now()
		if _, err := reg.Create(sc); err != nil {
			return err
		}
		creates = append(creates, ms(time.Since(t0)))
	}
	m["service.create_ms"] = median(creates)

	// Engine.Eval along the BPL recurrence of the workload's budgets,
	// and the engine cache on the same engines.
	in := &ti.sessions[0]
	var eps []float64
	for _, b := range in.batches {
		eps = append(eps, b.eps...)
	}
	qb, qf, err := quantifiers(in.cfg)
	if err != nil {
		return err
	}
	var engines []*core.Quantifier
	for _, q := range append(qb, qf...) {
		if q != nil {
			engines = append(engines, q)
		}
	}
	if len(engines) == 0 {
		return fmt.Errorf("workload %s has no correlated cohort", ti.w.Name)
	}
	evals := 0
	t0 := time.Now()
	for _, q := range engines {
		e := q.Engine()
		alpha := eps[0]
		for _, x := range eps[1:] {
			alpha = e.Eval(alpha).Log + x
		}
		evals += len(eps) - 1
	}
	m["core.eval_ns"] = float64(time.Since(t0)) / float64(evals)

	cache, err := enginecache.Open(filepath.Join(ti.workdir, fmt.Sprintf("enginecache-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache.Dir())
	var stores, loads []float64
	for _, q := range engines {
		t0 := time.Now()
		cache.Store(q.ContentHash(), q.Engine())
		stores = append(stores, ms(time.Since(t0)))
	}
	for _, q := range engines {
		t0 := time.Now()
		if _, ok := cache.Load(q.ContentHash(), q.N()); !ok {
			return fmt.Errorf("engine cache: stored engine did not load")
		}
		loads = append(loads, float64(time.Since(t0))/float64(time.Microsecond))
	}
	m["enginecache.store_ms"] = median(stores)
	m["enginecache.load_us"] = median(loads)
	return nil
}

// closureRow is one line of the layer-closure report.
type closureRow struct {
	layer  string
	nsStep float64
}

// closure lists each layer's per-step self time, outermost first.
func closure(ti traceInputs, m map[string]float64) []closureRow {
	cohorts := float64(len(ti.sessions[0].cfg.Cohorts))
	cpu := ti.e2e.endToEnd()["cpu_us_per_step"]
	return []closureRow{
		{"service.transport (e2e batch p50 - handler)", m["service.transport_ns_per_step"]},
		{"service.decode_respond (handler - session)", m["service.decode_respond_ns_per_step"]},
		{"service.session_self (session - stream)", m["service.session_collect_ns_per_step"] - m["stream.collect_ns_per_step"]},
		{"service.persist_self (durable - ephemeral twin)", m["service.persist_self_ns_per_step"]},
		{"stream.self (stream - core - mechanism)", m["stream.self_ns_per_step"]},
		{"mechanism.release", m["mechanism.release_ns_per_step"]},
		{"core.observe (all cohorts)", m["core.observe_ns"] * cohorts},
		{"server CPU outside the handler (cpu - handler)", cpu*1000 - m["service.handler_ns_per_step"]},
		{"cpu_us_per_step (server, untraced)", cpu * 1000},
	}
}
