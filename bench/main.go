// Command bench is the repository benchmark. It runs one workload
// against a real tplserved child process (so CPU, memory and bytes
// written are the server's alone), checks the server's outputs, and
// prints every metric by name with its unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays the same seeded inputs in-process through each
// layer's public entry points and reports the per-layer metrics
// instead, plus a layer-closure table.
//
// bench/run.sh builds the server and this program from the checkout and
// runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	workdir  string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the server sees, reported on
// every workload.
var endToEndDefs = []metricDef{
	{"steps_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
	{"cpu_us_per_step", "us"},
	{"report_p50_ms", "ms"},
	{"report_p90_ms", "ms"},
	{"written_bytes_per_step", "B"},
	{"create_p50_ms", "ms"},
	{"create_p90_ms", "ms"},
	{"restore_s", "s"},
	{"server_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"success_rate", "ratio"},
}

// perLayerDefs are the traced run's metrics, one layer each.
var perLayerDefs = []metricDef{
	{"loadgen.batch_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"service.handler_ns_per_step", "ns"},
	{"service.session_collect_ns_per_step", "ns"},
	{"service.decode_respond_ns_per_step", "ns"},
	{"service.transport_ns_per_step", "ns"},
	{"service.persist_self_ns_per_step", "ns"},
	{"service.snapshot_now_ms", "ms"},
	{"service.create_ms", "ms"},
	{"service.restore_all_ms", "ms"},
	{"stream.collect_ns_per_step", "ns"},
	{"stream.self_ns_per_step", "ns"},
	{"stream.report_ms", "ms"},
	{"stream.model_compiles", "count"},
	{"stream.model_hits", "count"},
	{"mechanism.release_ns_per_step", "ns"},
	{"core.observe_ns", "ns"},
	{"core.eval_ns", "ns"},
	{"core.maxtpl_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.engine_curves", "count"},
	{"core.engine_frontier", "count"},
	{"persist.journal_append_ns", "ns"},
	{"persist.group_commit_ns", "ns"},
	{"persist.fsync_ns", "ns"},
	{"persist.snapshot_save_ms", "ms"},
	{"persist.journal_bytes_per_step", "B"},
	{"persist.snapshot_bytes", "B"},
	{"persist.replay_records_per_s", "1/s"},
	{"enginecache.load_us", "us"},
	{"enginecache.store_ms", "ms"},
	{"enginecache.hits", "count"},
	{"enginecache.misses", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run (ingest-steady, ingest-adaptive, ingest-durable or cold-start)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&opt.trace, "trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	flag.StringVar(&opt.server, "server", "", "path to the tplserved binary under test")
	flag.StringVar(&opt.workdir, "workdir", "", "work directory for state dirs and span files")
	flag.Parse()
	// The load generator leaves the server its CPUs' worth of threads
	// and never uses more than two itself.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	out, err := run(opt, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outcome is one run's full report.
type outcome struct {
	w       *workload
	opt     options
	fp      fingerprint
	st      *e2eStats
	metrics map[string]float64
	defs    []metricDef
	closure []closureRow
	correct bool
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave other guests during the untraced run: when it is high, wall
	// clock metrics read slow for reasons outside the program.
	stealShare float64
}

// requiredChecks are the output checks each workload must run and pass.
func requiredChecks(w *workload) []string {
	switch {
	case w.ColdStart:
		return []string{"restored_t_equals_acked", "warm_start_no_recompile"}
	case w.Durable:
		return []string{"t_equals_acked", "restored_t_equals_acked"}
	case len(w.Budgets) > 1:
		return []string{"t_equals_acked", "alpha_equals_oracle"}
	default:
		return []string{"t_equals_acked"}
	}
}

// run executes one workload; endpoint, when non-nil, maps each server
// child to the URL the clients use.
func run(opt options, endpoint func(*child) string) (*outcome, error) {
	if opt.server == "" || opt.workdir == "" {
		return nil, errors.New("-server and -workdir are required (bench/run.sh sets both)")
	}
	if opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) {
		return nil, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1, got %d and %d", opt.seconds, opt.trace)
	}
	w, err := workloadByName(opt.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	r := newRunner(opt, w)
	r.endpoint = endpoint
	defer r.close()
	steal := startSteal()
	var in []sessionInput
	if w.ColdStart {
		in, err = r.runColdStart()
	} else {
		in, err = r.runIngest()
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{w: w, opt: opt, fp: machineFingerprint(), st: &r.st, metrics: r.st.endToEnd(), defs: endToEndDefs, correct: true}
	out.stealShare = steal.share()
	for _, name := range requiredChecks(w) {
		if c := r.st.checks[name]; c == nil || c.pass == 0 {
			out.correct = false
		}
	}
	for _, c := range r.st.checks {
		if c.fail > 0 {
			out.correct = false
		}
	}
	if opt.trace == 1 {
		out.metrics, out.closure, err = traceRun(traceInputs{w: w, sessions: in, seed: opt.seed, seconds: opt.seconds, workdir: opt.workdir, e2e: &r.st})
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		out.defs = perLayerDefs
	}
	return out, nil
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and then the result line.
func (o *outcome) print(w io.Writer) error {
	fp, err := json.Marshal(o.fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d\n", o.w.Name, o.opt.seed, o.opt.seconds, o.opt.trace)
	fmt.Fprintf(w, "machine steal_share=%.4f\n", o.stealShare)
	fmt.Fprintf(w, "setup_s %.4f\n", o.st.setupS)
	var rounds, batches, reports, creates, restores int
	for _, u := range o.st.fullUnits() {
		rounds++
		batches += len(u.batchMS)
		reports += len(u.reportMS)
		creates += len(u.createMS)
		restores += len(u.restoreS)
	}
	fmt.Fprintf(w, "samples rounds=%d batches=%d reports=%d creates=%d restarts=%d\n", rounds, batches, reports, creates, restores)
	raw := o.st.rawMedians()
	fmt.Fprintf(w, "raw medians over rounds, before the zero-steal estimate:")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, " %s=%.6g", d.name, raw[d.name])
	}
	fmt.Fprintln(w)
	for i, u := range o.st.units {
		fmt.Fprintf(w, "unit %d full=%v dur=%.3fs steps=%d rate=%.0f cpu_us=%.3f p50=%.3f p90=%.3f steal=%.3f probe_steal=%.3f\n", i, u.full, u.dur.Seconds(), u.steps, float64(u.steps)/u.dur.Seconds(), float64(u.cpu.Microseconds())/float64(max(u.steps, 1)), quantile(u.batchMS, .5), quantile(u.batchMS, .9), u.steal, u.probeSteal)
	}
	var names []string
	for name := range o.st.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := o.st.checks[name]
		fmt.Fprintf(w, "check %s pass=%d fail=%d %s\n", name, c.pass, c.fail, c.detail)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d error_rate=%g\n", o.st.attempted, o.st.failed, float64(o.st.failed)/float64(max(o.st.attempted, 1)))
	res := result{Correct: o.correct, Attempted: o.st.attempted, Failed: o.st.failed, Metrics: map[string]metricValue{}}
	for _, d := range o.defs {
		v := o.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-38s %16.6g %s\n", d.name, v, d.unit)
	}
	if len(o.closure) > 0 {
		fmt.Fprintf(w, "closure %s: per-step self time by layer (ns/step); a negative self time means the\n", o.w.Name)
		fmt.Fprintf(w, "closure layer's children, measured in isolation, took longer than it (stream runs cohorts in parallel)\n")
		for _, row := range o.closure {
			fmt.Fprintf(w, "closure   %-45s %12.1f\n", row.layer, row.nsStep)
		}
		fmt.Fprintf(w, "closure   %-45s %12.4f\n", "trace.unattributed_frac", o.metrics["trace.unattributed_frac"])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fingerprint identifies the machine a result was measured on, so
// results from different machines are never compared.
type fingerprint struct {
	CPUModel          string `json:"cpu_model"`
	NProc             int    `json:"nproc"`
	LoadgenGOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	ServerGOMAXPROCS  int    `json:"server_gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: serverProcs,
		GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}
