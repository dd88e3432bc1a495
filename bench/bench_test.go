package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// serverBin is the tplserved binary the self-tests run against, built
// once by TestMain.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "tplserved")
	build := exec.Command("go", "build", "-o", serverBin, "repro/cmd/tplserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building tplserved:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// quickOptions is a one-second run of the named workload.
func quickOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, server: serverBin, workdir: t.TempDir()}
}

// benchmarkFile is the part of BENCHMARK.json this program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to this program:
// the same workloads with the same why, the same metrics and units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs)
	check("per_layer", bf.PerLayer, perLayerDefs)
}

// TestQuickRunEmitsEveryMetric runs every workload at quick size with
// tracing on: the untraced part must pass its output checks with no
// failed operation and yield every end-to-end metric, the traced part
// every per-layer metric, and the result line must parse.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := run(quickOptions(t, w.Name, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.st.failed != 0 {
				t.Errorf("correct=%v failed=%d of %d, checks %v", out.correct, out.st.failed, out.st.attempted, out.st.checks)
			}
			e2e := out.st.endToEnd()
			for _, m := range bf.EndToEnd {
				v, ok := e2e[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v), want a positive number", m.Name, v, ok)
				}
			}
			for _, m := range bf.PerLayer {
				if v, ok := out.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v)", m.Name, v, ok)
				}
			}
			var buf bytes.Buffer
			if err := out.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if len(res.Metrics) != len(bf.PerLayer) || res.Attempted < 1 {
				t.Errorf("result line has %d metrics (want %d), attempted %d", len(res.Metrics), len(bf.PerLayer), res.Attempted)
			}
		})
	}
}

// faultyProxy sits between the load generator and a real tplserved
// child and misbehaves on chosen step batches, counted from the child's
// boot.
type faultyProxy struct {
	backend atomic.Value // base URL of the current child
	batches atomic.Int64 // step batches forwarded to the current child
	fault   func(n int64, w http.ResponseWriter, r *http.Request, body []byte, forward func([]byte) (int, []byte)) bool
}

func (p *faultyProxy) endpoint(t *testing.T) func(*child) string {
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return func(c *child) string {
		p.backend.Store(c.base)
		p.batches.Store(0)
		return srv.URL
	}
}

func (p *faultyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	forward := func(body []byte) (int, []byte) {
		req, err := http.NewRequest(r.Method, p.backend.Load().(string)+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			return http.StatusBadGateway, []byte(err.Error())
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return http.StatusBadGateway, []byte(err.Error())
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/steps") {
		if p.fault(p.batches.Add(1), w, r, body, forward) {
			return
		}
	}
	code, out := forward(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(out)
}

// TestDroppedStepFailsTCheck: a server that acknowledges a batch but
// applies one step fewer must fail the T check.
func TestDroppedStepFailsTCheck(t *testing.T) {
	// The last set-up's warm-up ends at batch WarmBatches; the drop
	// lands inside the timed window after it.
	drop := int64(workloads[0].WarmBatches + 100)
	p := &faultyProxy{fault: func(n int64, w http.ResponseWriter, r *http.Request, body []byte, forward func([]byte) (int, []byte)) bool {
		if n != drop {
			return false
		}
		lines := bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		code, out := forward(bytes.Join(lines[:len(lines)-1], nil))
		var a ack
		if code != http.StatusOK || json.Unmarshal(out, &a) != nil {
			t.Errorf("forwarding the short batch: %d %s", code, out)
			return false
		}
		// Acknowledge the batch as if every step had landed.
		a.Count++
		a.LastT++
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a)
		return true
	}}
	out, err := run(quickOptions(t, "ingest-steady", 0), p.endpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	c := out.st.checks["t_equals_acked"]
	if out.correct || c == nil || c.fail == 0 {
		t.Fatalf("dropped step went unnoticed: correct=%v t check %+v", out.correct, c)
	}
}

// TestServiceUnavailableRaisesErrorRate: refused batches count as
// failed operations and lower success_rate, while the T check still
// holds (a refused batch is not acknowledged).
func TestServiceUnavailableRaisesErrorRate(t *testing.T) {
	p := &faultyProxy{fault: func(n int64, w http.ResponseWriter, r *http.Request, body []byte, forward func([]byte) (int, []byte)) bool {
		if n%5 != 0 {
			return false
		}
		w.Header().Set("Content-Type", "application/problem+json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"type":"about:blank","title":"Service Unavailable","status":503}`))
		return true
	}}
	out, err := run(quickOptions(t, "ingest-steady", 0), p.endpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	rate := out.metrics["success_rate"]
	if out.st.failed == 0 || rate >= 1 || rate <= 0 {
		t.Fatalf("503s went uncounted: failed=%d of %d, success_rate=%v", out.st.failed, out.st.attempted, rate)
	}
	if !out.correct {
		t.Fatalf("refusals broke the output checks: %v", out.st.checks)
	}
	if p50, p90 := out.metrics["batch_p50_ms"], out.metrics["batch_p90_ms"]; p90 < failedMS || p50 >= failedMS {
		t.Errorf("a failure must miss every latency limit: p50=%v p90=%v with 1 in 5 batches refused", p50, p90)
	}
}

// TestAtZeroSteal: rounds on a curve value = 10*exp(2*steal) give 10,
// one outlier round does not move it, and rounds that all read the
// same steal give their median.
func TestAtZeroSteal(t *testing.T) {
	var curve []sample
	for _, x := range []float64{0.05, 0.10, 0.20, 0.30, 0.15} {
		curve = append(curve, sample{x, 10 * math.Exp(2*x)})
	}
	curve = append(curve, sample{0.25, 60})
	if got := atZeroSteal(curve); math.Abs(got-10) > 1e-9 {
		t.Errorf("10*exp(2*steal) with one outlier: got %v, want 10", got)
	}
	flat := []sample{{0, 3}, {0, 1}, {0, 2}}
	if got := atZeroSteal(flat); math.Abs(got-2) > 1e-12 {
		t.Errorf("equal steal: got %v, want the median 2", got)
	}
}
