package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/tpl/client"
)

// conn is one client connection: its own transport holding at most one
// TCP connection, so a workload's connection count is exactly the
// number of conns it uses.
type conn struct {
	hc      *http.Client
	sdk     *client.Client // control calls (create, delete, summary, report, health)
	sdkBase string
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// close drops the idle connection (the server it pointed at may be
// gone after a restart).
func (c *conn) close() { c.hc.CloseIdleConnections() }

// ack is the minimal batch acknowledgement (Prefer: return=minimal).
type ack struct {
	Count  int `json:"count"`
	FirstT int `json:"first_t"`
	LastT  int `json:"last_t"`
}

// stepsTarget posts pre-encoded NDJSON batches to one session. The URL
// and the fixed headers are built once, outside any timed window.
type stepsTarget struct {
	u      *url.URL
	header http.Header
	keyed  bool
	prefix string
	n      int
}

func newStepsTarget(base, session string, keyed bool) (*stepsTarget, error) {
	u, err := url.Parse(base + "/v2/sessions/" + url.PathEscape(session) + "/steps")
	if err != nil {
		return nil, err
	}
	h := http.Header{"Content-Type": {"application/x-ndjson"}, "Prefer": {"return=minimal"}}
	return &stepsTarget{u: u, header: h, keyed: keyed, prefix: session + "-"}, nil
}

// post sends one batch and checks that the acknowledgement covers
// exactly the steps sent, starting right after wantT.
func (c *conn) post(t *stepsTarget, body []byte, steps, wantT int) error {
	h := t.header
	if t.keyed {
		t.n++
		h = h.Clone()
		h.Set("Idempotency-Key", fmt.Sprintf("%s%d", t.prefix, t.n))
	}
	req := &http.Request{
		Method: http.MethodPost, URL: t.u, Host: t.u.Host, Header: h,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", t.u.Path, resp.Status, bytes.TrimSpace(out))
	}
	var a ack
	if err := json.Unmarshal(out, &a); err != nil {
		return fmt.Errorf("POST %s: decoding ack: %w", t.u.Path, err)
	}
	if a.Count != steps || a.FirstT != wantT+1 || a.LastT != wantT+steps {
		return fmt.Errorf("POST %s: ack %+v for %d steps after t=%d", t.u.Path, a, steps, wantT)
	}
	return nil
}

// api returns the SDK client for base over this connection. Retries
// are off: a failed operation must count as failed, not be retried
// away.
func (c *conn) api(base string) *client.Client {
	if c.sdk == nil || c.sdkBase != base {
		sdk, err := client.New(base, client.WithHTTPClient(c.hc), client.WithRetries(0))
		if err != nil {
			panic(err) // the runner builds every base from a listen address
		}
		c.sdk, c.sdkBase = sdk, base
	}
	return c.sdk
}

// create registers a session, discarding its summary.
func (c *conn) create(base string, cfg client.SessionConfig) error {
	_, err := c.api(base).CreateSession(context.Background(), cfg)
	return err
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
