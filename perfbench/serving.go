package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mcastclient"
	"repro/internal/serve"
	"repro/internal/tiers"
)

// Request tagging for the traced run: the client span's id and the
// request id travel in headers, so the wrapping handler can parent its
// span under the client call that caused it.
const (
	headerReq  = "X-Perfbench-Req"
	headerSpan = "X-Perfbench-Span"
)

// requestTimeout bounds every benchmark request, so a stalled server
// fails the run instead of hanging it.
const requestTimeout = 30 * time.Second

type tagKey struct{}

type tag struct {
	req  int64
	span int
}

// taggingTransport copies the request's tag from its context into
// headers; mcastclient passes the caller's context through, so this is
// the one place the benchmark can attach per-request metadata.
type taggingTransport struct{ base http.RoundTripper }

func (t taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tg, ok := r.Context().Value(tagKey{}).(tag); ok {
		r = r.Clone(r.Context())
		r.Header.Set(headerReq, strconv.FormatInt(tg.req, 10))
		r.Header.Set(headerSpan, strconv.Itoa(tg.span))
	}
	return t.base.RoundTrip(r)
}

// timedHandler wraps Server.ServeHTTP and records a span for every
// tagged plan and patch request it serves.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	var name string
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/plan":
		name = "serve.plan"
	case r.Method == http.MethodPatch:
		name = "serve.patch"
	default:
		return
	}
	req, err := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
	if err != nil {
		return // an untagged (untraced) request
	}
	parent, err := strconv.Atoi(r.Header.Get(headerSpan))
	if err != nil {
		parent = -1
	}
	h.tr.record(name, start, end, parent, req)
}

// harness is one in-process mcastd with the default serve.Config on a
// loopback listener, and the benchmark's client: conns connections in
// total, mcastclient with no retry policy (a 429 is counted, never
// retried away).
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *mcastclient.Client
	trace  atomic.Pointer[tracer] // nil while untraced
	nextID atomic.Int64
}

func newHarness(conns int, trace *tracer) *harness {
	srv := serve.New(serve.Config{})
	var handler http.Handler = srv
	if trace != nil {
		handler = timedHandler{next: srv, tr: trace}
	}
	ts := httptest.NewServer(handler)
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	var rt http.RoundTripper = tr
	if trace != nil {
		rt = taggingTransport{base: tr}
	}
	h := &harness{
		srv:    srv,
		ts:     ts,
		tr:     tr,
		client: mcastclient.New(ts.URL, &http.Client{Transport: rt}),
	}
	h.trace.Store(trace)
	return h
}

func (h *harness) close() {
	h.tr.CloseIdleConnections()
	h.ts.Close()
}

// call is one timed client call: it opens the client span (traced run),
// tags the context and records when the transport handed the request a
// connection.
type call struct {
	req     int64
	ctx     context.Context
	cancel  context.CancelFunc
	tr      *tracer // nil when this call is untraced
	span    int
	gotConn time.Time
}

func (h *harness) begin(name string) *call {
	req := h.nextID.Add(1)
	c := &call{req: req, tr: h.trace.Load()}
	c.span = c.tr.begin(name, -1, req)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	if c.tr != nil {
		ctx = context.WithValue(ctx, tagKey{}, tag{req: req, span: c.span})
	}
	c.ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { c.gotConn = time.Now() },
	})
	c.cancel = cancel
	return c
}

func (c *call) end() {
	c.tr.end(c.span)
	c.cancel()
}

// upload registers a generated platform under id.
func (h *harness) upload(id string, pl *tiers.Platform) (*serve.UploadResponse, error) {
	c := h.begin("client.upload")
	defer c.end()
	return h.client.UploadPlatform(c.ctx, &serve.UploadRequest{
		ID:       id,
		Platform: pl.G.String(),
		Source:   pl.G.Name(pl.Source),
	})
}

func (h *harness) stats() (*serve.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return h.client.Stats(ctx)
}

// outcome is one open-loop request: when it was due, when the generator
// sent it, when it got a connection and when its response was read.
type outcome struct {
	item                  int
	due, sent, conn, done time.Time
	err                   error
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// openLoop fires the schedule on time whatever the responses do: each
// arrival is sent at its due time from its own goroutine (the
// transport's connection limit queues the excess), and do performs the
// request, filling conn, done and err.
func openLoop(sched []arrival, do func(o *outcome)) []outcome {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &outs[i]
		o.item, o.due, o.sent = a.Item, due, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(o)
		}()
	}
	wg.Wait()
	return outs
}

// capacityWindow is the slice of a closed-loop phase whose completion
// rate is one capacity sample; the phase reports the median window, so
// a burst of outside load skews one sample rather than the result.
const capacityWindow = 500 * time.Millisecond

// closedLoop runs workers that each issue their next request as soon as
// the previous one completes, until d has passed. It returns the median
// over capacityWindow windows of successful requests per second, and
// the outcome counts.
func closedLoop(workers int, d time.Duration, do func(worker int) error) (rate float64, ok, failed int) {
	windows := make([]atomic.Int64, max(1, int(d/capacityWindow)))
	var failN atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(len(windows)) * capacityWindow)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := do(w)
				if err != nil {
					failN.Add(1)
					continue
				}
				if k := int(time.Since(start) / capacityWindow); k < len(windows) {
					windows[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, len(windows))
	total := 0
	for i := range windows {
		n := int(windows[i].Load())
		total += n
		rates[i] = float64(n) / capacityWindow.Seconds()
	}
	return median(rates), total, int(failN.Load())
}

// openStats is an open-loop phase's latency, lateness and
// connection-wait samples, with its failures.
type openStats struct {
	lat, late, connWait sample
	failed              int
	shed                int
	firstErr            error
}

func foldOpen(outs []outcome) openStats {
	var s openStats
	for _, o := range outs {
		s.late.addDur(o.sent.Sub(o.due))
		if !o.conn.IsZero() {
			s.connWait.addDur(o.conn.Sub(o.sent))
		}
		if o.err != nil {
			s.failed++
			if mcastclient.IsCode(o.err, serve.CodeSaturated) {
				s.shed++
			}
			if s.firstErr == nil {
				s.firstErr = o.err
			}
			continue
		}
		s.lat.addDur(o.latency())
	}
	return s
}

// latencyMetrics adds p50_ms for an open-loop phase and prints the
// tail. The tail is not an end-to-end metric: on a shared 2-core
// machine the IQR/median over ten seeds of p99 reached 0.25 (plan-cold)
// and 0.32 (plan-live), and of p90 0.33 (plan-cold), beyond the largest
// allowed bound. The traced run reports both as client.latency_ms_*.
func latencyMetrics(res *result, s openStats, what string) {
	n := len(s.lat)
	res.add("p50_ms", "ms", s.lat.pct(50), fmt.Sprintf("n=%d %s, from due time", n, what))
	fmt.Printf("  latency p90 %.4g ms, p99 %.4g ms (n=%d; the ten-samples-beyond rule allows p%g)\n",
		s.lat.pct(90), s.lat.pct(99), n, tailPercentile(n))
}

// tailMetrics reports a traced phase's client latency tail.
func tailMetrics(res *result, s openStats) {
	n := fmt.Sprintf("n=%d, from due time", len(s.lat))
	res.add("client.latency_ms_p90", "ms", s.lat.pct(90), n)
	res.add("client.latency_ms_p99", "ms", s.lat.pct(99), n)
}

// statsDelta is a pair of /v1/stats snapshots around a phase.
type statsDelta struct {
	before, after *serve.StatsResponse
}

func (d statsDelta) shardImbalance() float64 {
	var total, hi float64
	for i, v := range d.after.ShardServed {
		x := float64(v)
		if i < len(d.before.ShardServed) {
			x -= float64(d.before.ShardServed[i])
		}
		total += x
		hi = max(hi, x)
	}
	return ratio(hi, total/float64(len(d.after.ShardServed)))
}

// addServeMetrics reports the serving-layer counters of a traced phase.
func addServeMetrics(res *result, d statsDelta, requests int) {
	b, a := d.before, d.after
	solver := a.Solver.Delta(b.Solver)
	res.add("serve.shard_imbalance", "ratio", d.shardImbalance(), "max / mean of shard_served")
	res.add("serve.limiter_queued", "count", float64(a.Resilience.Limiter.Queued-b.Resilience.Limiter.Queued), "")
	res.add("serve.shed", "count", float64(a.Resilience.Limiter.Shed-b.Resilience.Limiter.Shed), "")
	res.add("serve.coalesced", "count", float64(a.Coalesced-b.Coalesced), "")
	res.add("serve.simplex_iters_per_req", "count", ratio(float64(solver.Iterations+solver.DualIters), float64(requests)),
		fmt.Sprintf("%d requests", requests))
	hits := float64(a.PlanCache.Hits - b.PlanCache.Hits)
	misses := float64(a.PlanCache.Misses - b.PlanCache.Misses)
	res.add("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	addSolverMetrics(res, solver, "/v1/stats delta")
}

// checkNoFastPath fails the run if any plan took the tree fast path:
// Tiers platforms are not trees, so the LP path must be what is timed.
func checkNoFastPath(res *result, d statsDelta) {
	if hits := d.after.Solver.FastPathHits - d.before.Solver.FastPathHits; hits != 0 {
		res.problem("%d tree fast-path hits on a Tiers platform", hits)
	}
}
