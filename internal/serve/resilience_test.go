package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/tiers"
)

// solveGate is the stall choreography for admission and deadline
// tests: installed as the SolveEnter hook, it signals entered and then
// blocks the solve until release is closed (or the request's context
// expires, which it reports as the context's error — exactly what a
// wedged solver under a deadline looks like).
type solveGate struct {
	entered chan struct{}
	release chan struct{}
}

func newSolveGate() *solveGate {
	return &solveGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *solveGate) hook(ctx context.Context) error {
	g.entered <- struct{}{}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// waitUntil polls cond to true within a generous deadline (choreography
// only — nothing here times the code under test).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func planReq(targets []string, mut func(*PlanRequest)) PlanRequest {
	req := PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: targets}}
	if mut != nil {
		mut(&req)
	}
	return req
}

func TestDeadlineTimeoutMs(t *testing.T) {
	gate := newSolveGate() // never released: the solver is wedged
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, func(r *PlanRequest) {
		r.TimeoutMillis = 20
	}))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("wedged solve under timeout_ms: got %d %s, want 503", w.Code, w.Body.String())
	}
	if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeDeadline {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeDeadline)
	}
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Resilience.Deadlines != 1 {
		t.Errorf("stats deadlines = %d, want 1", st.Resilience.Deadlines)
	}
}

func TestDeadlineServerDefault(t *testing.T) {
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1, DefaultTimeout: 20 * time.Millisecond})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("wedged solve under default timeout: got %d %s, want 503", w.Code, w.Body.String())
	}
	if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeDeadline {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeDeadline)
	}
}

// TestDeadlineCancelsMidSolve drives a real (unstalled) solve that
// takes tens of milliseconds — the broadcast bound's LP on a generated
// platform — under a timeout_ms a fraction of that, and requires the
// 503 to come back well before a full solve could have finished: the
// simplex observed the stop flag mid-iteration instead of running the
// budget-blown solve to completion.
func TestDeadlineCancelsMidSolve(t *testing.T) {
	pl, err := tiers.Generate(tiers.Big(1))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "big", Platform: text.String(), Source: pl.G.Name(pl.Source)})
	targets := pl.RandomTargets(exp.NewRNG(5, 0), 0.5)
	names := make([]string, len(targets))
	for i, id := range targets {
		names[i] = pl.G.Name(id)
	}
	spec := PlanSpec{
		PlatformID: "big", Targets: names,
		Bounds:     []string{BoundScatter, BoundLB, BoundBroadcast},
		Heuristics: []string{},
	}

	// Reference: how long the full solve takes on this machine. Run it
	// twice and keep the warm measurement — the first pays one-time
	// allocator and page-fault costs that would inflate the budget.
	full := time.Duration(1 << 62)
	for i := 0; i < 2; i++ {
		start := time.Now()
		if w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true}); w.Code != http.StatusOK {
			t.Fatalf("reference solve: %d %s", w.Code, w.Body.String())
		}
		if d := time.Since(start); d < full {
			full = d
		}
	}
	timeout := full / 4
	if timeout < 2*time.Millisecond {
		t.Skipf("full solve too fast to time a cancellation (%s)", full)
	}

	start := time.Now()
	w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{
		PlanSpec: spec, NoCache: true, TimeoutMillis: timeout.Milliseconds(),
	})
	elapsed := time.Since(start)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out solve: got %d %s, want 503", w.Code, w.Body.String())
	}
	if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeDeadline {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeDeadline)
	}
	if elapsed >= full {
		t.Errorf("canceled solve took %s, full solve only %s — cancellation not observed mid-solve", elapsed, full)
	}

	// The interrupted solve left no poisoned state: the same spec solves
	// cleanly, byte-identical to the reference body... which is the
	// cached body from the reference request.
	w2 := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-cancel solve: %d %s", w2.Code, w2.Body.String())
	}
	if wc := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec}); !bytes.Equal(w2.Body.Bytes(), wc.Body.Bytes()) {
		t.Error("post-cancel recompute diverged from the cached pre-cancel body")
	}
}

func TestLimiterShedsAndReadyz(t *testing.T) {
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1, MaxQueue: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	// Leader: occupies the single compute slot, wedged on the gate.
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() {
		results <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, func(r *PlanRequest) { r.NoCache = true }))
	}()
	<-gate.entered

	// Second request: fills the single queue seat.
	go func() {
		results <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t2"}, func(r *PlanRequest) { r.NoCache = true }))
	}()
	waitUntil(t, "one queued admission", func() bool { return s.pool.limiterStats().Queued == 1 })

	// Slot busy, queue full: the next compute is shed.
	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1", "t2"}, func(r *PlanRequest) { r.NoCache = true }))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: got %d %s, want 429", w.Code, w.Body.String())
	}
	if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeSaturated {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeSaturated)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// Saturation is a readiness signal, not a liveness one.
	if w := doJSON(t, s, http.MethodGet, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated: got %d, want 503", w.Code)
	} else if body := decodeJSON[map[string]any](t, w); body["reason"] != "saturated" {
		t.Errorf("readyz reason %v, want saturated", body["reason"])
	}
	if w := doJSON(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz while saturated: got %d, want 200", w.Code)
	}

	// Releasing the gate drains the slot and the queue: both admitted
	// requests finish as ordinary 200s.
	close(gate.release)
	for i := 0; i < 2; i++ {
		if rw := <-results; rw.Code != http.StatusOK {
			t.Errorf("admitted request %d: got %d %s, want 200", i, rw.Code, rw.Body.String())
		}
	}
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Resilience.Limiter.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", st.Resilience.Limiter.Shed)
	}
	if w := doJSON(t, s, http.MethodGet, "/readyz", nil); w.Code != http.StatusOK {
		t.Errorf("readyz after drain of the queue: got %d, want 200", w.Code)
	}
}

// saturate wedges s's single compute slot and fills its single queue
// seat (requires Config{Shards: 1, MaxQueue: 1} and an
// installed gate hook). It returns a drain func that releases the gate
// and waits for both parked requests.
func saturate(t *testing.T, s *Server, gate *solveGate) func() {
	t.Helper()
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() {
		results <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"r1"}, func(r *PlanRequest) { r.NoCache = true }))
	}()
	<-gate.entered
	go func() {
		results <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"r2"}, func(r *PlanRequest) { r.NoCache = true }))
	}()
	waitUntil(t, "one queued admission", func() bool { return s.pool.limiterStats().Queued == 1 })
	return func() {
		close(gate.release)
		for i := 0; i < 2; i++ {
			if rw := <-results; rw.Code != http.StatusOK {
				t.Errorf("parked request %d: got %d %s, want 200", i, rw.Code, rw.Body.String())
			}
		}
	}
}

// occupyText gives the saturating requests their own platform ("d"
// with relay targets r1, r2) so the degraded tests' specs stay
// cache-cold until the test itself warms them.
const occupyText = `
node S
edge S r1 1
edge S r2 1
edge r1 t1 1
edge r2 t1 1
`

func TestDegradedCacheFallback(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, MaxQueue: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: occupyText, Source: "S"})

	// Warm the exact spec before the hooks go in.
	spec := PlanSpec{PlatformID: "d", Targets: []string{"t1"}}
	warm := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec})
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", warm.Code, warm.Body.String())
	}

	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)
	drain := saturate(t, s, gate)

	// Degraded opt-in: shed, then answered from the plan cache with the
	// exact bytes the full-fidelity request produced.
	w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true, Degraded: true})
	if w.Code != http.StatusOK {
		t.Fatalf("degraded request under saturation: got %d %s, want 200", w.Code, w.Body.String())
	}
	if got := w.Header().Get(HeaderDegraded); got != "cache" {
		t.Errorf("%s = %q, want cache", HeaderDegraded, got)
	}
	if !bytes.Equal(w.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("degraded-cache body differs from the full-fidelity cached body")
	}

	// Without the opt-in the same shed is a hard 429 — degradation never
	// happens to a caller that did not ask for it.
	w = doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true})
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("non-degraded shed: got %d, want 429", w.Code)
	}
	if w.Header().Get(HeaderDegraded) != "" {
		t.Error("429 carries a degraded header")
	}

	drain()
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Resilience.Degraded != 1 {
		t.Errorf("stats degraded = %d, want 1", st.Resilience.Degraded)
	}
}

func TestDegradedTreeFallback(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, MaxQueue: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: occupyText, Source: "S"})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "tree", Platform: treeText, Source: "S"})

	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)
	drain := saturate(t, s, gate)

	// The tree spec was never computed, so the cache fallback misses —
	// but the platform is a tree, so the combinatorial bounds-only path
	// answers without touching the saturated evaluator pool.
	spec := PlanSpec{PlatformID: "tree", Targets: []string{"c", "d"}, Heuristics: []string{}}
	w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, Degraded: true})
	if w.Code != http.StatusOK {
		t.Fatalf("degraded tree request: got %d %s, want 200", w.Code, w.Body.String())
	}
	if got := w.Header().Get(HeaderDegraded); got != "tree" {
		t.Errorf("%s = %q, want tree", HeaderDegraded, got)
	}
	degradedBody := append([]byte(nil), w.Body.Bytes()...)

	// A non-tree spec with no cached answer has no fallback left: the
	// saturation verdict stands even for a degraded caller.
	w = doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{
		PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"r1", "r2"}}, NoCache: true, Degraded: true,
	})
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("degraded non-tree uncached: got %d, want 429", w.Code)
	}

	drain()
	// The degraded tree body is the same pure function of the spec as
	// the full serving path computes for it (bounds only, no
	// heuristics): byte-identical to the unsaturated answer.
	w = doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true})
	if w.Code != http.StatusOK {
		t.Fatalf("full-fidelity tree solve: %d %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(degradedBody, w.Body.Bytes()) {
		t.Errorf("degraded-tree body diverged from the full serving path:\n%s\nvs\n%s", degradedBody, w.Body.Bytes())
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	faultinject.Set(&faultinject.Hooks{HandlerEnter: func(route string) {
		if route == "POST /v1/plan" {
			panic("chaos: handler bug")
		}
	}})
	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: got %d, want 500", w.Code)
	}
	if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeInternal {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeInternal)
	}

	// The daemon survived: liveness holds and the same request succeeds
	// once the fault is gone.
	faultinject.Set(nil)
	if w := doJSON(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after panic: %d", w.Code)
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil)); w.Code != http.StatusOK {
		t.Errorf("plan after panic: got %d %s, want 200", w.Code, w.Body.String())
	}
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Resilience.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", st.Resilience.Panics)
	}
}

// TestSolvePanicSharedWithFollowers pins the flight-leadership guard: a
// compute that panics (here via the SolveEnter hook, which runs inside
// the leadership, on the held evaluator) must surface as a
// 500/internal to the leader AND to any coalesced follower — never as
// a follower's empty 200 from a nil/nil flight slot.
func TestSolvePanicSharedWithFollowers(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	faultinject.Set(&faultinject.Hooks{SolveEnter: func(ctx context.Context) error {
		entered <- struct{}{}
		<-release
		panic("chaos: solve bug")
	}})
	defer faultinject.Set(nil)

	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		leader <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	}()
	<-entered
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		follower <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	}()
	waitUntil(t, "a coalesced follower", func() bool { return s.flight.coalescedCount() == 1 })
	close(release)

	for name, ch := range map[string]chan *httptest.ResponseRecorder{"leader": leader, "follower": follower} {
		w := <-ch
		if w.Code != http.StatusInternalServerError {
			t.Errorf("%s: got %d %q, want 500", name, w.Code, w.Body.String())
			continue
		}
		if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeInternal {
			t.Errorf("%s error code %q, want %q", name, env.Error.Code, CodeInternal)
		}
	}
}

func TestInjectedSolveError(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	faultinject.Set(&faultinject.Hooks{SolveEnter: func(ctx context.Context) error {
		return errors.New("chaos: solver exploded")
	}})
	defer faultinject.Set(nil)

	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("failing solve: got %d, want 500", w.Code)
	}
	env := decodeJSON[ErrorEnvelope](t, w)
	if env.Error.Code != CodeInternal || !strings.Contains(env.Error.Message, "solver exploded") {
		t.Errorf("unexpected envelope: %+v", env)
	}
	// Failures are never cached: the same spec succeeds after the fault.
	faultinject.Set(nil)
	if w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil)); w.Code != http.StatusOK {
		t.Errorf("plan after fault cleared: got %d %s, want 200", w.Code, w.Body.String())
	}
}

func TestReadyzDrain(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if w := doJSON(t, s, http.MethodGet, "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("fresh readyz: %d", w.Code)
	}
	s.Drain(context.Background())
	w := doJSON(t, s, http.MethodGet, "/readyz", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: got %d, want 503", w.Code)
	}
	if body := decodeJSON[map[string]any](t, w); body["reason"] != "draining" {
		t.Errorf("readyz reason %v, want draining", body["reason"])
	}
	if w := doJSON(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz while draining: got %d, want 200 (liveness is not readiness)", w.Code)
	}
}

// TestDrainRacesSubscriberAndBatch is the shutdown regression test: a
// drain that starts while a subscriber holds a live stream open and a
// batch is mid-flight must (1) close the stream with the final
// terminator line, (2) let the batch finish normally, and (3) give a
// subscriber arriving during the drain an immediate final line instead
// of a stream that would outlive the shutdown.
func TestDrainRacesSubscriberAndBatch(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	// Subscriber: read the version-1 plan line, then hold the stream.
	sub, err := client.Get(ts.URL + "/v1/platforms/d/subscribe?targets=t1,t2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %d", sub.StatusCode)
	}
	sc := bufio.NewScanner(sub.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("no first subscribe line: %v", sc.Err())
	}
	var first SubscribeLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Version != 1 || first.Final {
		t.Fatalf("unexpected first line %q (err %v)", sc.Bytes(), err)
	}

	// Batch: wedge its first item on the gate so it is provably
	// mid-flight when the drain starts.
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)
	batchBody, _ := json.Marshal(BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d"},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"t2"}}},
		},
		NoCache: true,
	})
	batchDone := make(chan []byte, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/v1/plan:batch", "application/json", bytes.NewReader(batchBody))
		if err != nil {
			batchDone <- nil
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		batchDone <- buf.Bytes()
	}()
	<-gate.entered

	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()

	// (1) The held stream ends with the final terminator.
	if !sc.Scan() {
		t.Fatalf("stream ended without a final line: %v", sc.Err())
	}
	var last SubscribeLine
	if err := json.Unmarshal(sc.Bytes(), &last); err != nil || !last.Final {
		t.Fatalf("expected final terminator, got %q (err %v)", sc.Bytes(), err)
	}
	if sc.Scan() {
		t.Fatalf("line after the final terminator: %q", sc.Bytes())
	}

	// (2) The mid-flight batch completes its full line protocol.
	close(gate.release)
	raw := <-batchDone
	if raw == nil {
		t.Fatal("batch request failed")
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("batch streamed %d lines, want 3:\n%s", len(lines), raw)
	}
	var summary BatchLine
	if err := json.Unmarshal(lines[2], &summary); err != nil || summary.Kind != "summary" || summary.ErrorCount != 0 {
		t.Fatalf("bad batch summary %q (err %v)", lines[2], err)
	}
	<-drained

	// (3) A late subscriber gets an immediate final line.
	late, err := client.Get(ts.URL + "/v1/platforms/d/subscribe?targets=t1")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lsc := bufio.NewScanner(late.Body)
	if !lsc.Scan() {
		t.Fatalf("late subscriber got no line: %v", lsc.Err())
	}
	var lateLine SubscribeLine
	if err := json.Unmarshal(lsc.Bytes(), &lateLine); err != nil || !lateLine.Final {
		t.Fatalf("late subscriber: expected an immediate final line, got %q (err %v)", lsc.Bytes(), err)
	}
	if lsc.Scan() {
		t.Fatalf("late subscriber got a line after final: %q", lsc.Bytes())
	}
}

func TestDrainWaitsForJobsThenCancels(t *testing.T) {
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	submit := func() string {
		w := doJSON(t, s, http.MethodPost, "/v1/jobs", BatchRequest{
			PlanSpec: PlanSpec{PlatformID: "d"},
			Items:    []BatchItem{{PlanSpec{Targets: []string{"t1"}}}, {PlanSpec{Targets: []string{"t2"}}}},
			NoCache:  true,
		})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", w.Code, w.Body.String())
		}
		return decodeJSON[JobStatus](t, w).ID
	}
	jobState := func(id string) JobStatus {
		w := doJSON(t, s, http.MethodGet, "/v1/jobs/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("job poll: %d %s", w.Code, w.Body.String())
		}
		return decodeJSON[JobStatus](t, w)
	}

	// A drain with time on the clock waits the running job out.
	id := submit()
	<-gate.entered
	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still running")
	case <-time.After(30 * time.Millisecond):
	}
	close(gate.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the job finished")
	}
	if st := jobState(id); st.State != JobDone || st.Failed != 0 {
		t.Fatalf("drained job finished %q with %d failures, want done/0", st.State, st.Failed)
	}
}

func TestDrainDeadlineCancelsJobs(t *testing.T) {
	gate := newSolveGate() // never released: items only end via cancellation
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/jobs", BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d"},
		Items:    []BatchItem{{PlanSpec{Targets: []string{"t1"}}}, {PlanSpec{Targets: []string{"t2"}}}},
		NoCache:  true,
	})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	id := decodeJSON[JobStatus](t, w).ID
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	s.Drain(ctx) // expires, cancels the wedged job, then waits out its drain

	w = doJSON(t, s, http.MethodGet, "/v1/jobs/"+id, nil)
	st := decodeJSON[JobStatus](t, w)
	if st.State != JobCanceled {
		t.Fatalf("job state %q after drain deadline, want canceled", st.State)
	}
}

// TestBatchItemJoiningQueuedPlanNoDeadlock: a batch item that
// coalesces into an interactive plan's flight must not wait on a
// leader that in turn waits for compute the batch holds. Item 0 is
// gated inside its flight leadership, an interactive plan becomes the
// leader of item 1's key meanwhile, then the gate opens and item 1
// meets that flight. Both requests must finish.
func TestBatchItemJoiningQueuedPlanNoDeadlock(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, MaxQueue: 4})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	entered, gate := make(chan struct{}), make(chan struct{})
	var items atomic.Int64
	s.batchItemHook = func() {
		if items.Add(1) == 1 {
			close(entered)
			<-gate
		}
	}
	defer func() { s.batchItemHook = nil }()

	batch := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		batch <- doJSON(t, s, http.MethodPost, "/v1/plan:batch", BatchRequest{
			PlanSpec: PlanSpec{PlatformID: "d"},
			Items:    []BatchItem{{PlanSpec{Targets: []string{"t1"}}}, {PlanSpec{Targets: []string{"t2"}}}},
		})
	}()
	<-entered
	plan := make(chan *httptest.ResponseRecorder, 1)
	go func() { plan <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t2"}, nil)) }()
	// The plan leads t2's flight beside the gated t1 item (or has
	// already finished) before the gate opens.
	waitUntil(t, "the interactive plan to lead its flight", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		return len(s.flight.inflight) == 2 || len(plan) == 1
	})
	close(gate)

	timeout := time.After(10 * time.Second)
	for _, c := range []struct {
		name string
		ch   chan *httptest.ResponseRecorder
	}{{"batch", batch}, {"plan", plan}} {
		select {
		case w := <-c.ch:
			if w.Code != http.StatusOK {
				t.Errorf("%s: %d %s", c.name, w.Code, w.Body.String())
			}
			if strings.Contains(w.Body.String(), `"error"`) {
				t.Errorf("%s carries an error: %s", c.name, w.Body.String())
			}
		case <-timeout:
			t.Fatalf("%s still running after 10s: batch and plan deadlocked (%+v)", c.name, s.pool.limiterStats())
		}
	}
}

// TestBulkWaitersDoNotShedInteractive: batch and job items waiting for
// an evaluator were admitted as whole requests, so they must not fill
// the interactive queue. With the one evaluator wedged under a batch
// item and bulk items of a job and a second batch waiting behind it,
// the server stays ready and an interactive plan queues instead of
// being shed; once the gate opens everything finishes cleanly.
func TestBulkWaitersDoNotShedInteractive(t *testing.T) {
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)

	s := newTestServer(t, Config{Shards: 1, MaxQueue: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	batchReq := func(targets ...string) BatchRequest {
		return BatchRequest{
			PlanSpec: PlanSpec{PlatformID: "d"},
			Items:    []BatchItem{{PlanSpec{Targets: targets}}, {PlanSpec{Targets: []string{"t1", "t2"}}}},
			NoCache:  true,
		}
	}
	queued := func(n int64) func() bool {
		return func() bool { return s.pool.limiterStats().Queued == n }
	}

	results := make(chan *httptest.ResponseRecorder, 3)
	go func() { results <- doJSON(t, s, http.MethodPost, "/v1/plan:batch", batchReq("t1")) }()
	<-gate.entered

	job := submitJob(t, s, batchReq("t2"))
	waitUntil(t, "the job's item to queue", queued(1))
	if w := doJSON(t, s, http.MethodGet, "/readyz", nil); w.Code != http.StatusOK {
		t.Errorf("readyz with only bulk waiters: got %d %s, want 200", w.Code, w.Body.String())
	}
	go func() { results <- doJSON(t, s, http.MethodPost, "/v1/plan:batch", batchReq("t1")) }()
	waitUntil(t, "the second batch's item to queue", queued(2))
	go func() {
		results <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t2"}, func(r *PlanRequest) { r.NoCache = true }))
	}()
	waitUntil(t, "the interactive plan to queue", queued(3))

	close(gate.release)
	for i := 0; i < 3; i++ {
		w := <-results
		if w.Code != http.StatusOK {
			t.Errorf("request %d: got %d %s, want 200", i, w.Code, w.Body.String())
		} else if strings.Contains(w.Body.String(), `"error"`) {
			t.Errorf("request %d carries an error: %s", i, w.Body.String())
		}
	}
	if st := pollJob(t, s, job.ID); st.State != JobDone || st.Failed != 0 {
		t.Errorf("job finished %+v, want done without failures", st)
	}
	if st := s.pool.limiterStats(); st.Shed != 0 {
		t.Errorf("shed = %d, want 0", st.Shed)
	}
}

// TestBatchClientCancelStopsRemainingItems: a client abandoning a
// batch mid-stream must not keep evaluators solving — items that
// have not computed yet drain as per-item "canceled" error lines.
func TestBatchClientCancelStopsRemainingItems(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	ctx, cancel := context.WithCancel(context.Background())
	var items atomic.Int64
	s.batchItemHook = func() {
		if items.Add(1) == 2 {
			cancel() // the client vanishes while item 1 computes
		}
	}
	defer func() { s.batchItemHook = nil }()

	body, _ := json.Marshal(BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d"},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"t2"}}},
			{PlanSpec{Targets: []string{"t1", "t2"}}},
			{PlanSpec{Targets: []string{"t2", "t1"}}},
		},
		NoCache: true,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/plan:batch", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)

	lines := bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("batch streamed %d lines, want 5:\n%s", len(lines), w.Body.String())
	}
	canceled := 0
	for i, raw := range lines[:4] {
		var l BatchLine
		if err := json.Unmarshal(raw, &l); err != nil || l.Kind != "plan" || l.Index != i {
			t.Fatalf("bad plan line %d: %q (err %v)", i, raw, err)
		}
		switch {
		case l.Error == nil && l.Plan != nil:
		case l.Error != nil && l.Error.Code == CodeCanceled:
			canceled++
		default:
			t.Fatalf("line %d: unexpected outcome %q", i, raw)
		}
	}
	if canceled == 0 {
		t.Fatal("no items drained as canceled after the client hung up")
	}
	var summary BatchLine
	if err := json.Unmarshal(lines[4], &summary); err != nil || summary.Kind != "summary" || summary.ErrorCount != canceled {
		t.Fatalf("bad summary %q (err %v, want %d errors)", lines[4], err, canceled)
	}
}

// TestCoalescedFollowerRerunsAfterLeaderDeadline re-verifies the PR 4
// coalescing semantics under deadlines: a leader abandoned by its own
// timeout fails alone; a follower that coalesced onto it re-runs the
// computation instead of inheriting the leader-private error.
func TestCoalescedFollowerRerunsAfterLeaderDeadline(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	entered := make(chan struct{}, 4)
	var calls atomic.Int64
	faultinject.Set(&faultinject.Hooks{SolveEnter: func(ctx context.Context) error {
		entered <- struct{}{}
		if calls.Add(1) == 1 {
			<-ctx.Done() // wedge the leader until its deadline
			return ctx.Err()
		}
		return nil
	}})
	defer faultinject.Set(nil)

	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		leader <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, func(r *PlanRequest) {
			r.TimeoutMillis = 40
		}))
	}()
	<-entered
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		follower <- doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1"}, nil))
	}()
	waitUntil(t, "a coalesced follower", func() bool { return s.flight.coalescedCount() == 1 })

	if w := <-leader; w.Code != http.StatusServiceUnavailable {
		t.Fatalf("leader: got %d %s, want 503", w.Code, w.Body.String())
	} else if env := decodeJSON[ErrorEnvelope](t, w); env.Error.Code != CodeDeadline {
		t.Errorf("leader error code %q, want %q", env.Error.Code, CodeDeadline)
	}
	if w := <-follower; w.Code != http.StatusOK {
		t.Fatalf("follower after leader deadline: got %d %s, want 200", w.Code, w.Body.String())
	} else if how := w.Header().Get(HeaderCache); how != "miss" {
		t.Errorf("follower served %q, want miss (it must have re-run the compute)", how)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("solver entered %d times, want 2 (leader + follower re-run)", got)
	}
	// The re-run rolled the coalesced count back.
	if c := s.flight.coalescedCount(); c != 0 {
		t.Errorf("coalesced count = %d after rollback, want 0", c)
	}
}

// TestChaosStorm is the acceptance chaos run: concurrent plan, batch
// and subscribe traffic through a fault-injected serving stack —
// stalled solves, injected solver failures, solve and handler panics,
// deadline storms, admission pressure — with three invariants:
//
//  1. liveness: the daemon answers every request with a well-formed
//     response (a v1 envelope on errors) and is healthy afterwards;
//  2. determinism: every non-degraded 200 plan body (interactive,
//     batch line or subscribe line) is byte-identical to the same
//     spec's answer from a clean single-shard server;
//  3. degraded marking: every degraded answer carries the
//     X-Mcastd-Degraded header (and only opt-in requests ever get one).
//
// All specs request heuristics explicitly (none), so even the
// degraded-tree fallback's bounds-only body must equal the clean
// reference — degradation here changes availability, never bytes.
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm is slow")
	}
	upload := func(s *Server) {
		for _, up := range []UploadRequest{
			{ID: "cd", Platform: diamondText, Source: "S"},
			{ID: "ct", Platform: treeText, Source: "S"},
		} {
			if w := doJSON(t, s, http.MethodPost, "/v1/platforms", up); w.Code != http.StatusCreated {
				t.Fatalf("upload %s: %d %s", up.ID, w.Code, w.Body.String())
			}
		}
	}
	specs := []PlanSpec{
		{PlatformID: "cd", Targets: []string{"t1"}, Heuristics: []string{}},
		{PlatformID: "cd", Targets: []string{"t2"}, Heuristics: []string{}},
		{PlatformID: "cd", Targets: []string{"t1", "t2"}, Heuristics: []string{}},
		{PlatformID: "ct", Targets: []string{"c", "d"}, Heuristics: []string{}},
	}

	// Clean references: indented bodies from /v1/plan, compact per-item
	// bytes from one batch line stream (what batch and subscribe lines
	// embed), all on an unfaulted single-shard server.
	ref := newTestServer(t, Config{Shards: 1})
	upload(ref)
	canonical := make([][]byte, len(specs))
	for i, spec := range specs {
		w := doJSON(t, ref, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec})
		if w.Code != http.StatusOK {
			t.Fatalf("reference plan %d: %d %s", i, w.Code, w.Body.String())
		}
		canonical[i] = append([]byte(nil), w.Body.Bytes()...)
	}
	items := make([]BatchItem, len(specs))
	for i, spec := range specs {
		items[i] = BatchItem{spec}
	}
	bw := doJSON(t, ref, http.MethodPost, "/v1/plan:batch", BatchRequest{Items: items})
	if bw.Code != http.StatusOK {
		t.Fatalf("reference batch: %d %s", bw.Code, bw.Body.String())
	}
	canonicalCompact := make([][]byte, len(specs))
	for _, raw := range bytes.Split(bytes.TrimSpace(bw.Body.Bytes()), []byte("\n")) {
		var l struct {
			Kind  string          `json:"kind"`
			Index int             `json:"index"`
			Plan  json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		if l.Kind == "plan" {
			canonicalCompact[l.Index] = append([]byte(nil), l.Plan...)
		}
	}

	// The server under storm: tight enough admission limits that the
	// injected stalls genuinely saturate it.
	s := newTestServer(t, Config{Shards: 2, MaxQueue: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	upload(s)

	var solveCalls, handlerCalls, streamCalls atomic.Int64
	faultinject.Set(&faultinject.Hooks{
		SolveEnter: func(ctx context.Context) error {
			switch k := solveCalls.Add(1); {
			case k%31 == 0:
				panic("chaos: solve panic")
			case k%13 == 0:
				return errors.New("chaos: injected solver failure")
			case k%5 == 0:
				select {
				case <-time.After(2 * time.Millisecond):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		},
		HandlerEnter: func(route string) {
			if strings.HasPrefix(route, "POST /v1/plan") && handlerCalls.Add(1)%37 == 0 {
				panic("chaos: handler panic")
			}
		},
		StreamWrite: func(ctx context.Context) error {
			if streamCalls.Add(1)%7 == 0 {
				return errors.New("chaos: wedged stream")
			}
			return nil
		},
	})
	defer faultinject.Set(nil)

	var mu sync.Mutex
	var degradedSeen, planOKs, subLines int64
	checkEnvelope := func(what string, status int, body []byte) {
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: status %d with a non-envelope body %q", what, status, body)
			return
		}
		want := map[int]ErrorCode{
			http.StatusTooManyRequests:     CodeSaturated,
			http.StatusServiceUnavailable:  CodeDeadline,
			http.StatusInternalServerError: CodeInternal,
		}[status]
		if env.Error.Code != want {
			t.Errorf("%s: status %d carries code %q, want %q", what, status, env.Error.Code, want)
		}
	}

	timeouts := []int64{0, 1, 25}
	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				switch {
				case k%17 == 13: // subscribe: open, read one line, hang up
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
						ts.URL+"/v1/platforms/cd/subscribe?targets=t1&heuristics=", nil)
					resp, err := client.Do(req)
					if err != nil {
						cancel()
						continue // storm cancellation; not a server fault
					}
					if resp.StatusCode == http.StatusOK {
						sc := bufio.NewScanner(resp.Body)
						sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
						if sc.Scan() {
							var l SubscribeLine
							if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
								t.Errorf("bad subscribe line %q: %v", sc.Bytes(), err)
							} else if l.Plan != nil {
								if !bytes.Equal(l.Plan, canonicalCompact[0]) {
									t.Errorf("subscribe plan bytes diverged from the clean reference")
								}
								mu.Lock()
								subLines++
								mu.Unlock()
							} else if l.Error == nil && !l.Final {
								t.Errorf("subscribe line with neither plan, error nor final: %q", sc.Bytes())
							}
						}
					} else {
						body, _ := io.ReadAll(resp.Body)
						checkEnvelope("subscribe", resp.StatusCode, body)
					}
					resp.Body.Close()
					cancel()
				case k%11 == 7: // batch of every spec
					body, _ := json.Marshal(BatchRequest{
						Items: items, NoCache: k%2 == 0, TimeoutMillis: timeouts[k%3],
					})
					resp, err := client.Post(ts.URL+"/v1/plan:batch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("batch transport: %v", err)
						continue
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						checkEnvelope("batch", resp.StatusCode, raw)
						continue
					}
					lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
					// A mid-stream handler panic truncates the NDJSON stream:
					// liveness-wise that is a closed connection, not a protocol
					// violation. Lines that did arrive must still be exact.
					for _, lraw := range lines {
						var l BatchLine
						if err := json.Unmarshal(lraw, &l); err != nil {
							t.Errorf("bad batch line %q: %v", lraw, err)
							break
						}
						if l.Kind != "plan" {
							continue
						}
						if l.Error != nil {
							if c := l.Error.Code; c != CodeInternal && c != CodeDeadline && c != CodeCanceled {
								t.Errorf("batch item %d failed with unexpected code %q", l.Index, c)
							}
							continue
						}
						var compact []byte
						if raw, err := json.Marshal(l.Plan); err == nil {
							compact = raw
						}
						if !bytes.Equal(compact, canonicalCompact[l.Index]) {
							t.Errorf("batch item %d bytes diverged from the clean reference", l.Index)
						}
					}
				default: // interactive plan
					i := (g*7 + k) % len(specs)
					reqBody, _ := json.Marshal(PlanRequest{
						PlanSpec:      specs[i],
						NoCache:       k%3 == 0,
						Degraded:      k%2 == 0,
						TimeoutMillis: timeouts[k%3],
					})
					resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(reqBody))
					if err != nil {
						t.Errorf("plan transport: %v", err)
						continue
					}
					raw, _ := io.ReadAll(resp.Body)
					deg := resp.Header.Get(HeaderDegraded)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						if deg != "" && deg != "cache" && deg != "tree" {
							t.Errorf("unexpected degraded header %q", deg)
						}
						if deg != "" && k%2 != 0 {
							t.Errorf("degraded answer for a request that did not opt in")
						}
						// Degraded or not: with heuristics pinned to none, every
						// 200 body is the same pure function of the spec.
						if !bytes.Equal(raw, canonical[i]) {
							t.Errorf("plan body for spec %d diverged from the clean reference (degraded=%q)", i, deg)
						}
						mu.Lock()
						planOKs++
						if deg != "" {
							degradedSeen++
						}
						mu.Unlock()
					case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError:
						checkEnvelope("plan", resp.StatusCode, raw)
						if deg != "" {
							t.Errorf("error response carries degraded header %q", deg)
						}
					default:
						t.Errorf("plan: unexpected status %d: %s", resp.StatusCode, raw)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The storm must have exercised the machinery, not tiptoed around
	// it: successful answers, fault recoveries and stream lines all > 0.
	if planOKs == 0 {
		t.Error("storm produced no successful plan responses")
	}
	if subLines == 0 {
		t.Error("storm produced no successful subscribe lines")
	}
	if solveCalls.Load() < 50 {
		t.Errorf("storm only reached the solver %d times", solveCalls.Load())
	}

	// Liveness after the storm: faults cleared, the daemon is healthy
	// and every spec still solves to the exact clean-reference bytes
	// (the chaos left no poisoned cache or evaluator state behind).
	faultinject.Set(nil)
	if w := doJSON(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz after storm: %d", w.Code)
	}
	for i, spec := range specs {
		w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: spec, NoCache: true})
		if w.Code != http.StatusOK {
			t.Fatalf("post-storm solve %d: %d %s", i, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), canonical[i]) {
			t.Errorf("post-storm recompute of spec %d diverged from the clean reference", i)
		}
	}
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Resilience.Panics == 0 {
		t.Error("no handler panics recovered — the storm never tripped the middleware")
	}
}
