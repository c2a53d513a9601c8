package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// newStreamServer serves a fresh Server with the diamond platform
// uploaded as "d". The server closes at test cleanup, after every
// stream opened later has been hung up.
func newStreamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	return s, ts
}

// lineStream is one open subscribe stream read line by line.
type lineStream struct {
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

// openStream opens GET path on ts and fails the test unless it
// answers 200. The stream is hung up at test cleanup at the latest.
func openStream(t *testing.T, ts *httptest.Server, path string) *lineStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		resp.Body.Close()
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	return &lineStream{sc: sc, cancel: cancel}
}

// next reads one line and returns it decoded and raw. A line that does
// not arrive within a generous deadline hangs the stream up and fails
// the test.
func (st *lineStream) next(t *testing.T) (SubscribeLine, []byte) {
	t.Helper()
	timer := time.AfterFunc(10*time.Second, st.cancel)
	defer timer.Stop()
	if !st.sc.Scan() {
		t.Fatalf("stream ended without a line: %v", st.sc.Err())
	}
	raw := append([]byte(nil), st.sc.Bytes()...)
	var l SubscribeLine
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatalf("bad subscribe line %q: %v", raw, err)
	}
	return l, raw
}

func patchOK(t *testing.T, s *Server, id string, ops ...PatchOp) PatchResponse {
	t.Helper()
	w := doJSON(t, s, http.MethodPatch, "/v1/platforms/"+id, PatchRequest{Ops: ops})
	if w.Code != http.StatusOK {
		t.Fatalf("patch %+v: status %d %s", ops, w.Code, w.Body.String())
	}
	return decodeJSON[PatchResponse](t, w)
}

func statsOf(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	return decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
}

// servedTotal sums shard_served: the computations handed an evaluator.
func servedTotal(t *testing.T, s *Server) (n int64) {
	t.Helper()
	for _, v := range statsOf(t, s).ShardServed {
		n += v
	}
	return n
}

func awaitEntered(t *testing.T, g *solveGate) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no compute reached the solve gate")
	}
}

// TestRegistryHidesUnpublishedHolder pins the window between put
// inserting a platform holder and publishing its first snapshot: in it
// the ID must read as unknown on every route, not panic on a nil
// snapshot.
func TestRegistryHidesUnpublishedHolder(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	s.reg.mu.Lock()
	s.reg.m["half"] = &platform{}
	s.reg.mu.Unlock()

	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/v1/platforms/half", nil},
		{http.MethodGet, "/v1/platforms/half/log", nil},
		{http.MethodGet, "/v1/platforms/half/subscribe?targets=t1", nil},
		{http.MethodPatch, "/v1/platforms/half", PatchRequest{Ops: []PatchOp{{Op: "drop_node", Node: "t1"}}}},
		{http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "half", Targets: []string{"t1"}}}},
	} {
		w := doJSON(t, s, c.method, c.path, c.body)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (%s)", c.method, c.path, w.Code, w.Body.String())
		}
	}
	w := doJSON(t, s, http.MethodGet, "/v1/platforms", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list: status %d (%s)", w.Code, w.Body.String())
	}
	if list := decodeJSON[[]PlatformInfo](t, w); len(list) != 1 || list[0].ID != "d" {
		t.Errorf("list = %+v, want only the published platform d", list)
	}
}

// TestSubscribeBurstSkipsToNewest holds a subscriber's version-1
// compute while five PATCHes land: the stream must carry version 1 and
// then version 6 only — the burst costs one more compute, of the
// newest version.
func TestSubscribeBurstSkipsToNewest(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})

	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	awaitEntered(t, gate)
	for i := 0; i < 5; i++ {
		if pr := patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2}); pr.Version != int64(i+2) {
			t.Fatalf("patch %d claimed version %d", i, pr.Version)
		}
	}
	close(gate.release)

	for _, want := range []int64{1, 6} {
		if l, raw := st.next(t); l.Version != want || l.Plan == nil {
			t.Fatalf("got line %s, want a plan for version %d", raw, want)
		}
	}
	// Nothing else is pending: the drain's final line comes next.
	s.Drain(context.Background())
	if l, raw := st.next(t); !l.Final {
		t.Fatalf("got line %s after version 6, want the final line", raw)
	}
}

// TestSubscribeErrorThenRecovery drops a target (its version streams an
// error line) and restores it: the restored version's plan is
// byte-identical to the original's.
func TestSubscribeErrorThenRecovery(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")

	v1, raw := st.next(t)
	if v1.Version != 1 || v1.Plan == nil {
		t.Fatalf("first line %s", raw)
	}
	patchOK(t, s, "d", PatchOp{Op: "drop_node", Node: "t2"})
	if l, raw := st.next(t); l.Version != 2 || l.Plan != nil || l.Error == nil || l.Error.Code != CodeBadRequest {
		t.Fatalf("got line %s, want a bad_request error line at version 2", raw)
	}
	patchOK(t, s, "d", PatchOp{Op: "restore_node", Node: "t2"})
	v3, raw := st.next(t)
	if v3.Version != 3 || v3.Error != nil {
		t.Fatalf("got line %s, want a plan at version 3", raw)
	}
	if !bytes.Equal(v3.Plan, v1.Plan) {
		t.Fatalf("version 3 plan %s differs from version 1 plan %s", v3.Plan, v1.Plan)
	}
}

// TestSubscribeHangUp closes a subscriber's stream: its handler must
// exit, and the next PATCH no longer counts it as repaired.
func TestSubscribeHangUp(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	st.next(t)
	if pr := patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2}); pr.Repaired != 1 {
		t.Fatalf("patch with one follower reports repaired %d", pr.Repaired)
	}
	if l, raw := st.next(t); l.Version != 2 {
		t.Fatalf("got line %s, want version 2", raw)
	}

	st.cancel()
	waitUntil(t, "the stream handler to exit", func() bool {
		return statsOf(t, s).Live.StreamsActive == 0
	})
	if pr := patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 0.5}); pr.Repaired != 0 {
		t.Fatalf("patch after hang-up reports repaired %d", pr.Repaired)
	}
}

// TestSubscribeSharedWork runs four identical subscriptions: one PATCH
// costs one compute, whose bytes all four streams carry.
func TestSubscribeSharedWork(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 2})

	const subscribers = 4
	streams := make([]*lineStream, subscribers)
	for i := range streams {
		streams[i] = openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2&heuristics=MCPH")
		if l, raw := streams[i].next(t); l.Version != 1 || l.Plan == nil {
			t.Fatalf("subscriber %d: first line %s", i, raw)
		}
	}
	before, coalesced := servedTotal(t, s), s.flight.coalescedCount()

	// Hold the version-2 compute until every other subscriber has
	// joined it, so none can miss the flight and find the cache empty.
	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{SolveEnter: gate.hook})
	defer faultinject.Set(nil)
	if pr := patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2}); pr.Repaired != subscribers {
		t.Fatalf("patch reports repaired %d, want %d", pr.Repaired, subscribers)
	}
	awaitEntered(t, gate)
	waitUntil(t, "the other subscribers to coalesce", func() bool {
		return s.flight.coalescedCount() == coalesced+subscribers-1
	})
	close(gate.release)

	var first []byte
	for i, st := range streams {
		l, raw := st.next(t)
		if l.Version != 2 || l.Plan == nil {
			t.Fatalf("subscriber %d: got line %s, want a plan at version 2", i, raw)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("subscriber %d line %s differs from %s", i, raw, first)
		}
	}
	if got := servedTotal(t, s) - before; got != 1 {
		t.Fatalf("one PATCH grew shard_served by %d, want 1", got)
	}
}

// TestSubscribeDeliversCurrentPlanWithoutMutation subscribes to a
// platform nobody has patched: the stream opens with the current
// version's plan, byte-identical to the compacted POST /v1/plan body,
// and carries nothing else before the drain's final line.
func TestSubscribeDeliversCurrentPlanWithoutMutation(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	l, raw := st.next(t)
	if l.Version != 1 || l.Plan == nil || l.Error != nil {
		t.Fatalf("first line %s, want a plan at version 1", raw)
	}

	w := doJSON(t, s, http.MethodPost, "/v1/plan", planReq([]string{"t1", "t2"}, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("plan: status %d %s", w.Code, w.Body.String())
	}
	var want bytes.Buffer
	if err := json.Compact(&want, w.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Plan, want.Bytes()) {
		t.Fatalf("streamed plan %s differs from POST /v1/plan body %s", l.Plan, want.Bytes())
	}
	s.Drain(context.Background())
	if l, raw := st.next(t); !l.Final {
		t.Fatalf("got line %s after version 1, want the final line", raw)
	}
	// The final line is not an update, and the v1 update was counted
	// before the stream went on to wait.
	if n := statsOf(t, s).Live.Updates; n != 1 {
		t.Fatalf("stream carried %d updates without a mutation, want 1", n)
	}
}

// TestSubscribeCoalescesBursts lands 20 back-to-back PATCHes while a
// subscriber reads: the stream converges on the newest version, and
// the burst computes exactly the versions the stream carries — no
// version is planned and then dropped.
func TestSubscribeCoalescesBursts(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	if l, raw := st.next(t); l.Version != 1 {
		t.Fatalf("first line %s", raw)
	}
	before := servedTotal(t, s)

	const burst = 20
	for i := 0; i < burst; i++ {
		patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 1.25})
	}
	lines, prev := int64(0), int64(1)
	for prev < 1+burst {
		l, raw := st.next(t)
		if l.Version <= prev || l.Plan == nil {
			t.Fatalf("got line %s after version %d, want a plan for a newer version", raw, prev)
		}
		prev = l.Version
		lines++
	}
	if got := servedTotal(t, s) - before; got != lines {
		t.Fatalf("burst of %d PATCHes cost %d computes for %d streamed versions", burst, got, lines)
	}
}

// TestSubscribeSlowReaderGetsNewest wedges a subscriber's write of
// version 2 while versions 3 to 6 land: once the write goes through,
// the stream's next line is version 6 — a slow reader skips the
// intermediate versions instead of queueing them.
func TestSubscribeSlowReaderGetsNewest(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	if l, raw := st.next(t); l.Version != 1 {
		t.Fatalf("first line %s", raw)
	}

	gate := newSolveGate()
	faultinject.Set(&faultinject.Hooks{StreamWrite: gate.hook})
	defer faultinject.Set(nil)
	patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2})
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the version-2 line never reached the stream write")
	}
	for i := 0; i < 4; i++ {
		patchOK(t, s, "d", PatchOp{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2})
	}
	close(gate.release)

	for _, want := range []int64{2, 6} {
		if l, raw := st.next(t); l.Version != want || l.Plan == nil {
			t.Fatalf("got line %s, want a plan for version %d", raw, want)
		}
	}
	s.Drain(context.Background())
	if l, raw := st.next(t); !l.Final {
		t.Fatalf("got line %s after version 6, want the final line", raw)
	}
}

// TestSubscribeVersionsMonotonic runs four concurrent PATCH writers
// against one subscriber: the stream's versions strictly increase and
// end at the last version written.
func TestSubscribeVersionsMonotonic(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 2})
	st := openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
	if l, raw := st.next(t); l.Version != 1 {
		t.Fatalf("first line %s", raw)
	}

	const writers, each = 4, 5
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				w := doJSON(t, s, http.MethodPatch, "/v1/platforms/d", PatchRequest{Ops: []PatchOp{{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 1.25}}})
				if w.Code != http.StatusOK {
					t.Errorf("patch: status %d %s", w.Code, w.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	got := []int64{1}
	for got[len(got)-1] < 1+writers*each {
		l, raw := st.next(t)
		if l.Plan == nil {
			t.Fatalf("got line %s, want a plan", raw)
		}
		got = append(got, l.Version)
		if l.Version <= got[len(got)-2] {
			t.Fatalf("versions not strictly increasing: %v", got)
		}
	}
}

// TestDrainUnblocksIdleSubscribers parks three subscribers, each
// waiting for a version after its first: Drain must give every one its
// final line and then end its stream cleanly.
func TestDrainUnblocksIdleSubscribers(t *testing.T) {
	s, ts := newStreamServer(t, Config{Shards: 1})
	streams := make([]*lineStream, 3)
	for i := range streams {
		streams[i] = openStream(t, ts, "/v1/platforms/d/subscribe?targets=t1,t2")
		if l, raw := streams[i].next(t); l.Version != 1 {
			t.Fatalf("subscriber %d: first line %s", i, raw)
		}
	}

	s.Drain(context.Background())
	for i, st := range streams {
		if l, raw := st.next(t); !l.Final {
			t.Fatalf("subscriber %d: got line %s, want the final line", i, raw)
		}
		timer := time.AfterFunc(10*time.Second, st.cancel)
		more := st.sc.Scan()
		timer.Stop()
		if more || st.sc.Err() != nil {
			t.Fatalf("subscriber %d: stream did not end after the final line (line %q, err %v)", i, st.sc.Bytes(), st.sc.Err())
		}
	}
	waitUntil(t, "every stream handler to exit", func() bool {
		return statsOf(t, s).Live.StreamsActive == 0
	})
}
