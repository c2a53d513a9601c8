package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/steady"
)

// diamondText is a small platform where the bounds are cheap: S feeds
// two relays which both feed both targets, plus slow direct edges.
const diamondText = `
node S
edge S r1 1
edge S r2 1
edge r1 t1 1
edge r1 t2 1
edge r2 t1 1
edge r2 t2 1
edge S t1 6
edge S t2 6
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(cfg)
}

func doJSON(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeJSON[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return v
}

func TestUploadListGet(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	w := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "diamond", Platform: diamondText, Source: "S"})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	up := decodeJSON[UploadResponse](t, w)
	if up.ID != "diamond" || up.Nodes != 5 || up.Edges != 8 || up.Generation != 1 || up.Source != "S" {
		t.Errorf("unexpected upload response: %+v", up)
	}

	w = doJSON(t, s, http.MethodGet, "/v1/platforms", nil)
	list := decodeJSON[[]PlatformInfo](t, w)
	if len(list) != 1 || list[0].ID != "diamond" || list[0].Fingerprint != up.Fingerprint {
		t.Errorf("unexpected list: %+v", list)
	}

	w = doJSON(t, s, http.MethodGet, "/v1/platforms/diamond", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("get: %d", w.Code)
	}
	w = doJSON(t, s, http.MethodGet, "/v1/platforms/nope", nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("missing platform: got %d, want 404", w.Code)
	}

	// Content-addressed ID when the client names none.
	w = doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{Platform: diamondText})
	up2 := decodeJSON[UploadResponse](t, w)
	if up2.ID != "pf-"+up.Fingerprint {
		t.Errorf("derived id %q, want pf-%s", up2.ID, up.Fingerprint)
	}
}

func TestUploadRejectsBadInput(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	cases := []UploadRequest{
		{Platform: ""},                                        // empty
		{Platform: "frob S a 1"},                              // unknown directive
		{Platform: diamondText, Source: "nope"},               // unknown default source
		{ID: "a/b", Platform: diamondText},                    // reserved char in ID
		{ID: strings.Repeat("x", 200), Platform: diamondText}, // too long
	}
	for i, req := range cases {
		if w := doJSON(t, s, http.MethodPost, "/v1/platforms", req); w.Code != http.StatusBadRequest {
			t.Errorf("case %d: got %d, want 400 (%s)", i, w.Code, w.Body.String())
		}
	}
}

func TestPlanValidation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	cases := []struct {
		req  PlanRequest
		want int
	}{
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "missing", Targets: []string{"t1"}}}, http.StatusNotFound},
		{PlanRequest{PlanSpec: PlanSpec{Targets: []string{"t1"}}}, http.StatusBadRequest},                                            // no platform
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Platform: diamondText, Targets: []string{"t1"}}}, http.StatusBadRequest},    // both
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d"}}, http.StatusBadRequest},                                                    // no targets
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"zz"}}}, http.StatusBadRequest},                           // unknown target
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Source: "zz", Targets: []string{"t1"}}}, http.StatusBadRequest},             // unknown source
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t1"}}}, http.StatusBadRequest},                     // duplicate target
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"S"}}}, http.StatusBadRequest},                            // source as target
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Bounds: []string{"nope"}}}, http.StatusBadRequest}, // unknown bound
		{PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{"zz"}}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		if w := doJSON(t, s, http.MethodPost, "/v1/plan", c.req); w.Code != c.want {
			t.Errorf("case %d: got %d, want %d (%s)", i, w.Code, c.want, w.Body.String())
		}
	}
}

// TestPlanMatchesLibrary anchors the server path to the library: the
// served bounds must be bit-identical to direct steady calls and the
// served heuristics to a shared-evaluator heur sequence.
func TestPlanMatchesLibrary(t *testing.T) {
	s := newTestServer(t, Config{Shards: 3})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}}})
	if w.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", w.Code, w.Body.String())
	}
	resp := decodeJSON[PlanResponse](t, w)

	g, err := graph.Decode(strings.NewReader(diamondText))
	if err != nil {
		t.Fatal(err)
	}
	source, _ := g.NodeByName("S")
	t1, _ := g.NodeByName("t1")
	t2, _ := g.NodeByName("t2")
	p, err := steady.NewProblem(g, source, []graph.NodeID{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	ev := steady.NewEvaluator()
	wantBounds := map[string]*steady.Bound{}
	for _, name := range boundOrder {
		var b *steady.Bound
		switch name {
		case BoundScatter:
			b, err = ev.ScatterUB(p)
		case BoundLB:
			b, err = ev.MulticastLB(p)
		case BoundBroadcast:
			b, err = ev.BroadcastEB(g, source)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantBounds[name] = b
	}
	if len(resp.Bounds) != 3 {
		t.Fatalf("got %d bounds, want 3", len(resp.Bounds))
	}
	for _, br := range resp.Bounds {
		want := wantBounds[br.Name]
		if math.Float64bits(br.Period) != math.Float64bits(want.Period) {
			t.Errorf("%s: served period %v, library %v", br.Name, br.Period, want.Period)
		}
	}
	if len(resp.Plans) != 4 {
		t.Fatalf("got %d plans, want 4", len(resp.Plans))
	}
	for i, h := range heur.AllWith(ev) {
		res, err := h.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Plans[i].Heuristic != h.Name {
			t.Fatalf("plan %d is %q, want %q", i, resp.Plans[i].Heuristic, h.Name)
		}
		if math.Float64bits(resp.Plans[i].Period) != math.Float64bits(res.Period) {
			t.Errorf("%s: served period %v, library %v", h.Name, resp.Plans[i].Period, res.Period)
		}
	}
}

func TestPlanCacheAndHeaders(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	req := PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{"MCPH"}}}

	w1 := doJSON(t, s, http.MethodPost, "/v1/plan", req)
	if w1.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get(HeaderCache); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	if !strings.HasPrefix(w1.Header().Get("Server-Timing"), "wait;dur=") {
		t.Errorf("computed request Server-Timing %q, want a wait duration", w1.Header().Get("Server-Timing"))
	}
	w2 := doJSON(t, s, http.MethodPost, "/v1/plan", req)
	if got := w2.Header().Get(HeaderCache); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if got := w2.Header().Get("Server-Timing"); got != "" {
		t.Errorf("cache hit carries Server-Timing %q", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached response body differs from computed body")
	}

	// NoCache recomputes but still agrees byte-for-byte.
	req.NoCache = true
	w3 := doJSON(t, s, http.MethodPost, "/v1/plan", req)
	if got := w3.Header().Get(HeaderCache); got != "miss" {
		t.Errorf("no_cache request cache header %q, want miss", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Error("no_cache response body differs")
	}
}

func TestReuploadInvalidatesCache(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	req := PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{}}}
	w1 := doJSON(t, s, http.MethodPost, "/v1/plan", req)
	resp1 := decodeJSON[PlanResponse](t, w1)

	// Same content again: no invalidation, generation bumps.
	w := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	if w.Code != http.StatusOK {
		t.Fatalf("re-upload: %d", w.Code)
	}
	up := decodeJSON[UploadResponse](t, w)
	if !up.Replaced || up.Generation != 2 || up.Invalidated != 0 {
		t.Errorf("same-content re-upload: %+v", up)
	}
	if got := doJSON(t, s, http.MethodPost, "/v1/plan", req); got.Header().Get(HeaderCache) != "hit" {
		t.Error("same-content re-upload evicted the cached plan")
	}

	// New content: the old plan must be dropped and the new answer must
	// reflect the new platform.
	slower := strings.ReplaceAll(diamondText, "edge S r1 1", "edge S r1 3")
	w = doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: slower, Source: "S"})
	up = decodeJSON[UploadResponse](t, w)
	if up.Invalidated == 0 {
		t.Errorf("content change invalidated no cached plans: %+v", up)
	}
	w2 := doJSON(t, s, http.MethodPost, "/v1/plan", req)
	if w2.Header().Get(HeaderCache) != "miss" {
		t.Error("plan after content change was served from the cache")
	}
	resp2 := decodeJSON[PlanResponse](t, w2)
	if resp1.Fingerprint == resp2.Fingerprint {
		t.Error("fingerprint did not change with the platform content")
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	fg := newFlightGroup()
	key := planKey{fp: 1, targets: "2"}
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	want := &PlanResponse{Fingerprint: "x"}

	var wg sync.WaitGroup
	results := make([]*PlanResponse, 3)
	shared := make([]bool, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, shared[0] = fg.do(key, func() (*PlanResponse, error) {
			close(leaderIn)
			<-gate
			return want, nil
		})
	}()
	<-leaderIn // leader is inside fn; followers must coalesce
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, shared[i] = fg.do(key, func() (*PlanResponse, error) {
				t.Error("follower executed the computation")
				return nil, nil
			})
		}()
	}
	// Wait until both followers are registered, then release the leader.
	for {
		fg.mu.Lock()
		n := fg.coalesced
		fg.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := range results {
		if results[i] != want {
			t.Errorf("caller %d got %+v", i, results[i])
		}
	}
	if shared[0] || !shared[1] || !shared[2] {
		t.Errorf("shared flags = %v, want [false true true]", shared)
	}
	if got := fg.coalescedCount(); got != 2 {
		t.Errorf("coalesced count %d, want 2", got)
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	k := func(i int) planKey { return planKey{fp: uint64(i)} }
	r := func(i int) *PlanResponse { return &PlanResponse{Fingerprint: fmt.Sprint(i)} }
	c.put(k(1), r(1))
	c.put(k(2), r(2))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	c.put(k(3), r(3)) // evicts k2 (k1 was refreshed)
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 survived past capacity")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("LRU evicted the recently used entry")
	}
	if n := c.dropIf(func(key planKey) bool { return key.fp == 1 }); n != 1 {
		t.Errorf("dropIf removed %d, want 1", n)
	}
	st := c.stats()
	if st.Size != 1 || st.Dropped != 1 {
		t.Errorf("stats %+v", st)
	}
	// Disabled cache accepts nothing.
	d := newPlanCache(0)
	d.put(k(1), r(1))
	if _, ok := d.get(k(1)); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}, Heuristics: []string{}}})
	doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}, Heuristics: []string{}}})

	w := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	st := decodeJSON[StatsResponse](t, w)
	if st.Platforms != 1 || st.Shards != 2 || len(st.ShardServed) != 2 {
		t.Errorf("stats shape: %+v", st)
	}
	if st.Solver.Solves == 0 || st.Solver.Evaluations == 0 {
		t.Errorf("no solver activity recorded: %+v", st.Solver)
	}
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Errorf("cache counters: %+v", st.PlanCache)
	}
	ep, ok := st.Endpoints["POST /v1/plan"]
	if !ok || ep.Count != 2 {
		t.Errorf("plan endpoint metrics: %+v", st.Endpoints)
	}
	if _, ok := st.Endpoints["POST /v1/platforms"]; !ok {
		t.Error("upload endpoint metrics missing")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	w := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
}

// TestInlinePlatformPlan covers one-shot requests that inline the
// platform instead of registering it.
func TestInlinePlatformPlan(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	w := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{Platform: diamondText, Source: "S", Targets: []string{"t1"}, Bounds: []string{"scatter"}, Heuristics: []string{"mcph"}}})
	if w.Code != http.StatusOK {
		t.Fatalf("inline plan: %d %s", w.Code, w.Body.String())
	}
	resp := decodeJSON[PlanResponse](t, w)
	if resp.PlatformID != "" {
		t.Errorf("inline plan has platform id %q", resp.PlatformID)
	}
	if len(resp.Bounds) != 1 || resp.Bounds[0].Name != "scatter" {
		t.Errorf("bounds: %+v", resp.Bounds)
	}
	if len(resp.Plans) != 1 || resp.Plans[0].Heuristic != "MCPH" || len(resp.Plans[0].Tree) == 0 {
		t.Errorf("plans: %+v", resp.Plans)
	}
}

// TestFlightGroupSurvivesPanic pins the cleanup contract: a panicking
// computation must deregister its key and wake followers, not wedge
// the key until restart.
func TestFlightGroupSurvivesPanic(t *testing.T) {
	fg := newFlightGroup()
	key := planKey{fp: 7}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		fg.do(key, func() (*PlanResponse, error) { panic("boom") })
	}()
	// The key must be free again: a later caller computes normally.
	want := &PlanResponse{Fingerprint: "ok"}
	got, err, shared := fg.do(key, func() (*PlanResponse, error) { return want, nil })
	if err != nil || shared || got != want {
		t.Errorf("post-panic call: got %v shared=%v err=%v", got, shared, err)
	}
}

// TestFlightGroupCanceledLeaderRetries is the regression test for the
// error-sharing bug: a leader whose own request is canceled must not
// hand context.Canceled to its coalesced followers. Followers re-run
// the computation (one becomes the next leader) and all of them get
// the real response; the coalesced counter nets out to the followers
// actually served from another caller's flight.
func TestFlightGroupCanceledLeaderRetries(t *testing.T) {
	fg := newFlightGroup()
	key := planKey{fp: 3, targets: "1"}
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	want := &PlanResponse{Fingerprint: "real"}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, shared := fg.do(key, func() (*PlanResponse, error) {
			close(leaderIn)
			<-gate
			return nil, context.Canceled // the leader's client hung up
		})
		if shared || !errors.Is(err, context.Canceled) {
			t.Errorf("leader got shared=%v err=%v, want its own cancellation", shared, err)
		}
	}()
	<-leaderIn

	const followers = 4
	results := make([]*PlanResponse, followers)
	errs := make([]error, followers)
	var reran atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i], _ = fg.do(key, func() (*PlanResponse, error) {
				reran.Add(1)
				return want, nil
			})
		}(i)
	}
	// Wait for every follower to coalesce behind the doomed leader,
	// then cancel it.
	for {
		fg.mu.Lock()
		n := fg.coalesced
		fg.mu.Unlock()
		if n == followers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Errorf("follower %d inherited error %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("follower %d got %+v, want the recomputed response", i, results[i])
		}
	}
	if n := reran.Load(); n < 1 {
		t.Error("no follower re-ran the computation")
	}
	// Accounting: every follower served from a retried flight was
	// rolled back first, so hits+coalesced+computed still adds up:
	// followers = coalesced (behind the new leader) + recomputations.
	if got := fg.coalescedCount() + reran.Load(); got != followers {
		t.Errorf("coalesced %d + reruns %d != %d followers", fg.coalescedCount(), reran.Load(), followers)
	}
	if len(fg.inflight) != 0 {
		t.Errorf("%d stale in-flight entries", len(fg.inflight))
	}
}

// TestPlanCacheEvictedSplit is the regression test for the invisible
// capacity evictions: filling a cap-2 cache with four entries must
// report 2 evictions (put) and 0 drops, while an invalidation sweep
// reports drops and no evictions.
func TestPlanCacheEvictedSplit(t *testing.T) {
	c := newPlanCache(2)
	k := func(i int) planKey { return planKey{fp: uint64(i)} }
	r := func(i int) *PlanResponse { return &PlanResponse{Fingerprint: fmt.Sprint(i)} }
	for i := 1; i <= 4; i++ {
		c.put(k(i), r(i))
	}
	st := c.stats()
	if st.Size != 2 || st.Evicted != 2 || st.Dropped != 0 {
		t.Errorf("after capacity churn: %+v, want size 2, evicted 2, dropped 0", st)
	}
	if n := c.dropIf(func(key planKey) bool { return key.fp == 4 }); n != 1 {
		t.Fatalf("dropIf removed %d, want 1", n)
	}
	st = c.stats()
	if st.Evicted != 2 || st.Dropped != 1 {
		t.Errorf("after invalidation: %+v, want evicted 2, dropped 1", st)
	}
	// Refreshing an existing key is not an eviction.
	c.put(k(3), r(3))
	if st = c.stats(); st.Evicted != 2 {
		t.Errorf("refresh counted as eviction: %+v", st)
	}
}

// TestPlanCacheConcurrentDropIf hammers dropIf concurrently with put
// and get under -race: the invalidation sweep must be safe against
// simultaneous inserts, lookups and capacity evictions, and the cache
// must stay internally consistent.
func TestPlanCacheConcurrentDropIf(t *testing.T) {
	c := newPlanCache(32)
	k := func(i int) planKey { return planKey{fp: uint64(i % 64), targets: fmt.Sprint(i % 7)} }
	resp := &PlanResponse{Fingerprint: "x"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.put(k(i*4+w), resp)
				c.get(k(i * 3))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		c.dropIf(func(key planKey) bool { return key.fp%3 == uint64(i%3) })
	}
	close(stop)
	wg.Wait()
	st := c.stats()
	if st.Size > 32 {
		t.Errorf("cache overflowed its capacity: %+v", st)
	}
	c.mu.Lock()
	if c.ll.Len() != len(c.items) {
		t.Errorf("list/map divergence: %d vs %d", c.ll.Len(), len(c.items))
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if c.items[el.Value.(*cacheEntry).key] != el {
			t.Error("map entry does not point at its list element")
			break
		}
	}
	c.mu.Unlock()
}

// TestContentAddressedUploadFoldsSource is the regression test for the
// silent-source-swap bug: re-uploading the same graph with a different
// default source must land on a distinct content-addressed entry, not
// replace the prior entry's source while the fingerprint-keyed
// invalidation sweep drops nothing.
func TestContentAddressedUploadFoldsSource(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})

	// Same graph, two different default sources: two distinct entries.
	w1 := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{Platform: diamondText, Source: "S"})
	if w1.Code != http.StatusCreated {
		t.Fatalf("upload 1: %d %s", w1.Code, w1.Body.String())
	}
	up1 := decodeJSON[UploadResponse](t, w1)
	w2 := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{Platform: diamondText, Source: "r1"})
	if w2.Code != http.StatusCreated {
		t.Fatalf("upload with a new source replaced an entry: %d %s", w2.Code, w2.Body.String())
	}
	up2 := decodeJSON[UploadResponse](t, w2)
	if up1.ID == up2.ID {
		t.Fatalf("distinct default sources derived the same id %q", up1.ID)
	}
	if up1.Fingerprint != up2.Fingerprint {
		t.Error("graph fingerprint should not depend on the default source")
	}
	for _, up := range []UploadResponse{up1, up2} {
		if up.Replaced || up.Generation != 1 {
			t.Errorf("upload unexpectedly replaced something: %+v", up)
		}
	}
	// Both entries resolve, each with its own default source.
	e1, ok1 := s.reg.get(up1.ID)
	e2, ok2 := s.reg.get(up2.ID)
	if !ok1 || !ok2 || e1.sourceName != "S" || e2.sourceName != "r1" {
		t.Fatalf("entries did not keep their sources: %v/%v %v/%v", ok1, e1, ok2, e2)
	}

	// Same graph and same source: a genuine replace with a generation
	// bump (the historical path).
	w3 := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{Platform: diamondText, Source: "S"})
	if w3.Code != http.StatusOK {
		t.Fatalf("same-identity re-upload: %d", w3.Code)
	}
	up3 := decodeJSON[UploadResponse](t, w3)
	if up3.ID != up1.ID || !up3.Replaced || up3.Generation != 2 {
		t.Errorf("same-identity re-upload: %+v", up3)
	}
	// And no source at all keeps the historical pf-<fingerprint> form.
	w4 := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{Platform: diamondText})
	up4 := decodeJSON[UploadResponse](t, w4)
	if up4.ID != "pf-"+up4.Fingerprint {
		t.Errorf("bare-graph id %q, want pf-%s", up4.ID, up4.Fingerprint)
	}
}
