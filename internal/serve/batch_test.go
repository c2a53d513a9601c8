package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/steady"
)

// batchNDJSON marshals the expected NDJSON stream for a batch: one
// compact plan line per response in submission order, then the
// summary. This is the byte-level contract of POST /v1/plan:batch and
// of GET /v1/jobs/{id}/stream.
func batchNDJSON(t *testing.T, lines []BatchLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// serialBatchReference computes the expected plan line sequence for
// the given specs on a fresh evaluator per item — the serial reference
// every batch execution must reproduce byte for byte.
func serialBatchReference(t *testing.T, s *Server, specs []PlanSpec) []byte {
	t.Helper()
	lines := make([]BatchLine, 0, len(specs)+1)
	for i, spec := range specs {
		res, err := s.resolve(&spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		ref, err := executeResolved(steady.NewEvaluator(), res)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		lines = append(lines, BatchLine{Kind: "plan", Index: i, Plan: ref})
	}
	lines = append(lines, BatchLine{Kind: "summary", Items: len(specs)})
	return batchNDJSON(t, lines)
}

func uploadDiamond(t *testing.T, s *Server, id string) {
	t.Helper()
	w := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: id, Platform: diamondText, Source: "S"})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
}

// TestBatchEndpoint covers the happy path: shared platform reference,
// per-item targets, NDJSON plan lines in submission order, one summary
// line, and every plan byte-identical to the serial reference.
func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	uploadDiamond(t, s, "d")

	req := BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d", Bounds: []string{"scatter", "lb"}, Heuristics: []string{"MCPH"}},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"t2"}}},
			{PlanSpec{Targets: []string{"t1", "t2"}}},
		},
	}
	w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	specs := make([]PlanSpec, len(req.Items))
	for i := range req.Items {
		specs[i] = *req.PlanSpec.merged(&req.Items[i].PlanSpec)
	}
	if want := serialBatchReference(t, s, specs); !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("batch stream diverged from serial reference:\ngot  %s\nwant %s", w.Body.Bytes(), want)
	}

	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Batch.Requests != 1 || st.Batch.Items != 3 || st.Batch.Errors != 0 {
		t.Errorf("batch stats %+v", st.Batch)
	}
}

// TestBatchSpecMerging covers the shared/per-item layering: item
// fields override the shared spec field by field, and an item naming
// its own platform (by ID or inline) replaces the shared addressing
// entirely.
func TestBatchSpecMerging(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	uploadDiamond(t, s, "d")
	uploadDiamond(t, s, "d2")

	req := BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{}},
		Items: []BatchItem{
			{PlanSpec{}},                                   // pure inheritance
			{PlanSpec{Targets: []string{"t2"}}},            // target override
			{PlanSpec{PlatformID: "d2"}},                   // platform override by ID
			{PlanSpec{Platform: diamondText, Source: "S"}}, // inline platform replaces shared ID
			{PlanSpec{Bounds: []string{"lb"}}},             // bound subset override
		},
	}
	w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	raw := strings.TrimSuffix(w.Body.String(), "\n")
	parts := strings.Split(raw, "\n")
	if len(parts) != len(req.Items)+1 {
		t.Fatalf("%d lines, want %d", len(parts), len(req.Items)+1)
	}
	var lines []BatchLine
	for _, p := range parts {
		var line BatchLine
		if err := json.Unmarshal([]byte(p), &line); err != nil {
			t.Fatalf("bad line %q: %v", p, err)
		}
		lines = append(lines, line)
	}
	for i, line := range lines[:len(req.Items)] {
		if line.Kind != "plan" || line.Index != i || line.Error != nil {
			t.Fatalf("line %d: %+v", i, line)
		}
	}
	if got := lines[0].Plan.Targets; len(got) != 1 || got[0] != "t1" {
		t.Errorf("item 0 targets %v, want the shared [t1]", got)
	}
	if got := lines[1].Plan.Targets; len(got) != 1 || got[0] != "t2" {
		t.Errorf("item 1 targets %v, want the override [t2]", got)
	}
	if lines[2].Plan.PlatformID != "d2" {
		t.Errorf("item 2 platform %q, want the override d2", lines[2].Plan.PlatformID)
	}
	if lines[3].Plan.PlatformID != "" {
		t.Errorf("item 3 platform %q, want empty (inline platform)", lines[3].Plan.PlatformID)
	}
	if got := lines[4].Plan.Bounds; len(got) != 1 || got[0].Name != "lb" {
		t.Errorf("item 4 bounds %+v, want just lb", got)
	}
}

// TestBatchItemErrors: a failing item yields an error line with the
// envelope's body shape and never aborts its siblings.
func TestBatchItemErrors(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	uploadDiamond(t, s, "d")

	req := BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d", Heuristics: []string{}},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"nope"}}},                      // unknown target
			{PlanSpec{PlatformID: "missing", Targets: []string{"t1"}}}, // unknown platform
			{PlanSpec{Targets: []string{"t2"}}},
		},
	}
	w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	parts := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(parts) != 5 {
		t.Fatalf("%d lines, want 5", len(parts))
	}
	var lines []BatchLine
	for _, p := range parts {
		var line BatchLine
		if err := json.Unmarshal([]byte(p), &line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if lines[0].Error != nil || lines[3].Error != nil {
		t.Errorf("good items carried errors: %+v %+v", lines[0].Error, lines[3].Error)
	}
	if lines[1].Error == nil || lines[1].Error.Code != CodeBadRequest {
		t.Errorf("item 1 error %+v, want bad_request", lines[1].Error)
	}
	if lines[2].Error == nil || lines[2].Error.Code != CodeNotFound {
		t.Errorf("item 2 error %+v, want not_found", lines[2].Error)
	}
	if sum := lines[4]; sum.Kind != "summary" || sum.Items != 4 || sum.ErrorCount != 2 {
		t.Errorf("summary %+v", sum)
	}
}

// TestBatchValidation: shape errors are envelope errors at the batch
// level, before any item runs.
func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, MaxBatchItems: 2})
	uploadDiamond(t, s, "d")
	cases := []struct {
		req  BatchRequest
		want int
	}{
		{BatchRequest{PlanSpec: PlanSpec{PlatformID: "d"}}, http.StatusBadRequest}, // no items
		{BatchRequest{PlanSpec: PlanSpec{PlatformID: "d"}, Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"t2"}}},
			{PlanSpec{Targets: []string{"t1", "t2"}}},
		}}, http.StatusBadRequest}, // over MaxBatchItems
	}
	for i, tc := range cases {
		w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", tc.req)
		if w.Code != tc.want {
			t.Errorf("case %d: %d, want %d (%s)", i, w.Code, tc.want, w.Body.String())
		}
		env := decodeJSON[ErrorEnvelope](t, w)
		if env.Error.Code != CodeBadRequest {
			t.Errorf("case %d: code %q", i, env.Error.Code)
		}
	}
}

// TestBatchHitsCacheAndCoalesces: identical specs inside and across
// batches share the plan cache and the coalescer with interactive
// traffic — a repeated batch costs no additional solves.
func TestBatchHitsCacheAndCoalesces(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	uploadDiamond(t, s, "d")

	// Interactive request first: the batch's identical item must be a
	// cache hit.
	doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{}}})
	st0 := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))

	req := BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d", Heuristics: []string{}},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}}, // cached by the interactive request
			{PlanSpec{Targets: []string{"t2"}}}, // fresh
		},
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", req); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	st1 := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if hits := st1.PlanCache.Hits - st0.PlanCache.Hits; hits < 1 {
		t.Errorf("batch scored %d cache hits, want >= 1", hits)
	}

	// The same batch again: every item is a cache hit, zero new solves.
	solves0 := st1.Solver.Solves
	if w := doJSON(t, s, http.MethodPost, "/v1/plan:batch", req); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	st2 := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st2.Solver.Solves != solves0 {
		t.Errorf("repeated batch added %d solves, want 0", st2.Solver.Solves-solves0)
	}
}

// TestConcurrentBatchesBitIdenticalToSerial is the batch extension of
// the PR 5 concurrent determinism test: several goroutines run the
// same batches while others hammer the interactive plan endpoint with
// overlapping specs, and every batch body must equal the serial
// per-item reference byte for byte — whatever evaluator an item
// computed on, whether it hit the cache, coalesced behind a batch sibling or
// behind an interactive request.
func TestConcurrentBatchesBitIdenticalToSerial(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4})
	uploadDiamond(t, s, "d")

	req := BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "d"},
		Items: []BatchItem{
			{PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec{Targets: []string{"t2"}, Heuristics: []string{"MCPH"}}},
			{PlanSpec{Targets: []string{"t1", "t2"}}},
			{PlanSpec{Targets: []string{"t2", "t1"}, Bounds: []string{"lb"}, Heuristics: []string{}}},
		},
	}
	specs := make([]PlanSpec, len(req.Items))
	for i := range req.Items {
		specs[i] = *req.PlanSpec.merged(&req.Items[i].PlanSpec)
	}
	want := serialBatchReference(t, s, specs)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	planBody, err := json.Marshal(PlanRequest{PlanSpec: specs[2]})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perGoroutine = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perGoroutine)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for n := 0; n < perGoroutine; n++ {
				if gi%2 == 1 {
					// Interactive traffic overlapping the batch's specs.
					w := httptest.NewRecorder()
					s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(planBody)))
					if w.Code != http.StatusOK {
						errs <- w.Body.String()
					}
					continue
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan:batch", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					continue
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					errs <- "batch stream diverged from the serial reference"
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
