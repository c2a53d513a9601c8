package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// marshalBody reproduces writeJSON's encoding (two-space indent plus
// trailing newline) so expected bodies compare byte-for-byte against
// recorded HTTP responses.
func marshalBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentPlansBitIdenticalToSerial is the server-path extension
// of the PR 1 sweep determinism test: 16 goroutines hammer one
// platform with a mix of plan requests through the full serving stack
// (evaluator pool, plan cache, coalescer), and every single response body
// must be byte-identical to the serial library-call reference — a
// fresh evaluator running the same canonical sequence. Whatever a
// request hits (cold or reused evaluator, cache, coalesced flight), the
// answer may never change by even an ULP.
func TestConcurrentPlansBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent determinism run is slow")
	}
	pl, err := tiers.Generate(tiers.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Shards: 4})
	w := httptest.NewRecorder()
	body, _ := json.Marshal(UploadRequest{ID: "tiers-small", Platform: text.String(), Source: pl.G.Name(pl.Source)})
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/platforms", bytes.NewReader(body)))
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	entry, ok := s.reg.get("tiers-small")
	if !ok {
		t.Fatal("platform not registered")
	}

	// A mixed request pool over distinct target sets: bounds-only
	// probes, single-heuristic requests and one full plan.
	type reqSpec struct {
		targets    []graph.NodeID
		bounds     []string
		heuristics []string
	}
	var specs []reqSpec
	menu := []struct {
		bounds     []string
		heuristics []string
	}{
		{nil, []string{}},                  // all bounds, no heuristics
		{[]string{"lb"}, []string{"MCPH"}}, // cheap probe
		{[]string{"scatter", "lb"}, []string{"Red. BC"}},
		{nil, nil}, // the full plan
		{[]string{"broadcast"}, []string{"MCPH", "Multisource MC"}},
	}
	for i, m := range menu {
		rng := exp.NewRNG(99, i)
		specs = append(specs, reqSpec{
			targets:    pl.RandomTargets(rng, 0.3),
			bounds:     m.bounds,
			heuristics: m.heuristics,
		})
	}

	// Serial reference: the library-call sequence on a fresh evaluator
	// per request, exactly what executePlan canonicalises.
	expected := make([][]byte, len(specs))
	requests := make([][]byte, len(specs))
	for i, spec := range specs {
		bounds, err := boundsMask(spec.bounds)
		if err != nil {
			t.Fatal(err)
		}
		heurs, err := heurMask(spec.heuristics)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := executePlan(steady.NewEvaluator(), entry.g, entry.fp, entry.source(t), spec.targets, bounds, heurs)
		if err != nil {
			t.Fatal(err)
		}
		ref.PlatformID = "tiers-small"
		expected[i] = marshalBody(t, ref)

		names := make([]string, len(spec.targets))
		for j, id := range spec.targets {
			names[j] = entry.g.Name(id)
		}
		requests[i], err = json.Marshal(PlanRequest{PlanSpec: PlanSpec{
			PlatformID: "tiers-small",
			Targets:    names,
			Bounds:     spec.bounds,
			Heuristics: spec.heuristics,
		}})
		if err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const perGoroutine = 10
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perGoroutine)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for n := 0; n < perGoroutine; n++ {
				i := (gi + n) % len(specs)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(requests[i])))
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					continue
				}
				if !bytes.Equal(w.Body.Bytes(), expected[i]) {
					errs <- "request " + string(rune('0'+i)) + " diverged from the serial reference"
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Accounting sanity: 160 plan requests were served, and the heavy
	// lifting collapsed to (roughly) one computation per distinct
	// request via the cache and the coalescer.
	st, served := s.pool.stats()
	if st.Solves == 0 {
		t.Error("no solver activity recorded")
	}
	var totalServed int64
	for _, c := range served {
		totalServed += c
	}
	if totalServed < int64(len(specs)) {
		t.Errorf("shards served %d computations, want >= %d", totalServed, len(specs))
	}
	cs := s.cache.stats()
	if cs.Hits+s.flight.coalescedCount()+totalServed != goroutines*perGoroutine {
		t.Errorf("accounting mismatch: hits %d + coalesced %d + computed %d != %d",
			cs.Hits, s.flight.coalescedCount(), totalServed, goroutines*perGoroutine)
	}
}

// source resolves the entry's default source NodeID for tests.
func (e *platformEntry) source(t *testing.T) graph.NodeID {
	t.Helper()
	id, ok := e.g.NodeByName(e.sourceName)
	if !ok {
		t.Fatalf("entry %q has no resolvable source %q", e.id, e.sourceName)
	}
	return id
}

// TestChurnDeterminism is the live-platform extension of the serving
// determinism contract: 8 goroutines PATCH one platform (exact
// power-of-two cost scalings, one edge each) while plan and batch
// traffic and an NDJSON subscriber run against it concurrently. Every
// versioned response — plan bodies by their X-Mcastd-Version header,
// batch plan lines by their embedded fingerprint, subscribe lines by
// their version field — must be byte-identical to a cold solve
// (executePlan on a fresh evaluator) of that version's snapshot, rebuilt
// by replaying the platform's mutation log onto the uploaded text. Churn may change WHICH answer a request gets, never a byte
// WITHIN any answer.
func TestChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("churn determinism run is slow")
	}
	pl, err := tiers.Generate(tiers.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Shards: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	body, _ := json.Marshal(UploadRequest{ID: "churn", Platform: text.String(), Source: pl.G.Name(pl.Source)})
	up, err := client.Post(ts.URL+"/v1/platforms", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", up.StatusCode)
	}

	rng := exp.NewRNG(7, 0)
	targets := pl.RandomTargets(rng, 0.3)
	names := make([]string, len(targets))
	for i, id := range targets {
		names[i] = pl.G.Name(id)
	}
	bounds := []string{"scatter", "lb"}
	heurs := []string{"MCPH"}

	planBody, _ := json.Marshal(PlanRequest{PlanSpec: PlanSpec{
		PlatformID: "churn", Targets: names, Bounds: bounds, Heuristics: heurs,
	}})
	batchBody, _ := json.Marshal(BatchRequest{
		PlanSpec: PlanSpec{PlatformID: "churn", Targets: names},
		Items: []BatchItem{
			{PlanSpec{Bounds: bounds, Heuristics: heurs}},
			{PlanSpec{Bounds: []string{"lb"}, Heuristics: []string{}}},
		},
	})

	const writers, patchesPerWriter = 8, 6
	finalVersion := int64(1 + writers*patchesPerWriter)

	// Subscriber: opened before the churn starts so it sees the initial
	// version too, reading until the stream converges to finalVersion.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	q := url.Values{}
	q.Set("targets", strings.Join(names, ","))
	q.Set("bounds", strings.Join(bounds, ","))
	q.Set("heuristics", strings.Join(heurs, ","))
	subReq, _ := http.NewRequestWithContext(subCtx, http.MethodGet,
		ts.URL+"/v1/platforms/churn/subscribe?"+q.Encode(), nil)
	subResp, err := client.Do(subReq)
	if err != nil {
		t.Fatal(err)
	}
	defer subResp.Body.Close()
	if subResp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %d", subResp.StatusCode)
	}
	if ct := subResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe content-type = %q", ct)
	}
	type subLine struct {
		Version int64           `json:"version"`
		Plan    json.RawMessage `json:"plan"`
		Error   json.RawMessage `json:"error"`
	}
	var subLines []subLine
	subDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(subResp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			var l subLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				subDone <- err
				return
			}
			subLines = append(subLines, l)
			if l.Version >= finalVersion {
				subDone <- nil
				return
			}
		}
		subDone <- sc.Err()
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 1024)
	patchVersions := make(chan int64, writers*patchesPerWriter)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			edge := wi % pl.G.NumEdges()
			for n := 0; n < patchesPerWriter; n++ {
				// Alternate x2 / x0.5: exact in floating point, so an even
				// number of patches returns the edge bit-exactly to base and
				// distinct versions collapse onto few distinct contents.
				factor := 2.0
				if n%2 == 1 {
					factor = 0.5
				}
				b, _ := json.Marshal(PatchRequest{Ops: []PatchOp{
					{Op: "scale_edge_cost", Edge: &edge, Factor: factor},
				}})
				req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/platforms/churn", bytes.NewReader(b))
				resp, err := client.Do(req)
				if err != nil {
					errs <- err.Error()
					continue
				}
				var pr PatchResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					errs <- fmt.Sprintf("patch: status %d err %v", resp.StatusCode, err)
					continue
				}
				patchVersions <- pr.Version
			}
		}(wi)
	}

	type recordedPlan struct {
		version int64
		body    []byte
	}
	planCh := make(chan recordedPlan, 1024)
	batchCh := make(chan []byte, 1024)
	for ri := 0; ri < 6; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				if (ri+n)%3 == 2 {
					resp, err := client.Post(ts.URL+"/v1/plan:batch", "application/json", bytes.NewReader(batchBody))
					if err != nil {
						errs <- err.Error()
						continue
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("batch: status %d", resp.StatusCode)
						continue
					}
					batchCh <- raw
					continue
				}
				resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(planBody))
				if err != nil {
					errs <- err.Error()
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				ver, perr := strconv.ParseInt(resp.Header.Get(HeaderVersion), 10, 64)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || perr != nil {
					errs <- fmt.Sprintf("plan: status %d version %q", resp.StatusCode, resp.Header.Get(HeaderVersion))
					continue
				}
				planCh <- recordedPlan{version: ver, body: raw}
			}
		}(ri)
	}
	wg.Wait()
	close(errs)
	close(patchVersions)
	close(planCh)
	close(batchCh)
	for e := range errs {
		t.Fatal(e)
	}
	select {
	case err := <-subDone:
		if err != nil {
			t.Fatalf("subscriber: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber did not converge to the final version")
	}
	subCancel()

	// Every PATCH claimed a distinct version and together they cover
	// 2..finalVersion exactly: mutations serialised, none lost.
	seen := make(map[int64]bool)
	for v := range patchVersions {
		if seen[v] {
			t.Fatalf("version %d claimed by two patches", v)
		}
		seen[v] = true
	}
	for v := int64(2); v <= finalVersion; v++ {
		if !seen[v] {
			t.Fatalf("version %d never claimed by a patch", v)
		}
	}

	// Cold references: rebuild every version by replaying the mutation
	// log onto the uploaded text, which also checks that the log is
	// faithful — each replayed fingerprint must equal the logged one.
	// Per distinct fingerprint (the x2/x0.5 toggling folds 49 versions
	// onto few contents), executePlan on a fresh evaluator.
	log, ok := s.reg.changes("churn")
	if !ok || int64(len(log)) != finalVersion {
		t.Fatalf("mutation log holds %d records, want %d", len(log), finalVersion)
	}
	g, err := graph.Decode(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	source, ok := g.NodeByName(pl.G.Name(pl.Source))
	if !ok {
		t.Fatal("uploaded text lost the source")
	}
	verToFp := make(map[int64]string)
	fpToGraph := make(map[string]*graph.Graph)
	for i, rec := range log {
		if rec.Version != int64(i+1) {
			t.Fatalf("log record %d has version %d", i, rec.Version)
		}
		g = g.Clone()
		for _, wireOp := range rec.Ops {
			op, err := resolvePatchOp(g, wireOp)
			if err != nil {
				t.Fatalf("replaying version %d: %v", rec.Version, err)
			}
			if _, err := (graph.Delta{op}).Apply(g); err != nil {
				t.Fatalf("replaying version %d: %v", rec.Version, err)
			}
		}
		fp := fmt.Sprintf("%016x", steady.Fingerprint(g))
		if fp != rec.Fingerprint {
			t.Fatalf("replayed version %d has fingerprint %s, the log records %s", rec.Version, fp, rec.Fingerprint)
		}
		verToFp[rec.Version] = fp
		if _, ok := fpToGraph[fp]; !ok {
			fpToGraph[fp] = g
		}
	}
	boundsM, _ := boundsMask(bounds)
	heursM, _ := heurMask(heurs)
	lbM, _ := boundsMask([]string{"lb"})
	noneH, _ := heurMask([]string{})
	fullRef := make(map[string]*PlanResponse)
	lbRef := make(map[string]*PlanResponse)
	refFor := func(cache map[string]*PlanResponse, fp string, bm, hm uint8) *PlanResponse {
		if r, ok := cache[fp]; ok {
			return r
		}
		g, ok := fpToGraph[fp]
		if !ok {
			t.Fatalf("response fingerprint %s matches no logged version", fp)
		}
		ref, err := executePlan(steady.NewEvaluator(), g, steady.Fingerprint(g), source, targets, bm, hm)
		if err != nil {
			t.Fatalf("cold solve of fingerprint %s: %v", fp, err)
		}
		ref.PlatformID = "churn"
		cache[fp] = ref
		return ref
	}

	plans := 0
	for rec := range planCh {
		plans++
		ref := refFor(fullRef, verToFp[rec.version], boundsM, heursM)
		if !bytes.Equal(rec.body, marshalBody(t, ref)) {
			t.Fatalf("plan response at version %d diverged from the cold solve of that snapshot", rec.version)
		}
	}
	if plans == 0 {
		t.Fatal("no plan responses recorded")
	}

	if len(subLines) == 0 {
		t.Fatal("no subscribe lines recorded")
	}
	lastVer := int64(0)
	for _, l := range subLines {
		if l.Error != nil {
			t.Fatalf("subscribe error line at version %d: %s", l.Version, l.Error)
		}
		if l.Version <= lastVer {
			t.Fatalf("subscribe versions not strictly increasing: %d after %d", l.Version, lastVer)
		}
		lastVer = l.Version
		ref := refFor(fullRef, verToFp[l.Version], boundsM, heursM)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Plan, want) {
			t.Fatalf("subscribe plan at version %d diverged from the cold solve of that snapshot", l.Version)
		}
	}
	if subLines[len(subLines)-1].Version != finalVersion {
		t.Fatalf("subscriber converged to version %d, want %d", lastVer, finalVersion)
	}

	type batchLine struct {
		Kind  string          `json:"kind"`
		Index int             `json:"index"`
		Plan  json.RawMessage `json:"plan"`
		Error json.RawMessage `json:"error"`
	}
	batches := 0
	for raw := range batchCh {
		batches++
		for _, lineRaw := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var l batchLine
			if err := json.Unmarshal(lineRaw, &l); err != nil {
				t.Fatalf("bad batch line %q: %v", lineRaw, err)
			}
			if l.Kind != "plan" {
				continue
			}
			if l.Error != nil {
				t.Fatalf("batch item %d errored: %s", l.Index, l.Error)
			}
			var probe struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(l.Plan, &probe); err != nil {
				t.Fatal(err)
			}
			var ref *PlanResponse
			if l.Index == 0 {
				ref = refFor(fullRef, probe.Fingerprint, boundsM, heursM)
			} else {
				ref = refFor(lbRef, probe.Fingerprint, lbM, noneH)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(l.Plan, want) {
				t.Fatalf("batch item %d at fingerprint %s diverged from the cold solve", l.Index, probe.Fingerprint)
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batch responses recorded")
	}

	// Live accounting flowed through /v1/stats.
	st, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if stats.Live.Patches != writers*patchesPerWriter {
		t.Errorf("stats.live.patches = %d, want %d", stats.Live.Patches, writers*patchesPerWriter)
	}
	if stats.Live.StreamsStarted != 1 || stats.Live.Updates == 0 {
		t.Errorf("stats.live streams=%d updates=%d", stats.Live.StreamsStarted, stats.Live.Updates)
	}
}
