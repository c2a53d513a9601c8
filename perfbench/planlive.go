package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/mcastclient"
	"repro/internal/serve"
	"repro/internal/tiers"
)

// plan-live: the loadgen churn-live mix made open-loop. Reads are mostly
// plan-cache hits; a fixed-tick PATCH writer invalidates the cache and
// wakes the replan loop behind one subscription.
const (
	liveHotSets  = 8
	liveRoamSets = 64
	liveDensity  = 0.3
	// liveRate is the open-loop read rate, frozen at about a fifth of the
	// closed-loop read capacity measured on a 2-core machine (spec.json).
	liveRate = 1000.0
	// liveTick is the PATCH writer's fixed tick. Each PATCH makes the
	// hot sets recompute on the one read connection; at 200 ms that
	// stays well under half the time even when the host runs at half
	// speed, so p50 remains a cache-hit latency.
	liveTick = 200 * time.Millisecond
)

type bodyKey struct {
	version int64
	item    int
}

// liveWorkload is one set-up of plan-live.
type liveWorkload struct {
	h     *harness
	pool  []*serve.PlanRequest // liveHotSets hot (patched platform), then roaming
	edges int

	sub       *mcastclient.Subscription
	subCancel context.CancelFunc

	mu     sync.Mutex
	fps    map[string]map[int64]string // platform -> version -> fingerprint
	bodies map[bodyKey][]byte          // first body per (version, item)
	bad    int                         // bodies differing for one (version, item)
}

// livePool draws n target sets at liveDensity on platform id.
func livePool(pl *tiers.Platform, id string, seed int64, coord, n int) []*serve.PlanRequest {
	out := make([]*serve.PlanRequest, n)
	for i := range out {
		ids := pl.RandomTargets(exp.NewRNG(seed, coord, i), liveDensity)
		names := make([]string, len(ids))
		for j, t := range ids {
			names[j] = pl.G.Name(t)
		}
		out[i] = &serve.PlanRequest{PlanSpec: serve.PlanSpec{
			PlatformID: id,
			Targets:    names,
			Bounds:     []string{serve.BoundScatter, serve.BoundLB},
			Heuristics: []string{},
		}}
	}
	return out
}

func (w *liveWorkload) noteVersion(id string, version int64, fp string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fps[id] == nil {
		w.fps[id] = map[int64]string{}
	}
	w.fps[id][version] = fp
}

// liveConns is the connection budget of plan-live: nproc, but at least
// two, because the subscription holds one for the whole run.
func liveConns(o options) int { return max(o.conns, 2) }

func setupLive(o options, tr *tracer) (*liveWorkload, error) {
	w := &liveWorkload{
		fps:    map[string]map[int64]string{},
		bodies: map[bodyKey][]byte{},
	}
	w.h = newHarness(liveConns(o), tr)
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	for k, id := range []string{"live", "roam"} {
		sp := tr.begin("tiers.generate", -1, 0)
		pl, err := tiers.Generate(tiers.Small(exp.DeriveSeed(o.seed, k+1)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		up, err := w.h.upload(id, pl)
		if err != nil {
			return nil, err
		}
		w.noteVersion(id, up.Version, up.Fingerprint)
		if id == "live" {
			w.pool = append(w.pool, livePool(pl, id, o.seed, 3, liveHotSets)...)
			w.edges = pl.G.NumEdges()
		} else {
			w.pool = append(w.pool, livePool(pl, id, o.seed, 4, liveRoamSets)...)
		}
	}
	for i := range w.pool {
		if err := w.read(i, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	hot := w.pool[0]
	sub, err := w.h.client.Subscribe(ctx, "live", mcastclient.SubscribeSpec{
		Targets: hot.Targets, Bounds: hot.Bounds, Heuristics: hot.Heuristics,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	if _, err := sub.Next(); err != nil { // the current plan, sent on subscribe
		sub.Close()
		cancel()
		return nil, err
	}
	w.sub, w.subCancel = sub, cancel
	ok = true
	return w, nil
}

func (w *liveWorkload) close() {
	if w.sub != nil {
		w.subCancel()
		w.sub.Close()
	}
	w.h.close()
}

// pick draws the hot-skew mix: 90% from the hot sets, 10% roaming.
func (w *liveWorkload) pick(r *rand.Rand) int {
	if r.Float64() < 0.9 {
		return r.Intn(liveHotSets)
	}
	return liveHotSets + r.Intn(liveRoamSets)
}

// read issues pool request i; bodies for one (version, item) must be
// byte-identical, which read checks as it goes.
func (w *liveWorkload) read(i int, o *outcome) error {
	c := w.h.begin("client.plan")
	body, hdr, err := w.h.client.PlanRaw(c.ctx, w.pool[i])
	c.end()
	if o != nil {
		o.conn, o.done = c.gotConn, time.Now()
	}
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(hdr.Get(serve.HeaderVersion), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s header: %w", serve.HeaderVersion, err)
	}
	k := bodyKey{v, i}
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.bodies[k]; !ok {
		w.bodies[k] = body
	} else if !bytes.Equal(first, body) {
		w.bad++
		return errMismatch
	}
	return nil
}

// checkBodies folds the per-version bodies by fingerprint: a version
// whose content repeats an earlier fingerprint must answer each spec
// with the same bytes.
func (w *liveWorkload) checkBodies(res *result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bad > 0 {
		res.problem("%d plan bodies differ within one platform version", w.bad)
	}
	type fpKey struct {
		fp   string
		item int
	}
	seen := map[fpKey][]byte{}
	missing, differ := 0, 0
	for k, body := range w.bodies {
		fp, ok := w.fps[w.pool[k.item].PlatformID][k.version]
		if !ok {
			missing++
			continue
		}
		fk := fpKey{fp, k.item}
		if first, ok := seen[fk]; !ok {
			seen[fk] = body
		} else if !bytes.Equal(first, body) {
			differ++
		}
	}
	if missing > 0 {
		res.problem("%d plan bodies carry a version no upload or PATCH reported", missing)
	}
	if differ > 0 {
		res.problem("%d plan bodies differ for one (fingerprint, spec)", differ)
	}
}

// patchOutcome is one PATCH of the writer.
type patchOutcome struct {
	offset      time.Duration // due time from the writer's start
	due, ack    time.Time
	version     int64
	invalidated int
	err         error
}

// writer PATCHes the hot platform at a fixed tick: one edge scaled x2,
// then the same edge x0.5, so content revisits earlier fingerprints.
func (w *liveWorkload) writer(seed int64, d time.Duration) []patchOutcome {
	sched := tickSchedule(liveTick, d)
	out := make([]patchOutcome, len(sched))
	rng := exp.NewRNG(seed, 5)
	edge := 0
	start := time.Now()
	for i, a := range sched {
		if i%2 == 0 {
			edge = rng.Intn(w.edges)
		}
		factor := 2.0
		if i%2 == 1 {
			factor = 0.5
		}
		p := &out[i]
		p.offset, p.due = a.Due, start.Add(a.Due)
		if d := time.Until(p.due); d > 0 {
			time.Sleep(d)
		}
		c := w.h.begin("client.patch")
		e := edge
		resp, err := w.h.client.PatchPlatform(c.ctx, "live", &serve.PatchRequest{
			Ops: []serve.PatchOp{{Op: "scale_edge_cost", Edge: &e, Factor: factor}},
		})
		c.end()
		p.ack, p.err = time.Now(), err
		if err == nil {
			p.version, p.invalidated = resp.Version, resp.Invalidated
			w.noteVersion("live", resp.Version, resp.Fingerprint)
		}
	}
	return out
}

// subLine is one subscription line as received.
type subLine struct {
	version int64
	at      time.Time
}

// subscriber reads the replan stream until the subscription is closed,
// checking that versions strictly increase.
func (w *liveWorkload) subscriber(res *result) []subLine {
	var lines []subLine
	last := int64(-1)
	for {
		l, err := w.sub.Next()
		if err != nil {
			return lines
		}
		now := time.Now()
		if l.Error != nil {
			res.problem("subscription line for version %d carries error %s", l.Version, l.Error.Message)
		}
		if l.Version <= last {
			res.problem("subscription version %d after %d: versions must strictly increase", l.Version, last)
		}
		last = l.Version
		lines = append(lines, subLine{l.Version, now})
	}
}

// updateLags measures, for every acknowledged PATCH, the time from its
// acknowledgement until the subscriber held a line of that version or
// newer (0 when the line arrived before the acknowledgement).
func updateLags(patches []patchOutcome, lines []subLine) sample {
	var lag sample
	for _, p := range patches {
		if p.err != nil {
			continue
		}
		k := sort.Search(len(lines), func(i int) bool { return lines[i].version >= p.version })
		if k == len(lines) {
			continue // the run ended before the update arrived
		}
		lag.addDur(max(lines[k].at.Sub(p.ack), 0))
	}
	return lag
}

func patchLatencies(patches []patchOutcome) (lat sample, failed int, invalidated float64) {
	for _, p := range patches {
		if p.err != nil {
			failed++
			continue
		}
		lat.addDur(p.ack.Sub(p.due))
		invalidated += float64(p.invalidated)
	}
	return lat, failed, invalidated
}

// liveRun runs the writer and the subscriber around body, which drives
// the reads, and returns what they observed. The subscription closes
// once the writer is done and the last replan had time to arrive.
func (w *liveWorkload) liveRun(o options, res *result, writeFor time.Duration, body func()) ([]patchOutcome, []subLine) {
	var patches []patchOutcome
	var lines []subLine
	subRes := &result{}
	writerDone, subDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		patches = w.writer(o.seed, writeFor)
	}()
	go func() {
		defer close(subDone)
		lines = w.subscriber(subRes)
	}()
	body()
	<-writerDone
	time.Sleep(200 * time.Millisecond)
	w.subCancel()
	w.sub.Close()
	<-subDone
	w.sub = nil
	res.problems = append(res.problems, subRes.problems...)
	return patches, lines
}

func runPlanLive(o options) (*result, error) {
	if o.trace {
		return runPlanLiveTraced(o)
	}
	res := &result{}
	var w *liveWorkload
	setup, err := medianSetup(3, func(last bool) error {
		lw, err := setupLive(o, nil)
		if err != nil {
			return err
		}
		if last {
			w = lw
		} else {
			lw.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer w.close()

	alloc0 := totalAlloc()
	openD := time.Duration(openShare * float64(o.seconds))
	var outs []outcome
	var capacity float64
	var okN, failN int
	readers := liveConns(o) - 1
	patches, lines := w.liveRun(o, res, o.seconds, func() {
		outs = openLoop(w.schedule(o.seed, openD), func(oc *outcome) { oc.err = w.read(oc.item, oc) })
		rngs := make([]*rand.Rand, readers)
		for i := range rngs {
			rngs[i] = exp.NewRNG(o.seed, 7, i)
		}
		capacity, okN, failN = closedLoop(readers, o.seconds-openD, func(worker int) error {
			return w.read(w.pick(rngs[worker]), nil)
		})
	})
	allocKB := float64(totalAlloc()-alloc0) / 1024

	s := foldOpen(outs)
	countOpen(res, s, len(outs))
	res.attempted += okN + failN + len(patches)
	res.failed += failN
	var openPatches []patchOutcome
	for _, p := range patches {
		if p.offset < openD {
			openPatches = append(openPatches, p)
		}
	}
	patchLat, patchFailed, _ := patchLatencies(patches)
	res.failed += patchFailed
	w.checkBodies(res)
	lag := updateLags(openPatches, lines)
	openPatchLat, _, _ := patchLatencies(openPatches)

	res.add("setup_s", "s", setup, "median of 3 set-ups: generate, upload, warm-up, subscribe")
	res.add("ops_per_s", "1/s", capacity, fmt.Sprintf("closed-loop reads on %d connection(s) beside the writer and subscription, %d reads", readers, okN))
	latencyMetrics(res, s, fmt.Sprintf("reads at %.0f/s", liveRate))
	res.add("alloc_kb_per_op", "KB", allocKB/float64(len(outs)+okN+failN+len(patches)), "TotalAlloc per read or PATCH")
	res.add("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
	fmt.Printf("  patch_p50_ms %.4g ms (n=%d open-phase PATCHes, from due time; all phases p50 %.4g ms, n=%d)\n",
		openPatchLat.pct(50), len(openPatchLat), patchLat.pct(50), len(patchLat))
	fmt.Printf("  update_lag_p50_ms %.4g ms, update_lag_p90_ms %.4g ms (n=%d, %d lines received)\n",
		lag.pct(50), lag.pct(90), len(lag), len(lines))
	fmt.Printf("  fail_frac %.4g (%d of %d; %d shed)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, s.shed)
	fmt.Printf("  gen.late_ms_p99 %.4g  gen.conn_wait_ms_p99 %.4g\n", s.late.pct(99), s.connWait.pct(99))
	return res, nil
}

func (w *liveWorkload) schedule(seed int64, d time.Duration) []arrival {
	return poissonSchedule(exp.NewRNG(seed, 6), liveRate, d, w.pick)
}

func runPlanLiveTraced(o options) (*result, error) {
	res := &result{}
	tr := newTracer()
	w, err := setupLive(o, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Phase A untraced, phase B traced, on the same read schedule; the
	// writer and the subscription run through both.
	half := o.seconds / 2
	sched := w.schedule(o.seed, half)
	var outsA, outsB []outcome
	var before, after *serve.StatsResponse
	var statsErr error
	var mark int
	var bStart, bEnd time.Time
	patches, lines := w.liveRun(o, res, 2*half, func() {
		w.h.trace.Store(nil)
		outsA = openLoop(sched, func(oc *outcome) { oc.err = w.read(oc.item, oc) })
		w.h.trace.Store(tr)
		if before, statsErr = w.h.stats(); statsErr != nil {
			return
		}
		mark = len(tr.snapshot())
		bStart = time.Now()
		outsB = openLoop(sched, func(oc *outcome) { oc.err = w.read(oc.item, oc) })
		bEnd = time.Now()
		after, statsErr = w.h.stats()
	})
	if statsErr != nil {
		return nil, statsErr
	}
	sA, sB := foldOpen(outsA), foldOpen(outsB)
	countOpen(res, sA, len(outsA))
	countOpen(res, sB, len(outsB))
	res.attempted += len(patches)
	w.checkBodies(res)

	var phaseB []patchOutcome
	for _, p := range patches {
		if !p.due.Before(bStart) && p.due.Before(bEnd) {
			phaseB = append(phaseB, p)
		}
	}
	patchLat, patchFailed, invalidated := patchLatencies(phaseB)
	res.failed += patchFailed
	lag := updateLags(phaseB, lines)
	linesB := 0
	for _, l := range lines {
		if !l.at.Before(bStart) && l.at.Before(bEnd) {
			linesB++
		}
	}
	d := statsDelta{before, after}
	checkNoFastPath(res, d)
	solver := after.Solver.Delta(before.Solver)
	versions := float64(len(phaseB) - patchFailed)

	spans := tr.snapshot()
	path, err := writeSpans(o, spans)
	if err != nil {
		return nil, err
	}
	st := summarize(spans)
	phase := summarizeFrom(spans, mark)
	handler := spanDurations(spans[mark:], "serve.plan")
	patchHandler := spanDurations(spans[mark:], "serve.patch")

	res.add("tiers.generate_ms", "ms", st.byName["tiers.generate"].pct(50), "")
	n := fmt.Sprintf("n=%d reads", len(handler))
	res.add("serve.handler_ms_p50", "ms", handler.pct(50), n)
	res.add("serve.handler_ms_p99", "ms", handler.pct(99), n)
	addServeMetrics(res, d, len(outsB))
	res.add("serve.invalidated_per_patch", "count", ratio(invalidated, versions), "PatchResponse.Invalidated mean")
	res.add("serve.patch_handler_ms_p50", "ms", patchHandler.pct(50), fmt.Sprintf("n=%d PATCHes", len(patchHandler)))
	res.add("live.patch_ack_ms_p50", "ms", patchLat.pct(50), fmt.Sprintf("n=%d PATCHes, from due time", len(patchLat)))
	res.add("live.update_lag_ms_p50", "ms", lag.pct(50), fmt.Sprintf("n=%d, PATCH ack to subscriber line", len(lag)))
	res.add("live.update_lag_ms_p90", "ms", lag.pct(90), fmt.Sprintf("n=%d", len(lag)))
	res.add("live.updates_per_version", "ratio", ratio(float64(linesB), versions), fmt.Sprintf("%d lines / %.0f versions", linesB, versions))
	res.add("live.simplex_iters_per_version", "count", ratio(float64(solver.Iterations+solver.DualIters), versions), "all solver work in the phase / versions")
	res.add("live.warm_ratio", "ratio", ratio(float64(solver.WarmSolves), float64(solver.WarmAttempts)), "")
	res.add("client.overhead_ms_p50", "ms", phase.byName["client.plan"].pct(50), "client span self time: latency minus handler time")
	tailMetrics(res, sB)
	res.add("gen.late_ms_p99", "ms", sB.late.pct(99), "")
	res.add("gen.conn_wait_ms_p99", "ms", sB.connWait.pct(99), "")
	addLayerSelf(res, st)
	res.add("trace_overhead_frac", "ratio", sB.lat.pct(50)/sA.lat.pct(50)-1,
		fmt.Sprintf("traced p50 %.4gms vs untraced %.4gms", sB.lat.pct(50), sA.lat.pct(50)))
	res.add("fail_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), fmt.Sprintf("%d of %d", res.failed, res.attempted))
	fmt.Printf("  spans: %d written to %s\n", len(spans), path)
	return res, nil
}

// spanDurations collects the durations of the named spans, in ms.
func spanDurations(spans []span, name string) sample {
	var out sample
	for _, s := range spans {
		if s.Name == name {
			out.addDur(s.dur())
		}
	}
	return out
}
