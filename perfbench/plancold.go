package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/serve"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// plan-cold: every request is a distinct-keyed no_cache plan, so each
// one reaches an evaluator — admission, shard routing and the per-request
// LP sit on the blocking path.
const (
	// coldPlatforms Tiers-small platforms share the pool of coldPoolSize
	// distinct target sets, so one run averages over several topologies
	// instead of riding on one platform's LP difficulty.
	coldPlatforms = 8
	coldPoolSize  = 256
	coldDensity   = 0.3
	// coldRate is the open-loop arrival rate, frozen at about a fifth of
	// the closed-loop capacity measured on a 2-core machine: at higher
	// load, queueing amplified the host's speed swings into tail spreads
	// beyond any allowed bound (spec.json).
	coldRate = 60.0
	// openShare is the part of a run spent in the open-loop phase; the
	// closed-loop capacity phase takes the rest.
	openShare = 0.75
)

// coldWorkload is one set-up of plan-cold: the uploaded platform, the
// request pool, and each request's reference body.
type coldWorkload struct {
	h         *harness
	platforms []*tiers.Platform
	pool      []*serve.PlanRequest
	ref       [][]byte

	mu    sync.Mutex
	items map[int64]int // traced run: request id -> pool item
}

func (w *coldWorkload) itemOf(req int64) (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i, ok := w.items[req]
	return i, ok
}

// coldPool draws n distinct target sets at coldDensity on platform k,
// each from its own derived seed.
func coldPool(pl *tiers.Platform, seed int64, k, n int) []*serve.PlanRequest {
	seen := map[string]bool{}
	var out []*serve.PlanRequest
	for i := 0; len(out) < n; i++ {
		ids := pl.RandomTargets(exp.NewRNG(seed, 2, k, i), coldDensity)
		names := make([]string, len(ids))
		for j, t := range ids {
			names[j] = pl.G.Name(t)
		}
		key := strings.Join(names, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, &serve.PlanRequest{
			PlanSpec: serve.PlanSpec{
				PlatformID: coldID(k),
				Targets:    names,
				Bounds:     []string{serve.BoundScatter, serve.BoundLB},
				Heuristics: []string{"MCPH"},
			},
			NoCache: true,
		})
	}
	return out
}

func coldID(k int) string { return "cold-" + strconv.Itoa(k) }

// upload registers every platform.
func (w *coldWorkload) upload(h *harness) error {
	for k, pl := range w.platforms {
		if _, err := h.upload(coldID(k), pl); err != nil {
			return err
		}
	}
	return nil
}

// setupCold generates the platform, starts the measured server, uploads,
// computes every reference body by serial requests to a second, fresh
// server, and warms the measured server up.
func setupCold(o options, tr *tracer) (*coldWorkload, error) {
	w := &coldWorkload{items: map[int64]int{}}
	for k := 0; k < coldPlatforms; k++ {
		id := tr.begin("tiers.generate", -1, 0)
		pl, err := tiers.Generate(tiers.Small(exp.DeriveSeed(o.seed, 1, k)))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		w.platforms = append(w.platforms, pl)
		w.pool = append(w.pool, coldPool(pl, o.seed, k, coldPoolSize/coldPlatforms)...)
	}

	fresh := newHarness(1, nil)
	defer fresh.close()
	if err := w.upload(fresh); err != nil {
		return nil, err
	}
	for _, req := range w.pool {
		c := fresh.begin("client.plan")
		body, _, err := fresh.client.PlanRaw(c.ctx, req)
		c.end()
		if err != nil {
			return nil, fmt.Errorf("reference plan: %w", err)
		}
		w.ref = append(w.ref, body)
	}

	w.h = newHarness(o.conns, tr)
	if err := w.upload(w.h); err != nil {
		w.h.close()
		return nil, err
	}
	for i := 0; i < 32; i++ {
		if err := w.plan(i%len(w.pool), nil); err != nil {
			w.h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// plan issues pool request i and checks the body against its reference.
// o, when non-nil, receives the connection and completion times.
func (w *coldWorkload) plan(i int, o *outcome) error {
	c := w.h.begin("client.plan")
	if c.tr != nil {
		w.mu.Lock()
		w.items[c.req] = i
		w.mu.Unlock()
	}
	body, _, err := w.h.client.PlanRaw(c.ctx, w.pool[i])
	c.end()
	if o != nil {
		o.conn, o.done = c.gotConn, time.Now()
	}
	if err == nil && !bytes.Equal(body, w.ref[i]) {
		err = errMismatch
	}
	return err
}

var errMismatch = errors.New("response body differs from its reference")

func (w *coldWorkload) schedule(seed int64, d time.Duration) []arrival {
	return poissonSchedule(exp.NewRNG(seed, 3), coldRate, d, func(r *rand.Rand) int { return r.Intn(len(w.pool)) })
}

// countOpen folds an open-loop phase into the run's attempts.
func countOpen(res *result, s openStats, n int) {
	res.attempted += n
	res.failed += s.failed
	if s.firstErr != nil {
		fmt.Printf("  %d of %d requests failed, first: %v\n", s.failed, n, s.firstErr)
	}
}

// countMismatches turns wrong bodies into failed checks.
func countMismatches(res *result, outs []outcome) {
	bad := 0
	for _, o := range outs {
		if errors.Is(o.err, errMismatch) {
			bad++
		}
	}
	if bad > 0 {
		res.problem("%d responses differ from their serial reference", bad)
	}
}

func runPlanCold(o options) (*result, error) {
	if o.trace {
		return runPlanColdTraced(o)
	}
	res := &result{}
	var w *coldWorkload
	setup, err := medianSetup(3, func(last bool) error {
		cw, err := setupCold(o, nil)
		if err != nil {
			return err
		}
		if last {
			w = cw
		} else {
			cw.h.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer w.h.close()

	before, err := w.h.stats()
	if err != nil {
		return nil, err
	}
	alloc0 := totalAlloc()
	openD := time.Duration(openShare * float64(o.seconds))
	outs := openLoop(w.schedule(o.seed, openD), func(oc *outcome) { oc.err = w.plan(oc.item, oc) })
	capRNG := make([]*rand.Rand, o.conns)
	for i := range capRNG {
		capRNG[i] = exp.NewRNG(o.seed, 4, i)
	}
	var mismatches atomic.Int64
	capacity, okN, failN := closedLoop(o.conns, o.seconds-openD, func(worker int) error {
		err := w.plan(capRNG[worker].Intn(len(w.pool)), nil)
		if errors.Is(err, errMismatch) {
			mismatches.Add(1)
		}
		return err
	})
	allocKB := float64(totalAlloc()-alloc0) / 1024
	after, err := w.h.stats()
	if err != nil {
		return nil, err
	}

	s := foldOpen(outs)
	countOpen(res, s, len(outs))
	countMismatches(res, outs)
	res.attempted += okN + failN
	res.failed += failN
	if n := mismatches.Load(); n > 0 {
		res.problem("%d capacity-phase responses differ from their serial reference", n)
	}
	checkNoFastPath(res, statsDelta{before, after})

	res.add("setup_s", "s", setup, "median of 3 set-ups: generate, upload, serial references, warm-up")
	res.add("ops_per_s", "1/s", capacity, fmt.Sprintf("closed-loop capacity on %d connections, %d requests", o.conns, okN))
	latencyMetrics(res, s, fmt.Sprintf("plans at %.0f/s", coldRate))
	res.add("alloc_kb_per_op", "KB", allocKB/float64(len(outs)+okN+failN), "TotalAlloc per request")
	res.add("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
	fmt.Printf("  fail_frac %.4g (%d of %d; %d shed)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, s.shed)
	fmt.Printf("  gen.late_ms_p99 %.4g  gen.conn_wait_ms_p99 %.4g\n", s.late.pct(99), s.connWait.pct(99))
	return res, nil
}

// libraryTimes computes every pool spec serially through the library
// calls a plan request makes — ScatterUB and MulticastLB on a fresh
// evaluator, then MCPH — with spans around each. It returns each spec's
// library time in milliseconds and the solver totals.
func libraryTimes(tr *tracer, w *coldWorkload) ([]float64, steady.SolveStats, error) {
	out := make([]float64, len(w.pool))
	var total steady.SolveStats
	for i, req := range w.pool {
		pl := w.platforms[i/(coldPoolSize/coldPlatforms)]
		targets := make([]graph.NodeID, len(req.Targets))
		for j, n := range req.Targets {
			v, ok := pl.G.NodeByName(n)
			if !ok {
				return nil, total, fmt.Errorf("unknown node %q", n)
			}
			targets[j] = v
		}
		p, err := steady.NewProblem(pl.G, pl.Source, targets)
		if err != nil {
			return nil, total, err
		}
		ev := steady.NewEvaluator()
		t0 := time.Now()
		id := tr.begin("steady.scatter", -1, int64(i))
		_, err = ev.ScatterUB(p)
		tr.end(id)
		if err != nil {
			return nil, total, err
		}
		id = tr.begin("steady.lb", -1, int64(i))
		_, err = ev.MulticastLB(p)
		tr.end(id)
		if err != nil {
			return nil, total, err
		}
		id = tr.begin("heur.mcph", -1, int64(i))
		_, err = heur.MCPH(p)
		tr.end(id)
		if err != nil {
			return nil, total, err
		}
		out[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		total.Add(ev.Stats())
	}
	return out, total, nil
}

func runPlanColdTraced(o options) (*result, error) {
	res := &result{}
	tr := newTracer()
	w, err := setupCold(o, tr)
	if err != nil {
		return nil, err
	}
	defer w.h.close()
	lib, libStats, err := libraryTimes(tr, w)
	if err != nil {
		return nil, err
	}

	// Phase A runs untraced, phase B traced, on the same schedule: the
	// p50 difference is the tracing overhead.
	half := o.seconds / 2
	sched := w.schedule(o.seed, half)
	w.h.trace.Store(nil)
	outsA := openLoop(sched, func(oc *outcome) { oc.err = w.plan(oc.item, oc) })
	w.h.trace.Store(tr)
	before, err := w.h.stats()
	if err != nil {
		return nil, err
	}
	mark := len(tr.snapshot())
	outsB := openLoop(sched, func(oc *outcome) { oc.err = w.plan(oc.item, oc) })
	after, err := w.h.stats()
	if err != nil {
		return nil, err
	}
	sA, sB := foldOpen(outsA), foldOpen(outsB)
	countOpen(res, sA, len(outsA))
	countMismatches(res, outsA)
	countOpen(res, sB, len(outsB))
	countMismatches(res, outsB)
	d := statsDelta{before, after}
	checkNoFastPath(res, d)

	spans := tr.snapshot()
	path, err := writeSpans(o, spans)
	if err != nil {
		return nil, err
	}
	st := summarize(spans)
	phaseB := summarizeFrom(spans, mark)
	// Wait is handler time minus the serial library time of the same
	// spec: admission, shard and coalescer wait, plus the codec.
	var handler, wait sample
	for _, s := range spans[mark:] {
		if s.Name != "serve.plan" {
			continue
		}
		ms := float64(s.dur()) / float64(time.Millisecond)
		handler = append(handler, ms)
		if item, ok := w.itemOf(s.Req); ok {
			wait = append(wait, ms-lib[item])
		}
	}
	libMs := sample(lib).sum()
	for _, b := range []string{"scatter", "lb"} {
		name := "steady." + b
		res.add(name+"_ms", "ms", st.byName[name].pct(50), fmt.Sprintf("n=%d serial library calls, self time p50", len(st.byName[name])))
		res.add(name+"_share", "ratio", ratio(st.byName[name].sum(), libMs), "self time / serial library time")
	}
	res.add("heur.mcph_ms", "ms", st.byName["heur.mcph"].pct(50), fmt.Sprintf("n=%d serial library calls", len(st.byName["heur.mcph"])))
	res.add("heur.mcph.simplex_iters", "count", 0, "MCPH builds its tree combinatorially, without the LP")
	res.add("tiers.generate_ms", "ms", st.byName["tiers.generate"].pct(50), "")
	n := fmt.Sprintf("n=%d requests", len(handler))
	res.add("serve.handler_ms_p50", "ms", handler.pct(50), n)
	res.add("serve.handler_ms_p99", "ms", handler.pct(99), n)
	res.add("serve.wait_ms_p99", "ms", wait.pct(99), fmt.Sprintf("n=%d, handler time minus serial library time of the spec", len(wait)))
	addServeMetrics(res, d, len(outsB))
	res.add("lp.us_per_iter", "us", ratio(libMs*1000, float64(libStats.Iterations+libStats.DualIters)),
		"computed: serial library time / simplex iterations")
	res.add("client.overhead_ms_p50", "ms", phaseB.byName["client.plan"].pct(50), "client span self time: latency minus handler time")
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
