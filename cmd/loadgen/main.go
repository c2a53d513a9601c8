// Command loadgen drives a mcastd daemon with synthetic plan traffic
// and reports request rates and latency percentiles. It exists to make
// the serving layer's concurrency story measurable: how the plan
// cache, the coalescer and the evaluator pool behave under realistic
// arrival shapes rather than under one benchmark loop.
//
// Usage:
//
//	loadgen [-addr http://host:8723]
//	        [-shape hot|churn|herd|churn-live|overload]
//	        [-clients N] [-duration 5s] [-seed 1] [-smoke]
//
// With no -addr, loadgen starts an in-process daemon on a loopback
// listener, so it is runnable anywhere the repo builds. Each run first
// measures a serial baseline (one client, same request mix), then the
// concurrent phase, and prints both — on the hot shape with the cache
// enabled, the concurrent rate should beat the serial baseline.
//
// Shapes:
//
//	hot    hot-platform skew: 90% of requests draw from a small pool
//	       of repeating target sets on one platform (cache-friendly),
//	       10% roam a second platform with fresh target sets.
//	churn  the hot shape, but the hot platform is re-uploaded (content
//	       swapped, generation bumped) at a steady tick, invalidating
//	       its cache entries while requests are in flight.
//	herd   thundering herd: every client fires the identical request
//	       in synchronized waves, each wave immediately after a
//	       re-upload — all coalescer, no cache.
//
//	churn-live
//	       the hot shape over a *live* platform: a mutator PATCHes the
//	       hot platform at a steady tick (exact x2 / x0.5 edge-cost
//	       scalings, so content revisits earlier fingerprints) while
//	       two subscribers hold replan streams open — plan cache
//	       invalidation, repair and version streaming all under load.
//
//	overload
//	       deliberate saturation: every request bypasses the plan cache
//	       so each one wants an evaluator, and the in-process daemon
//	       runs with one evaluator and a short wait queue. Half the
//	       requests opt into degraded mode. The report adds the shed
//	       rate (429s) and the degraded fraction next to p99 — the
//	       overload triage triple.
//
// -smoke runs every shape briefly against an in-process daemon and
// exits nonzero on any request failure; CI runs it as a serving-stack
// smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/mcastclient"
	"repro/internal/serve"
	"repro/internal/tiers"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr     = flag.String("addr", "", "base URL of a running mcastd (empty starts one in-process)")
		shape    = flag.String("shape", "hot", "arrival shape: hot, churn, herd, churn-live or overload")
		clients  = flag.Int("clients", 8, "concurrent clients")
		duration = flag.Duration("duration", 5*time.Second, "length of each measured phase")
		seed     = flag.Int64("seed", 1, "workload seed (target-set pools, request mix)")
		shards   = flag.Int("shards", 0, "evaluator pool size for the in-process daemon (0 = GOMAXPROCS; overload uses 1)")
		smoke    = flag.Bool("smoke", false, "short self-contained run of every shape; nonzero exit on any error")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(*seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println("smoke: PASS")
		return
	}

	cfg := serve.Config{Shards: *shards}
	if *shape == "overload" {
		// One evaluator and a two-seat queue so the in-process daemon
		// actually sheds; an external -addr daemon is measured with
		// whatever it runs.
		cfg.Shards = 1
		cfg.MaxQueue = 2
	}
	base, closeFn := ensureDaemon(*addr, cfg)
	defer closeFn()
	c := mcastclient.New(base, nil)
	rep, err := runShape(c, *shape, *clients, *duration, *seed)
	if err != nil {
		log.Fatal(err)
	}
	rep.print(os.Stdout)
	if rep.errors > 0 {
		os.Exit(1)
	}
}

// ensureDaemon returns the base URL to load, starting an in-process
// daemon when addr is empty.
func ensureDaemon(addr string, cfg serve.Config) (string, func()) {
	if addr != "" {
		return addr, func() {}
	}
	ts := httptest.NewServer(serve.New(cfg))
	// The default transport caps idle conns per host at 2; a loadgen
	// with N clients wants N warm conns or it measures dial latency.
	tr := ts.Client().Transport.(*http.Transport)
	tr.MaxIdleConnsPerHost = 256
	fmt.Printf("in-process daemon at %s\n", ts.URL)
	return ts.URL, ts.Close
}

// workload is a prepared request mix: uploaded platforms plus the
// request pools the clients draw from.
type workload struct {
	hotID, coldID string
	// hotPool are the repeating hot-platform requests (the cacheable
	// 90%); coldPool are fresh-ish cold-platform requests (the 10%).
	hotPool  []*serve.PlanRequest
	coldPool []*serve.PlanRequest
	// churn alternates the hot platform's content between two
	// generated topologies (fingerprint change → cache invalidation).
	churnUploads [2]*serve.UploadRequest
	// hotEdges is the hot platform's edge count — the churn-live
	// mutator's edge-ID range.
	hotEdges int
}

// buildWorkload generates the platforms, uploads them, and prepares
// deterministic request pools. All randomness flows from exp.NewRNG on
// (seed, fixed coordinates), so two loadgen runs issue the same mix.
func buildWorkload(c *mcastclient.Client, seed int64) (*workload, error) {
	ctx := context.Background()
	w := &workload{hotID: "loadgen-hot", coldID: "loadgen-cold"}
	for variant := 0; variant < 2; variant++ {
		pl, err := tiers.Generate(tiers.Small(seed + int64(variant)))
		if err != nil {
			return nil, err
		}
		up := &serve.UploadRequest{
			ID:       w.hotID,
			Platform: pl.G.String(),
			Source:   pl.G.Name(pl.Source),
		}
		w.churnUploads[variant] = up
		if variant == 0 {
			if _, err := c.UploadPlatform(ctx, up); err != nil {
				return nil, err
			}
			w.hotPool = requestPool(pl, w.hotID, seed, 8)
			w.hotEdges = pl.G.NumEdges()
		} else {
			up2 := *up
			up2.ID = w.coldID
			if _, err := c.UploadPlatform(ctx, &up2); err != nil {
				return nil, err
			}
			w.coldPool = requestPool(pl, w.coldID, seed+100, 64)
		}
	}
	return w, nil
}

// requestPool draws n deterministic target sets from the platform's
// LAN hosts at the paper's mid density.
func requestPool(pl *tiers.Platform, id string, seed int64, n int) []*serve.PlanRequest {
	pool := make([]*serve.PlanRequest, n)
	for i := range pool {
		rng := exp.NewRNG(seed, i)
		targets := pl.RandomTargets(rng, 0.3)
		names := make([]string, len(targets))
		for j, t := range targets {
			names[j] = pl.G.Name(t)
		}
		pool[i] = &serve.PlanRequest{PlanSpec: serve.PlanSpec{
			PlatformID: id,
			Targets:    names,
			// Bounds-only requests keep individual solves fast enough that
			// a phase completes thousands of them; the heuristics are
			// exercised by cmd/mcast and the benchmarks.
			Bounds:     []string{"scatter", "lb"},
			Heuristics: []string{},
		}}
	}
	return pool
}

// pick returns the next request of the hot-skew mix: 90% from the hot
// pool's first quarter (the truly hot sets), 10% roaming cold.
func (w *workload) pick(rng *rand.Rand) *serve.PlanRequest {
	if rng.Float64() < 0.9 {
		return w.hotPool[rng.Intn(len(w.hotPool))]
	}
	return w.coldPool[rng.Intn(len(w.coldPool))]
}

// report is one phase's measurements.
type report struct {
	shape            string
	serialRate       float64 // req/s, one client
	concurrentRate   float64 // req/s, -clients clients
	requests, errors int64
	p50, p90, p99    time.Duration
	// churn-live only: PATCHes applied and subscriber updates received
	// during the concurrent phase.
	patches, liveUpdates int64
	// overload only: requests shed with 429/saturated (not counted as
	// errors) and requests answered by a degraded fallback.
	shed, degraded int64
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "shape %s:\n", r.shape)
	fmt.Fprintf(w, "  serial baseline  %10.1f req/s\n", r.serialRate)
	fmt.Fprintf(w, "  concurrent       %10.1f req/s  (%d requests, %d errors)\n",
		r.concurrentRate, r.requests, r.errors)
	fmt.Fprintf(w, "  latency          p50 %s  p90 %s  p99 %s\n", r.p50, r.p90, r.p99)
	if r.shape == "churn-live" {
		fmt.Fprintf(w, "  live churn       %d patches, %d subscriber updates\n", r.patches, r.liveUpdates)
	}
	if r.shape == "overload" && r.requests > 0 {
		fmt.Fprintf(w, "  overload         %d shed (%.1f%%), %d degraded (%.1f%%)\n",
			r.shed, 100*float64(r.shed)/float64(r.requests),
			r.degraded, 100*float64(r.degraded)/float64(r.requests))
	}
	switch {
	case r.serialRate == 0:
		// Overload has no serial baseline: a serial client can never shed.
	case r.concurrentRate >= r.serialRate:
		fmt.Fprintf(w, "  concurrent/serial %.2fx\n", r.concurrentRate/r.serialRate)
	default:
		fmt.Fprintf(w, "  WARNING: concurrent rate below serial baseline (%.2fx)\n",
			r.concurrentRate/r.serialRate)
	}
}

// runShape measures one shape: serial baseline first, then the
// concurrent phase (with the shape's churn/herd choreography).
func runShape(c *mcastclient.Client, shape string, clients int, duration time.Duration, seed int64) (*report, error) {
	switch shape {
	case "hot", "churn", "herd", "churn-live", "overload":
	default:
		return nil, fmt.Errorf("unknown shape %q (want hot, churn, herd, churn-live or overload)", shape)
	}
	w, err := buildWorkload(c, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{shape: shape}
	if shape == "overload" {
		return runOverload(c, w, rep, clients, duration, seed)
	}

	// Serial baseline: one client, the same hot-skew mix, half the
	// phase length (it needs less time to stabilise).
	serialN, _, err := drive(c, w, 1, duration/2, seed, shape == "herd")
	if err != nil {
		return nil, err
	}
	rep.serialRate = float64(serialN.requests) / (duration / 2).Seconds()

	// Churn choreography: swap the hot platform's content at a steady
	// tick while the concurrent phase runs.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	if shape == "churn" {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(duration / 10)
			defer tick.Stop()
			for variant := 1; ; variant++ {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
					up := w.churnUploads[variant%2]
					if _, err := c.UploadPlatform(context.Background(), up); err != nil {
						log.Printf("churn upload: %v", err)
						return
					}
				}
			}
		}()
	}

	// Churn-live choreography: a PATCH mutator scales edge costs by
	// exact x2 / x0.5 pairs (each pair restores the edge bit-exactly, so
	// the platform's content cycles through a bounded fingerprint set)
	// while two subscribers hold replan streams open for the phase.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	var patches, liveUpdates atomic.Int64
	if shape == "churn-live" {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(duration / 50)
			defer tick.Stop()
			edge, inverse := 0, false
			for {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
					factor := 2.0
					if inverse {
						factor = 0.5
					}
					e := edge
					_, err := c.PatchPlatform(context.Background(), w.hotID, &serve.PatchRequest{
						Ops: []serve.PatchOp{{Op: "scale_edge_cost", Edge: &e, Factor: factor}},
					})
					if err != nil {
						log.Printf("churn-live patch: %v", err)
						return
					}
					patches.Add(1)
					if inverse {
						edge = (edge + 1) % w.hotEdges
					}
					inverse = !inverse
				}
			}
		}()
		for i := 0; i < 2; i++ {
			churnWG.Add(1)
			go func(i int) {
				defer churnWG.Done()
				req := w.hotPool[i%len(w.hotPool)]
				sub, err := c.Subscribe(subCtx, w.hotID, mcastclient.SubscribeSpec{
					Targets:    req.Targets,
					Bounds:     req.Bounds,
					Heuristics: req.Heuristics,
				})
				if err != nil {
					log.Printf("churn-live subscribe: %v", err)
					return
				}
				defer sub.Close()
				for {
					if _, err := sub.Next(); err != nil {
						return // phase over (context canceled) or stream closed
					}
					liveUpdates.Add(1)
				}
			}(i)
		}
	}

	n, lats, err := drive(c, w, clients, duration, seed+1, shape == "herd")
	close(stopChurn)
	subCancel()
	churnWG.Wait()
	if err != nil {
		return nil, err
	}
	rep.patches, rep.liveUpdates = patches.Load(), liveUpdates.Load()
	return finishReport(rep, n, lats, duration), nil
}

// runOverload drives the overload shape: the hot pool is computed once
// to warm the plan cache, then every client fires no_cache requests
// (each wants an evaluator) with every second request opting into
// degraded mode. Sheds (429) and degraded answers are counted
// separately from hard errors — under deliberate saturation they are
// the expected outcomes, not failures.
func runOverload(c *mcastclient.Client, w *workload, rep *report, clients int, duration time.Duration, seed int64) (*report, error) {
	// The overload pool reuses the hot target sets but asks for all
	// three bounds: the broadcast bound's LP makes each no_cache solve
	// long enough (tens of milliseconds) to genuinely occupy an
	// evaluator. The other shapes' scatter/lb-only requests finish faster
	// than arrivals can pile up in the wait queue, so they never shed.
	pool := make([]*serve.PlanRequest, len(w.hotPool))
	for i, hot := range w.hotPool {
		r := *hot
		r.Bounds = []string{serve.BoundScatter, serve.BoundLB, serve.BoundBroadcast}
		pool[i] = &r
	}
	// Warm the cache so degraded requests have a degraded-cache answer
	// available when they are shed.
	for _, req := range pool {
		if _, err := c.Plan(context.Background(), req); err != nil {
			return nil, fmt.Errorf("overload warmup: %w", err)
		}
	}
	deadline := time.Now().Add(duration)
	perClient := make([][]time.Duration, clients)
	var reqs, errs, shed, degraded atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := exp.NewRNG(seed, 7000+client)
			for k := 0; time.Now().Before(deadline); k++ {
				req := *pool[rng.Intn(len(pool))]
				req.NoCache = true
				req.Degraded = k%2 == 0
				start := time.Now()
				_, hdr, err := c.PlanRaw(context.Background(), &req)
				perClient[client] = append(perClient[client], time.Since(start))
				reqs.Add(1)
				switch {
				case err == nil && hdr.Get(serve.HeaderDegraded) != "":
					degraded.Add(1)
				case err == nil:
				case mcastclient.IsCode(err, serve.CodeSaturated):
					shed.Add(1)
				default:
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(i)
	}
	wg.Wait()
	var lats []time.Duration
	for _, l := range perClient {
		lats = append(lats, l...)
	}
	rep.shed, rep.degraded = shed.Load(), degraded.Load()
	n := counts{requests: reqs.Load(), errs: errs.Load()}
	if e := firstErr.Load(); e != nil {
		return nil, fmt.Errorf("%d hard errors under overload, first: %w", n.errs, e.(error))
	}
	return finishReport(rep, n, lats, duration), nil
}

type counts struct {
	requests int64
	errs     int64
}

func finishReport(rep *report, n counts, lats []time.Duration, duration time.Duration) *report {
	rep.requests = n.requests
	rep.errors = n.errs
	rep.concurrentRate = float64(n.requests) / duration.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	rep.p50, rep.p90, rep.p99 = pct(0.50), pct(0.90), pct(0.99)
	return rep
}

// drive runs the request mix on n clients for the given duration and
// returns the request/error counts and every request latency. In herd
// mode the clients run in synchronized waves: all fire the identical
// request at once, and each wave is preceded by a hot-platform
// re-upload so the wave can never be a cache hit — pure coalescer.
func drive(c *mcastclient.Client, w *workload, n int, duration time.Duration, seed int64, herd bool) (counts, []time.Duration, error) {
	deadline := time.Now().Add(duration)
	var total counts
	perClient := make([][]time.Duration, n)
	var firstErr atomic.Value

	if herd {
		return driveHerd(c, w, n, deadline, seed)
	}

	var reqs, errs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := exp.NewRNG(seed, client)
			for time.Now().Before(deadline) {
				req := w.pick(rng)
				start := time.Now()
				_, err := c.Plan(context.Background(), req)
				perClient[client] = append(perClient[client], time.Since(start))
				reqs.Add(1)
				if err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(i)
	}
	wg.Wait()
	total.requests, total.errs = reqs.Load(), errs.Load()
	var lats []time.Duration
	for _, l := range perClient {
		lats = append(lats, l...)
	}
	if e := firstErr.Load(); e != nil && total.errs > 0 {
		return total, lats, fmt.Errorf("%d request errors, first: %w", total.errs, e.(error))
	}
	return total, lats, nil
}

// driveHerd runs synchronized waves of the identical request.
func driveHerd(c *mcastclient.Client, w *workload, n int, deadline time.Time, seed int64) (counts, []time.Duration, error) {
	var total counts
	var lats []time.Duration
	rng := exp.NewRNG(seed, 999)
	for wave := 0; time.Now().Before(deadline); wave++ {
		// Re-upload (content swap) so the wave's request is never cached.
		up := w.churnUploads[wave%2]
		if _, err := c.UploadPlatform(context.Background(), up); err != nil {
			return total, lats, err
		}
		req := w.hotPool[rng.Intn(len(w.hotPool))]
		var wg sync.WaitGroup
		waveLats := make([]time.Duration, n)
		var errs atomic.Int64
		var firstErr atomic.Value
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				start := time.Now()
				if _, err := c.Plan(context.Background(), req); err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
				waveLats[client] = time.Since(start)
			}(i)
		}
		wg.Wait()
		total.requests += int64(n)
		total.errs += errs.Load()
		lats = append(lats, waveLats...)
		if e := firstErr.Load(); e != nil {
			return total, lats, fmt.Errorf("herd wave %d: %w", wave, e.(error))
		}
	}
	return total, lats, nil
}

// runSmoke exercises every shape briefly against an in-process daemon
// (plus one batch and one async job through the typed client) and
// fails on any request error.
func runSmoke(seed int64) error {
	ts := httptest.NewServer(serve.New(serve.Config{Shards: 2}))
	defer ts.Close()
	tr := ts.Client().Transport.(*http.Transport)
	tr.MaxIdleConnsPerHost = 64
	c := mcastclient.New(ts.URL, nil)

	for _, shape := range []string{"hot", "churn", "herd", "churn-live"} {
		rep, err := runShape(c, shape, 4, 400*time.Millisecond, seed)
		if err != nil {
			return fmt.Errorf("shape %s: %w", shape, err)
		}
		rep.print(os.Stdout)
		if rep.errors > 0 {
			return fmt.Errorf("shape %s: %d request errors", shape, rep.errors)
		}
		if shape == "churn-live" && (rep.patches == 0 || rep.liveUpdates == 0) {
			return fmt.Errorf("shape %s: no live churn observed (%d patches, %d updates)",
				shape, rep.patches, rep.liveUpdates)
		}
	}

	// The overload shape runs against its own daemon with one evaluator
	// and a one-seat queue, so shedding and degraded fallbacks actually
	// happen at smoke scale.
	ots := httptest.NewServer(serve.New(serve.Config{Shards: 1, MaxQueue: 1}))
	defer ots.Close()
	ots.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 64
	orep, err := runShape(mcastclient.New(ots.URL, nil), "overload", 8, 400*time.Millisecond, seed)
	if err != nil {
		return fmt.Errorf("shape overload: %w", err)
	}
	orep.print(os.Stdout)
	if orep.shed == 0 || orep.degraded == 0 {
		return fmt.Errorf("shape overload: expected both shedding and degraded answers, got %d shed, %d degraded",
			orep.shed, orep.degraded)
	}

	// One batch and one job through the same pools, verifying the
	// stream discipline end to end.
	w, err := buildWorkload(c, seed)
	if err != nil {
		return err
	}
	batch := &serve.BatchRequest{}
	for i := 0; i < 4; i++ {
		batch.Items = append(batch.Items, serve.BatchItem{PlanSpec: w.hotPool[i].PlanSpec})
	}
	plans := 0
	if err := c.PlanBatch(context.Background(), batch, func(line serve.BatchLine) error {
		if line.Kind == "plan" {
			if line.Error != nil {
				return fmt.Errorf("batch item %d: %s", line.Index, line.Error.Message)
			}
			plans++
		}
		return nil
	}); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if plans != len(batch.Items) {
		return fmt.Errorf("batch: %d plan lines, want %d", plans, len(batch.Items))
	}
	job, err := c.SubmitJob(context.Background(), batch)
	if err != nil {
		return fmt.Errorf("job submit: %w", err)
	}
	for job.State == serve.JobRunning {
		time.Sleep(5 * time.Millisecond)
		if job, err = c.Job(context.Background(), job.ID); err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
	}
	if job.State != serve.JobDone || job.Failed != 0 {
		return fmt.Errorf("job finished %s with %d failures", job.State, job.Failed)
	}
	return nil
}
