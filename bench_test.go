package repro_test

// One benchmark per figure and table of the paper's evaluation, plus
// micro-benchmarks for the substrates and ablations for the design
// choices called out in DESIGN.md. Reported custom metrics carry the
// reproduced quantities (ratios, periods, throughputs) so that a bench
// run doubles as an experiment log; see EXPERIMENTS.md.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/color"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/lp"
	"repro/internal/platforms"
	"repro/internal/prefix"
	"repro/internal/serve"
	"repro/internal/setcover"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/tiers"
	"repro/internal/tree"
)

// lpEvaluator returns a fresh evaluator with the tree fast path off, so
// every bound it answers is a from-scratch LP solve: the benchmarks
// that take one per iteration time the solver, not the result cache or
// the combinatorial path.
func lpEvaluator() *steady.Evaluator {
	ev := steady.NewEvaluator()
	ev.SetFastPath(false)
	return ev
}

// --- Figure 1: the Section 3 worked example -------------------------

func BenchmarkFigure1Example(b *testing.B) {
	pl := repro.Figure1()
	var single, packed float64
	for i := 0; i < b.N; i++ {
		_, period, err := repro.BestSingleTree(pl.G, pl.Source, pl.Targets)
		if err != nil {
			b.Fatal(err)
		}
		pk, err := repro.Optimal(pl.G, pl.Source, pl.Targets)
		if err != nil {
			b.Fatal(err)
		}
		single, packed = 1/period, pk.Throughput
	}
	b.ReportMetric(single, "singletree-thr")
	b.ReportMetric(packed, "packing-thr")
}

// --- Section 4 complexity table --------------------------------------

// BenchmarkComplexityTableBroadcast and ...Multicast contrast the
// polynomial broadcast bound with the exponential exact multicast
// optimum on the same growing chain platforms (the paper's table
// "P vs NP-hard", observed as runtime scaling).
func BenchmarkComplexityTableBroadcast(b *testing.B) {
	g, s, _ := complexityChain(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpEvaluator().BroadcastEB(g, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplexityTableMulticastExact(b *testing.B) {
	g, s, targets := complexityChain(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.PackOptimal(g, s, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func complexityChain(n int) (*graph.Graph, graph.NodeID, []graph.NodeID) {
	g := graph.New()
	s := g.AddNode("S")
	prev := s
	var targets []graph.NodeID
	for i := 0; i < n; i++ {
		node := g.AddNode(nodeName(i))
		g.AddLink(prev, node, 1)
		g.AddEdge(s, node, float64(i+2))
		targets = append(targets, node)
		prev = node
	}
	return g, s, targets
}

func nodeName(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// --- Figure 2 / Theorem 1: the set-cover reduction -------------------

func BenchmarkFigure2Reduction(b *testing.B) {
	ins := setcover.PaperExample()
	var thr float64
	for i := 0; i < b.N; i++ {
		r, err := setcover.Reduce(ins, 2)
		if err != nil {
			b.Fatal(err)
		}
		_, period, err := tree.BestSingleTree(r.G, r.Source, r.Targets())
		if err != nil {
			b.Fatal(err)
		}
		thr = 1 / period
	}
	b.ReportMetric(thr, "B=Kstar-thr") // 1.0: rho = 1 reachable iff cover <= B
}

// --- Figure 3 / Theorem 5: the parallel-prefix reduction -------------

func BenchmarkFigure3Prefix(b *testing.B) {
	ins := setcover.PaperExample()
	cover, err := setcover.Exact(ins)
	if err != nil {
		b.Fatal(err)
	}
	var period float64
	for i := 0; i < b.N; i++ {
		r, err := prefix.Reduce(ins, len(cover))
		if err != nil {
			b.Fatal(err)
		}
		s, err := r.CoverScheme(cover)
		if err != nil {
			b.Fatal(err)
		}
		period = s.Period()
	}
	b.ReportMetric(period, "scheme-period") // 1.0 at B = K*
}

// --- Figure 4: neither bound tight ------------------------------------

func BenchmarkFigure4Bounds(b *testing.B) {
	pl := repro.Figure4()
	p := pl.Problem()
	var ubThr, lbThr, optThr float64
	for i := 0; i < b.N; i++ {
		ev := lpEvaluator()
		ub, err := ev.ScatterUB(p)
		if err != nil {
			b.Fatal(err)
		}
		lb, err := ev.MulticastLB(p)
		if err != nil {
			b.Fatal(err)
		}
		pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
		if err != nil {
			b.Fatal(err)
		}
		ubThr, lbThr, optThr = ub.Throughput(), lb.Throughput(), pk.Throughput
	}
	b.ReportMetric(ubThr, "scatter-thr") // 1/3
	b.ReportMetric(optThr, "opt-thr")    // 1/2
	b.ReportMetric(lbThr, "lb-thr")      // 2/3
}

// --- Figure 5: the |Ptarget| gap --------------------------------------

func BenchmarkFigure5Gap(b *testing.B) {
	pl := repro.Figure5()
	p := pl.Problem()
	var gap float64
	for i := 0; i < b.N; i++ {
		ev := lpEvaluator()
		ub, err := ev.ScatterUB(p)
		if err != nil {
			b.Fatal(err)
		}
		lb, err := ev.MulticastLB(p)
		if err != nil {
			b.Fatal(err)
		}
		gap = ub.Period / lb.Period
	}
	b.ReportMetric(gap, "gap") // |Ptarget| = 3
}

// --- Figure 11: the density sweeps ------------------------------------

// The full paper-scale panels (10 platforms x 6 densities) are
// regenerated by cmd/experiments; the benchmarks run a reduced sweep
// (2 platforms, 3 densities) and report the mean heuristic-to-baseline
// ratios of each panel. The main variants run the concurrent engine at
// GOMAXPROCS; the Serial variants pin Workers to 1, so comparing
// BenchmarkFigure11aSmallVsScatter against its Serial twin measures
// the worker-pool speedup on the same deterministic workload.
// The VsScatter variants additionally report a parallel-speedup
// metric: after the timed iterations, a serial and a parallel run of
// the same grid are wall-clocked off the timer back to back, and the
// ratio serial/parallel lands in BENCH_sweep.json, so a regression in
// worker-pool scaling is visible in the committed trajectory rather
// than needing a by-hand comparison of two benchmark lines. On a
// single-core runner the honest value is ~1.0.
func BenchmarkFigure11aSmallVsScatter(b *testing.B) { benchFigure11(b, "small", "scatter", 0, true) }

func BenchmarkFigure11aSmallVsScatterSerial(b *testing.B) {
	benchFigure11(b, "small", "scatter", 1, false)
}

func BenchmarkFigure11bSmallVsLB(b *testing.B) { benchFigure11(b, "small", "lb", 0, false) }

func BenchmarkFigure11cBigVsScatter(b *testing.B) { benchFigure11(b, "big", "scatter", 0, true) }

func BenchmarkFigure11cBigVsScatterSerial(b *testing.B) { benchFigure11(b, "big", "scatter", 1, false) }

func BenchmarkFigure11dBigVsLB(b *testing.B) { benchFigure11(b, "big", "lb", 0, false) }

func benchFigure11(b *testing.B, size, baseline string, workers int, speedup bool) {
	b.Helper()
	densities := []float64{0.2, 0.6, 1.0}
	cfg := repro.SweepConfig{
		Size:      size,
		Platforms: 2,
		Densities: densities,
		Seed:      1,
		Workers:   workers,
	}
	var cells []repro.SweepCell
	var stats repro.SolveStats
	for i := 0; i < b.N; i++ {
		results, err := repro.RunSweepTasks(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		cells = repro.AggregateSweep(results)
		stats = repro.AggregateSweepStats(results)
	}
	b.ReportMetric(float64(stats.Iterations+stats.DualIters), "simplex-iters")
	b.ReportMetric(float64(stats.Solves), "lp-solves")
	b.ReportMetric(float64(stats.WarmSolves), "warm-solves")
	b.ReportMetric(float64(stats.CacheHits), "cache-hits")
	if speedup {
		// Both legs are wall-clocked off the timer, back to back, with a
		// GC before each: comparing a fresh serial run against the timed
		// loop's elapsed time would credit (or blame) the parallel side
		// for whatever heap and GC state the timed iterations left
		// behind, not for worker-pool scaling.
		b.StopTimer()
		serialCfg := cfg
		serialCfg.Workers = 1
		runtime.GC()
		t0 := time.Now()
		if _, err := repro.RunSweepTasks(serialCfg); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0).Seconds()
		runtime.GC()
		t1 := time.Now()
		if _, err := repro.RunSweepTasks(cfg); err != nil {
			b.Fatal(err)
		}
		if parallel := time.Since(t1).Seconds(); parallel > 0 {
			b.ReportMetric(serial/parallel, "parallel-speedup")
		}
		b.StartTimer()
	}
	means := map[string]float64{}
	counts := map[string]int{}
	for _, c := range cells {
		v := c.VsScatter
		if baseline == "lb" {
			v = c.VsLB
		}
		means[c.Series] += v
		counts[c.Series]++
	}
	for _, series := range []string{"MCPH", "Augm. MC", "Red. BC", "Multisource MC", "broadcast"} {
		if n := counts[series]; n > 0 {
			b.ReportMetric(means[series]/float64(n), sanitize(series))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '.':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Figure 12: the case study ----------------------------------------

func BenchmarkFigure12CaseStudy(b *testing.B) {
	pl, err := repro.GenerateSmallPlatform(1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	targets := repro.RandomTargets(pl, rng, 0.4)
	p, err := repro.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		mcph, err := heur.MCPH(p)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := heur.AugmentedSources(lpEvaluator(), p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ms.Period / mcph.Period
	}
	b.ReportMetric(ratio, "multisource/mcph") // the paper reports 789/1000
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationMCPHCostUpdate isolates the paper's one-port cost
// update in MCPH against the plain Steiner-style variant.
func BenchmarkAblationMCPHCostUpdate(b *testing.B) {
	pl, err := repro.GenerateSmallPlatform(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	targets := repro.RandomTargets(pl, rng, 0.6)
	p, err := repro.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	var full, plain float64
	for i := 0; i < b.N; i++ {
		f, err := heur.MCPH(p)
		if err != nil {
			b.Fatal(err)
		}
		pl2, err := heur.MCPHPlain(p)
		if err != nil {
			b.Fatal(err)
		}
		full, plain = f.Period, pl2.Period
	}
	b.ReportMetric(plain/full, "plain/full-period")
}

// BenchmarkAblationLayerSeeds measures the Multicast-LB cutting plane
// with dense targets (its good regime) — the sparse regime is handled
// by the direct formulation, see internal/steady.
func BenchmarkAblationLBDense(b *testing.B) {
	pl, err := repro.GenerateBigPlatform(11)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lpEvaluator().BroadcastEB(pl.G, pl.Source); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpEvaluator().BroadcastEB(pl.G, pl.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------

func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, rows := 60, 40
	for i := 0; i < b.N; i++ {
		m := lp.NewModel()
		m.Maximize()
		for j := 0; j < n; j++ {
			m.AddVar(rng.Float64(), "")
		}
		for r := 0; r < rows; r++ {
			terms := make([]lp.Term, 0, n)
			for j := 0; j < n; j++ {
				terms = append(terms, lp.Term{Var: j, Coef: rng.Float64()})
			}
			m.AddRow(lp.LE, 1+rng.Float64()*4, terms...)
		}
		sol, err := m.Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", err, sol)
		}
	}
}

func BenchmarkMaxFlowBig(b *testing.B) {
	pl, err := tiers.Generate(tiers.Big(7))
	if err != nil {
		b.Fatal(err)
	}
	capacity := make([]float64, pl.G.NumEdges())
	for i := range capacity {
		capacity[i] = 1
	}
	sink := pl.LAN[len(pl.LAN)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.MaxFlow(pl.G, capacity, pl.Source, sink)
	}
}

func BenchmarkColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var demands []color.Demand
	for i := 0; i < 60; i++ {
		demands = append(demands, color.Demand{
			Sender:   rng.Intn(12),
			Receiver: 100 + rng.Intn(12),
			Load:     0.1 + rng.Float64(),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := color.Schedule(demands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerDP(b *testing.B) {
	pl, err := tiers.Generate(tiers.Small(9))
	if err != nil {
		b.Fatal(err)
	}
	terminals := pl.LAN[:8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.MinSteinerArborescence(pl.G, pl.Source, terminals, graph.CostWeight); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCPHSmall(b *testing.B) {
	pl, err := tiers.Generate(tiers.Small(5))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	targets := pl.RandomTargets(rng, 0.6)
	p, err := steady.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heur.MCPH(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScatterUBSmall(b *testing.B) {
	pl, err := tiers.Generate(tiers.Small(5))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	targets := pl.RandomTargets(rng, 0.6)
	p, err := steady.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpEvaluator().ScatterUB(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	pl, trees := platforms.Figure1Trees()
	wts := []tree.WeightedTree{
		{Tree: &tree.Tree{Root: pl.Source, Edges: trees[0]}, Rate: 0.5},
		{Tree: &tree.Tree{Root: pl.Source, Edges: trees[1]}, Rate: 0.5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(pl.G, pl.Source, pl.Targets, wts, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiersGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tiers.Generate(tiers.Big(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving layer: plan throughput vs shard count -------------------

// BenchmarkServePlan1Shard and ...MaxShards drive the mcastd serving
// stack (HTTP codec, registry, shard pool) with a fixed batch of
// distinct concurrent plan requests against the Tiers-small platform,
// with the plan cache disabled so every request exercises an
// evaluator shard. The reported req/s metric is the acceptance
// criterion of DESIGN.md Section 9: going from 1 shard to GOMAXPROCS
// shards must scale requests/sec on multi-core hardware, because
// distinct problems on one hot platform spread over the whole pool.
func BenchmarkServePlan1Shard(b *testing.B) { benchServePlan(b, 1) }

// BenchmarkServePlanMaxShards asks for the daemon's default shard
// count (Shards: 0 resolves to GOMAXPROCS inside serve.Config) rather
// than resolving GOMAXPROCS itself, and the reported shards metric
// reads the count back from the running server — the metric records
// what the benchmark actually exercised, not what it requested.
func BenchmarkServePlanMaxShards(b *testing.B) { benchServePlan(b, 0) }

func benchServePlan(b *testing.B, shards int) {
	b.Helper()
	srv := repro.NewPlanServer(repro.ServeConfig{Shards: shards, CacheSize: -1})
	pl, err := repro.GenerateSmallPlatform(1)
	if err != nil {
		b.Fatal(err)
	}
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		b.Fatal(err)
	}
	upload, _ := json.Marshal(serve.UploadRequest{ID: "bench", Platform: text.String(), Source: pl.G.Name(pl.Source)})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/platforms", bytes.NewReader(upload)))
	if w.Code != http.StatusCreated {
		b.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}

	// Eight distinct bounds-only problems (the LP-heavy serving path);
	// distinct target sets route to distinct shards.
	const batch = 8
	requests := make([][]byte, batch)
	for i := range requests {
		rng := exp.NewRNG(1234, i)
		targets := pl.RandomTargets(rng, 0.3)
		names := make([]string, len(targets))
		for j, id := range targets {
			names[j] = pl.G.Name(id)
		}
		requests[i], err = json.Marshal(serve.PlanRequest{PlanSpec: serve.PlanSpec{PlatformID: "bench", Targets: names, Bounds: []string{"scatter", "lb"}, Heuristics: []string{}}, NoCache: true})
		if err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, body := range requests {
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Errorf("plan: %d %s", w.Code, w.Body.String())
				}
			}(body)
		}
		wg.Wait()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(batch*b.N)/secs, "req/s")
	}
	b.ReportMetric(float64(srv.Shards()), "shards")
}

// BenchmarkServePlanBatch runs the benchServePlan workload — the same
// eight distinct bounds-only problems on the same platform — as one
// POST /v1/plan:batch instead of eight concurrent round-trips. The
// req/s metric is directly comparable to BenchmarkServePlanMaxShards:
// the batch fan-out spreads the items over the shard lanes itself, so
// one request should sustain (at least) the throughput eight
// independent clients get, without the per-request HTTP and JSON
// overhead.
func BenchmarkServePlanBatch(b *testing.B) {
	srv := repro.NewPlanServer(repro.ServeConfig{CacheSize: -1})
	pl, err := repro.GenerateSmallPlatform(1)
	if err != nil {
		b.Fatal(err)
	}
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		b.Fatal(err)
	}
	upload, _ := json.Marshal(serve.UploadRequest{ID: "bench", Platform: text.String(), Source: pl.G.Name(pl.Source)})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/platforms", bytes.NewReader(upload)))
	if w.Code != http.StatusCreated {
		b.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}

	const batch = 8
	req := serve.BatchRequest{
		PlanSpec: serve.PlanSpec{PlatformID: "bench", Bounds: []string{"scatter", "lb"}, Heuristics: []string{}},
		NoCache:  true,
	}
	for i := 0; i < batch; i++ {
		rng := exp.NewRNG(1234, i)
		targets := pl.RandomTargets(rng, 0.3)
		names := make([]string, len(targets))
		for j, id := range targets {
			names[j] = pl.G.Name(id)
		}
		req.Items = append(req.Items, serve.BatchItem{PlanSpec: serve.PlanSpec{Targets: names}})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan:batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("batch: %d %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(batch*b.N)/secs, "req/s")
	}
	b.ReportMetric(float64(srv.Shards()), "shards")
}

// --- What-if resilience engine: warm clones vs cold replans ----------

// BenchmarkWhatifWarm and ...Cold run the same node-failure what-if
// family on a broadcast-shaped instance of the Figure 11 big platform
// — the cutting-plane regime of Multicast-LB. Warm evaluates every
// scenario on a clone of the baseline evaluator, inheriting its pooled
// cuts; Cold replans each scenario from scratch. The reported
// simplex-iters metric is the acceptance criterion: warm must pivot at
// least 2x less for the same (bit-identical) criticality report.
func BenchmarkWhatifWarm(b *testing.B) { benchWhatif(b, false) }

func BenchmarkWhatifCold(b *testing.B) { benchWhatif(b, true) }

func benchWhatif(b *testing.B, cold bool) {
	b.Helper()
	pl, err := repro.GenerateBigPlatform(11)
	if err != nil {
		b.Fatal(err)
	}
	var targets []repro.NodeID
	for _, v := range pl.G.ActiveNodes() {
		if v != pl.Source {
			targets = append(targets, v)
		}
	}
	// Fail LAN hosts (leaves): every scenario stays feasible, so each
	// one genuinely re-solves the cutting-plane LB.
	fail := append([]repro.NodeID(nil), pl.LAN[:8]...)
	p, err := repro.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	cfg := repro.WhatifConfig{NodeFailures: true, FailNodes: fail, Cold: cold}
	var rep *repro.WhatifReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = repro.WhatIf(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	st := rep.ScenarioStats
	b.ReportMetric(float64(st.Iterations+st.DualIters), "simplex-iters")
	b.ReportMetric(float64(st.Solves), "lp-solves")
	b.ReportMetric(float64(st.WarmSolves), "warm-solves")
	b.ReportMetric(float64(len(rep.Results)), "scenarios")
	b.ReportMetric(float64(rep.Surviving), "tree-survives")
}

// --- Live-platform churn replan ----------------------------------------

// BenchmarkChurnReplan and ...Cold time a churn sequence of
// single-edge cost deltas on a general (LP-routed) platform.  Warm
// keeps ONE evaluator across the sequence, so each Replan re-solves
// with the cut pools, path pools and warm-start bases accumulated by
// its predecessors; Cold answers every event on a fresh evaluator,
// which is exactly the canonical serving path (DESIGN.md Section 14).
// The simplex-iters-per-event gap between the two is the acceptance
// criterion of the warm replan machinery: fewer pivots for answers
// that agree to 1e-9 (pinned by FuzzReplanVsCold).
func BenchmarkChurnReplan(b *testing.B)     { benchChurnReplan(b, true) }
func BenchmarkChurnReplanCold(b *testing.B) { benchChurnReplan(b, false) }

func benchChurnReplan(b *testing.B, warm bool) {
	b.Helper()
	pl, err := tiers.Generate(tiers.Big(11))
	if err != nil {
		b.Fatal(err)
	}
	// Dense (broadcast-shaped) targets on the big platform: the
	// Multicast-LB separation loop runs real cut rounds there (the
	// small platforms converge without cuts), and the pooled cuts are
	// what the warm evaluator re-seeds across churn events.
	var baseTargets []graph.NodeID
	for _, v := range pl.G.ActiveNodes() {
		if v != pl.Source {
			baseTargets = append(baseTargets, v)
		}
	}

	// 16 single-edge events on rotating edges, scaling by x1.25 so
	// every event lands on a fresh fingerprint (no result-cache hits —
	// the benchmark isolates warm *solving*, not response caching).
	const events = 16
	deltas := make([]graph.Delta, events)
	for i := range deltas {
		deltas[i] = graph.Delta{graph.ScaleEdgeCostOp(i%pl.G.NumEdges(), 1.25)}
	}

	var iters, warmSolves, cacheHits, rounds float64
	treeRouted := false
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Fresh clone per sequence: the churn drifts costs, and every
		// iteration must replay the identical event list.
		g := pl.G.Clone()
		source, _ := g.NodeByName(pl.G.Name(pl.Source))
		targets := make([]graph.NodeID, len(baseTargets))
		copy(targets, baseTargets) // node IDs are stable across Clone
		p, err := steady.NewProblem(g, source, targets)
		if err != nil {
			b.Fatal(err)
		}
		iters, warmSolves, cacheHits, rounds = 0, 0, 0, 0
		ev := steady.NewEvaluator()
		for _, d := range deltas {
			if !warm {
				ev = steady.NewEvaluator()
			}
			res, err := ev.Replan(p, d)
			if err != nil {
				b.Fatal(err)
			}
			iters += float64(res.Stats.Iterations + res.Stats.DualIters)
			warmSolves += float64(res.Stats.WarmSolves)
			cacheHits += float64(res.Stats.CacheHits)
			rounds += float64(res.Stats.Rounds)
			treeRouted = treeRouted || res.TreeRouted
		}
	}
	b.StopTimer()
	if treeRouted {
		b.Fatal("platform classified as tree; the churn benchmark needs the LP path")
	}
	b.ReportMetric(iters/events, "simplex-iters-per-event")
	b.ReportMetric(rounds/events, "cut-rounds-per-event")
	b.ReportMetric(warmSolves/events, "warm-solves-per-event")
	b.ReportMetric(cacheHits/events, "cache-hits-per-event")
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events-per-sec")
}
