package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/heur"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// The Figure 11 grid of BenchmarkFigure11aSmallVsScatter and
// BenchmarkFigure11cBigVsScatter: per preset, 2 platforms x 3
// densities with the default heuristics.
var (
	sweepSizes     = []string{"small", "big"}
	sweepDensities = []float64{0.2, 0.6, 1.0}
)

const sweepPlatforms = 2

// committedBench names the BENCH_sweep.json entry whose metrics a seed-1
// grid of each preset must reproduce.
var committedBench = map[string]string{
	"small": "BenchmarkFigure11aSmallVsScatter",
	"big":   "BenchmarkFigure11cBigVsScatter",
}

// heuristic series in Figure 11 legend order, with their metric keys.
var heurSeries = []struct{ name, key string }{
	{"MCPH", "mcph"},
	{"Augm. MC", "augm_mc"},
	{"Red. BC", "red_bc"},
	{"Multisource MC", "multisource"},
}

// heurKey returns a heuristic's metric key (its name if it has none).
func heurKey(name string) string {
	for _, h := range heurSeries {
		if h.name == name {
			return h.key
		}
	}
	return name
}

func preset(size string, seed int64) tiers.Config {
	if size == "big" {
		return tiers.Big(seed)
	}
	return tiers.Small(seed)
}

// sweepSeed is the exp seed of the committed benchmarks' grid. The
// sweep runs that grid at every --seed: other grids differ in LP work
// by about a quarter (IQR/median 0.24 of tasks per second over seeds 1
// to 5 on a 2-core machine), more than any regression bound could
// absorb, and the committed grid is the one whose ratios and solver
// counts BENCH_sweep.json pins.
const sweepSeed = 1

// gridConfig is the Figure 11 grid of one preset.
func gridConfig(size string, workers int) exp.Config {
	return exp.Config{
		Size:      size,
		Platforms: sweepPlatforms,
		Densities: sweepDensities,
		Seed:      sweepSeed,
		Workers:   workers,
	}
}

// checkTasks applies the per-task output checks: a failed task counts
// against the attempts, and every finished task must order its periods
// as the program guarantees — the lower bound below the scatter bound,
// every heuristic and broadcast, and Multisource MC (which starts from
// the scatter solution and only accepts improvements) no worse than
// scatter. The other heuristics may exceed scatter at low density.
func checkTasks(res *result, label string, results []exp.TaskResult) (done int) {
	for _, r := range results {
		res.attempted++
		if r.Err != nil {
			res.failed++
			fmt.Printf("  task failed (%s): %v\n", label, r.Err)
			continue
		}
		done++
		tol := 1e-9 * r.Scatter
		for series, p := range r.Periods {
			if p < r.LB-tol {
				res.problem("%s platform %d density %.2f: %s period %v below LB %v", label, r.Platform, r.Density, series, p, r.LB)
			}
		}
		if len(r.Periods) != 3+len(heurSeries) {
			res.problem("%s platform %d density %.2f: %d series, want %d", label, r.Platform, r.Density, len(r.Periods), 3+len(heurSeries))
		}
		if p := r.Periods["Multisource MC"]; p > r.Scatter+tol {
			res.problem("%s platform %d density %.2f: Multisource MC period %v above scatter %v", label, r.Platform, r.Density, p, r.Scatter)
		}
	}
	return done
}

// committedMetrics loads the BENCH_sweep.json metrics of the given
// benchmark from the checkout root.
func committedMetrics(name string) (map[string]float64, error) {
	data, err := os.ReadFile("BENCH_sweep.json")
	if err != nil {
		return nil, err
	}
	var entries []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("BENCH_sweep.json: %w", err)
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Metrics, nil
		}
	}
	return nil, fmt.Errorf("BENCH_sweep.json has no %s", name)
}

// samePrinted reports whether v prints as the committed value at the
// four significant digits benchmark metrics are recorded with.
func samePrinted(v, committed float64) bool {
	p, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return err == nil && p == committed
}

// checkCommittedRatios compares a seed-1 grid's per-series mean ratios
// against the scatter bound with the committed Figure 11 metrics.
func checkCommittedRatios(res *result, size string, results []exp.TaskResult) error {
	want, err := committedMetrics(committedBench[size])
	if err != nil {
		return err
	}
	sums, counts := map[string]float64{}, map[string]int{}
	for _, c := range exp.Aggregate(results) {
		sums[c.Series] += c.VsScatter
		counts[c.Series]++
	}
	for _, series := range []string{"MCPH", "Augm. MC", "Red. BC", "Multisource MC", "broadcast"} {
		key := strings.NewReplacer(" ", "", ".", "").Replace(series)
		got := sums[series] / float64(counts[series])
		if w, ok := want[key]; !ok || !samePrinted(got, w) {
			res.problem("%s seed 1: mean %s/scatter %.6g, committed %v", size, series, got, want[key])
		}
	}
	return nil
}

// checkCommittedCounts compares a seed-1 grid's solver totals with the
// committed simplex-iters and lp-solves.
func checkCommittedCounts(res *result, size string, st steady.SolveStats) error {
	want, err := committedMetrics(committedBench[size])
	if err != nil {
		return err
	}
	if got := float64(st.Iterations + st.DualIters); got != want["simplex-iters"] {
		res.problem("%s seed 1: %v simplex iterations, committed %v", size, got, want["simplex-iters"])
	}
	if got := float64(st.Solves); got != want["lp-solves"] {
		res.problem("%s seed 1: %v LP solves, committed %v", size, got, want["lp-solves"])
	}
	return nil
}

// completionClock timestamps exp.Sweep's progress lines. The sweep's
// single collector goroutine writes one line per finished task, in
// completion order, right as the worker hands the task back.
type completionClock struct {
	mu    sync.Mutex
	stamp []time.Time
	lines []string
}

func (c *completionClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	c.stamp = append(c.stamp, now)
	c.lines = append(c.lines, string(p))
	c.mu.Unlock()
	return len(p), nil
}

// taskLatencies rebuilds each task's latency from the completion stream.
// The pool hands tasks out in index order to whichever worker is free:
// the first `workers` tasks start with the sweep, and task workers+k
// starts when the k-th completion frees a worker.
func taskLatencies(start time.Time, c *completionClock, workers int) (sample, error) {
	n := len(c.stamp)
	begin := make([]time.Time, n)
	for i := range begin {
		if i < workers {
			begin[i] = start
		} else {
			begin[i] = c.stamp[i-workers]
		}
	}
	var lat sample
	for k, line := range c.lines {
		var pi int
		var d float64
		if _, err := fmt.Sscanf(line, "platform %d density %f", &pi, &d); err != nil {
			return nil, fmt.Errorf("progress line %q: %w", line, err)
		}
		di := -1
		for j, x := range sweepDensities {
			if math.Abs(x-d) < 0.005 {
				di = j
			}
		}
		idx := pi*len(sweepDensities) + di
		if di < 0 || idx >= n {
			return nil, fmt.Errorf("progress line %q names no task", line)
		}
		lat.addDur(c.stamp[k].Sub(begin[idx]))
	}
	return lat, nil
}

func runSweep(o options) (*result, error) {
	if o.trace {
		return runSweepTraced(o)
	}
	res := &result{}
	// Set-up: generate the grid's platforms and run a one-task grid so
	// lazy initialisation and heap growth happen before timing.
	setup, err := medianSetup(5, func(bool) error {
		for _, size := range sweepSizes {
			for pi := 0; pi < sweepPlatforms; pi++ {
				if _, err := tiers.Generate(preset(size, sweepSeed+int64(pi))); err != nil {
					return err
				}
			}
		}
		_, err := exp.Sweep(exp.Config{Size: "small", Platforms: 1, Densities: sweepDensities[:1], Seed: sweepSeed, Workers: 1})
		return err
	})
	if err != nil {
		return nil, err
	}

	// The grid repeats until the time is up; every rep does the same
	// work, so the reps are repeated measurements of one quantity. The
	// timed reps run on one worker: with nproc workers on a 2-core
	// machine the grid's wall time hangs on how its few long big-preset
	// tasks land on the workers, and rep rates swung by up to 40% within
	// a run. The traced run still sweeps with nproc workers and reports
	// exp.parallel_eff.
	const timedWorkers = 1
	var lat sample
	var repRates []float64
	first := map[string][]exp.TaskResult{}
	alloc0 := totalAlloc()
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < o.seconds; rep++ {
		var wall time.Duration
		done := 0
		for _, size := range sweepSizes {
			clock := &completionClock{}
			cfg := gridConfig(size, timedWorkers)
			cfg.Progress = clock
			t0 := time.Now()
			results, err := exp.Sweep(cfg)
			if err != nil {
				return nil, err
			}
			wall += time.Since(t0)
			tl, err := taskLatencies(t0, clock, timedWorkers)
			if err != nil {
				return nil, err
			}
			lat = append(lat, tl...)
			done += checkTasks(res, fmt.Sprintf("%s grid seed %d", size, cfg.Seed), results)
			noteCountDrift(size, rep, first, results)
			if rep == 0 {
				if err := checkCommittedRatios(res, size, results); err != nil {
					return nil, err
				}
			}
		}
		repRates = append(repRates, float64(done)/wall.Seconds())
	}
	allocKB := float64(totalAlloc()-alloc0) / 1024
	fmt.Printf("  per-rep tasks/s: %.4g\n", repRates)
	fmt.Printf("  task latency p90 %.4g ms, max %.4g ms (n=%d; the ten-samples-beyond rule allows p%g)\n",
		lat.pct(90), lat.max(), len(lat), tailPercentile(len(lat)))

	n := fmt.Sprintf("n=%d tasks", len(lat))
	res.add("setup_s", "s", setup, "median of 5 set-ups")
	res.add("ops_per_s", "1/s", median(repRates), fmt.Sprintf("grid tasks per second of exp.Sweep wall time, median of %d reps", len(repRates)))
	res.add("p50_ms", "ms", lat.pct(50), n+" (task latency)")
	res.add("alloc_kb_per_op", "KB", allocKB/float64(max(res.attempted, 1)), "TotalAlloc per task")
	res.add("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
	fmt.Printf("  fail_frac %.4g (%d of %d tasks)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

// noteCountDrift reports, without failing the run, a grid task whose
// solver counts differ from the first rep's: the parallel sweep is meant
// to do the same work however its tasks land on workers. The traced run
// is where differing counts fail.
func noteCountDrift(size string, rep int, first map[string][]exp.TaskResult, results []exp.TaskResult) {
	if rep == 0 {
		first[size] = results
		return
	}
	for i, r := range results {
		if r.Stats != first[size][i].Stats {
			fmt.Printf("  note: %s rep %d task %d solver counts %v differ from rep 0 (%v)\n", size, rep, i, r.Stats, first[size][i].Stats)
		}
	}
}

// replayTask is one traced task outcome, comparable with exp's.
type replayTask struct {
	periods map[string]float64
	stats   steady.SolveStats
	err     error
	// boundFastPath counts tree fast-path answers of the three baseline
	// bounds on the full platform, which is never a tree. (The
	// heuristics' trial platforms may be, so their fast-path hits are
	// legitimate and only reported.)
	boundFastPath int
}

// replayGrid replays one grid serially exactly as exp.Sweep's worker
// does — platforms generated up front, one evaluator Reset per task,
// heur.AllWith bound to it — with spans around every call into tiers,
// steady and heur. heurIters accumulates each heuristic's simplex
// iterations.
func replayGrid(tr *tracer, cfg exp.Config, reqBase int64, heurIters map[string]int) ([]replayTask, error) {
	platforms := make([]*tiers.Platform, cfg.Platforms)
	for pi := range platforms {
		id := tr.begin("tiers.generate", -1, 0)
		pl, err := tiers.Generate(preset(cfg.Size, cfg.Seed+int64(pi)))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		platforms[pi] = pl
	}
	ev := steady.NewEvaluator()
	hs := heur.AllWith(ev)
	var out []replayTask
	for pi, pl := range platforms {
		for di, d := range cfg.Densities {
			req := reqBase + int64(len(out))
			task := tr.begin("exp.task", -1, req)
			rng := exp.NewRNG(cfg.Seed, pi, di)
			ev.Reset()
			before := ev.Stats()
			t := replayTask{periods: map[string]float64{}}
			t.err = func() error {
				targets := pl.RandomTargets(rng, d)
				id := tr.begin("steady.new_problem", task, req)
				p, err := steady.NewProblem(pl.G, pl.Source, targets)
				tr.end(id)
				if err != nil {
					return err
				}
				bound := func(name string, f func() (*steady.Bound, error)) error {
					s0 := ev.Stats()
					id := tr.begin("steady."+name, task, req)
					b, err := f()
					tr.end(id)
					t.boundFastPath += ev.Stats().Delta(s0).FastPathHits
					if err == nil {
						t.periods[name] = b.Period
					}
					return err
				}
				if err := bound("scatter", func() (*steady.Bound, error) { return ev.ScatterUB(p) }); err != nil {
					return err
				}
				if err := bound("lb", func() (*steady.Bound, error) { return ev.MulticastLB(p) }); err != nil {
					return err
				}
				if err := bound("broadcast", func() (*steady.Bound, error) { return ev.BroadcastEB(pl.G, pl.Source) }); err != nil {
					return err
				}
				for _, h := range hs {
					key := heurKey(h.Name)
					s0 := ev.Stats()
					id := tr.begin("heur."+key, task, req)
					r, err := h.Run(p)
					tr.end(id)
					d := ev.Stats().Delta(s0)
					heurIters[key] += d.Iterations + d.DualIters
					if err != nil {
						return err
					}
					t.periods[h.Name] = r.Period
				}
				return nil
			}()
			t.stats = ev.Stats().Delta(before)
			tr.end(task)
			out = append(out, t)
		}
	}
	return out, nil
}

// expPeriods maps exp's series names onto the replay's keys.
func expPeriods(r exp.TaskResult) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Periods {
		switch k {
		case exp.SeriesScatter:
			k = "scatter"
		case exp.SeriesLowerBound:
			k = "lb"
		case exp.SeriesBroadcast:
			k = "broadcast"
		}
		out[k] = v
	}
	return out
}

// sameTask compares a replayed task with exp's result for it, bit for
// bit on every period.
func sameTask(t replayTask, r exp.TaskResult) bool {
	if (t.err != nil) != (r.Err != nil) {
		return false
	}
	if r.Err != nil {
		return true
	}
	want := expPeriods(r)
	if len(want) != len(t.periods) {
		return false
	}
	for k, v := range want {
		if math.Float64bits(t.periods[k]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

func runSweepTraced(o options) (*result, error) {
	res := &result{}
	var wallPar, wallSer, wallTr time.Duration
	var total steady.SolveStats
	heurIters := map[string]int{}
	tr := newTracer()
	for _, size := range sweepSizes {
		cfg := gridConfig(size, o.conns)
		t0 := time.Now()
		par, err := exp.Sweep(cfg)
		if err != nil {
			return nil, err
		}
		wallPar += time.Since(t0)

		cfg.Workers = 1
		t0 = time.Now()
		ser, err := exp.Sweep(cfg)
		if err != nil {
			return nil, err
		}
		wallSer += time.Since(t0)

		t0 = time.Now()
		replay, err := replayGrid(tr, cfg, int64(res.attempted), heurIters)
		if err != nil {
			return nil, err
		}
		wallTr += time.Since(t0)

		label := fmt.Sprintf("%s grid seed %d", size, cfg.Seed)
		checkTasks(res, label, ser)
		serStats := exp.AggregateStats(ser)
		var trStats steady.SolveStats
		for i, t := range replay {
			trStats.Add(t.stats)
			if t.boundFastPath != 0 {
				res.problem("%s task %d: %d tree fast-path answers for the baseline bounds of a Tiers platform", label, i, t.boundFastPath)
			}
			if !sameTask(t, ser[i]) {
				res.problem("%s task %d: traced replay periods differ from serial exp.Sweep", label, i)
			}
			if !sameTask(t, par[i]) {
				res.problem("%s task %d: traced replay periods differ from parallel exp.Sweep", label, i)
			}
		}
		// Counts that must repeat exactly: the same grid, run twice
		// serially, does the same solver work.
		if trStats != serStats {
			res.problem("%s: solver counts differ between traced replay (%v) and serial exp.Sweep (%v)", label, trStats, serStats)
		}
		if err := checkCommittedCounts(res, size, trStats); err != nil {
			return nil, err
		}
		if err := checkCommittedRatios(res, size, ser); err != nil {
			return nil, err
		}
		total.Add(trStats)
	}
	spans := tr.snapshot()
	path, err := writeSpans(o, spans)
	if err != nil {
		return nil, err
	}
	st := summarize(spans)
	taskMs := 0.0
	var taskDur sample
	for _, s := range spans {
		if s.Name == "exp.task" {
			taskDur.addDur(s.dur())
			taskMs += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	n := func(name string) string { return fmt.Sprintf("n=%d calls", len(st.byName[name])) }

	res.add("tiers.generate_ms", "ms", st.byName["tiers.generate"].pct(50), n("tiers.generate")+", p50")
	res.add("exp.parallel_eff", "ratio", wallSer.Seconds()/(float64(o.conns)*wallPar.Seconds()),
		fmt.Sprintf("serial %.2fs / (%d workers x parallel %.2fs)", wallSer.Seconds(), o.conns, wallPar.Seconds()))
	res.add("exp.task_ms_max", "ms", taskDur.max(), fmt.Sprintf("n=%d tasks", len(taskDur)))
	for _, b := range []string{"scatter", "lb", "broadcast"} {
		name := "steady." + b
		res.add(name+"_ms", "ms", st.byName[name].pct(50), n(name)+", self time p50")
		res.add(name+"_share", "ratio", ratio(st.byName[name].sum(), taskMs), "self time / task time")
	}
	addSolverMetrics(res, total, "sweep")
	for _, h := range heurSeries {
		name := "heur." + h.key
		res.add(name+"_ms", "ms", st.byName[name].pct(50), n(name)+", self time p50")
		res.add(name+".simplex_iters", "count", float64(heurIters[h.key]), "")
	}
	boundMs := st.byName["steady.scatter"].sum() + st.byName["steady.lb"].sum() + st.byName["steady.broadcast"].sum()
	for _, h := range heurSeries {
		boundMs += st.byName["heur."+h.key].sum()
	}
	res.add("lp.us_per_iter", "us", ratio(boundMs*1000, float64(total.Iterations+total.DualIters)),
		"computed: bound and heuristic self time / simplex iterations")
	addLayerSelf(res, st)
	res.add("trace_overhead_frac", "ratio", wallTr.Seconds()/wallSer.Seconds()-1,
		fmt.Sprintf("traced replay %.2fs vs serial exp.Sweep %.2fs", wallTr.Seconds(), wallSer.Seconds()))
	res.add("fail_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), fmt.Sprintf("%d of %d tasks", res.failed, res.attempted))
	fmt.Printf("  spans: %d written to %s\n", len(spans), path)
	return res, nil
}
