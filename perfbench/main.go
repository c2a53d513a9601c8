// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one workload from a single process and prints a
// human-readable report followed by one JSON result line:
//
//	bash perfbench/run.sh --workload sweep|plan-cold|plan-live \
//	    --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	sweep      the Figure 11 grid (Tiers small and big presets, 2
//	           platforms x densities 0.2/0.6/1.0) through exp.Sweep.
//	plan-cold  open-loop Poisson POST /v1/plan with no_cache against an
//	           in-process mcastd, then a closed-loop capacity phase.
//	plan-live  hot-skew plan reads beside a fixed-tick PATCH writer and
//	           one replan subscription, open-loop then closed-loop.
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 a separate traced run records spans
// around the calls into each layer and reports the per-layer metrics.
// Every output is checked; a wrong output sets "correct": false and the
// exit code to 1. spec.json records the workloads, the metric map and
// the predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	conns    int // client connections in total (nproc)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count or derivation, for the report only
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed output checks; any makes the run incorrect
	metrics           []metric
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "... further problems suppressed")
	}
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "sweep, plan-cold or plan-live")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&secs, "seconds", 20, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	o.conns = runtime.NumCPU()

	run := map[string]func(options) (*result, error){
		"sweep":     runSweep,
		"plan-cold": runPlanCold,
		"plan-live": runPlanLive,
	}[o.workload]
	if run == nil || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|plan-cold|plan-live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, secs, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := run(o)
	if err == nil {
		if o.trace {
			err = completePerLayer(res)
		} else {
			err = completeEndToEnd(res)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// emit prints the report and the final JSON line.
func emit(res *result) error {
	metrics := map[string]any{}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Printf("  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceDir receives the traced runs' span files; run.sh keeps its build
// there too, and .gitignore lists it.
const traceDir = ".bench_build"

// writeSpans stores the traced run's spans at the end of the run.
func writeSpans(o options, spans []span) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", o.workload, o.seed))
	return path, writeJSONL(path, spans)
}

// medianSetup runs setup n times and returns the median duration in
// seconds. setup learns whether it is the last attempt, whose state the
// run keeps; earlier attempts release theirs.
func medianSetup(n int, setup func(last bool) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}
