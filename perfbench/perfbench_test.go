package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/exp"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 90},
		{100, 90},
		{99, 50},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {100, 5}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (sample{}).pct(50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "exp.task", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "steady.lb", Start: ms(10), End: ms(30), Parent: 0},       // overlaps the next child
		{Name: "heur.mcph", Start: ms(20), End: ms(50), Parent: 0},       // covered together: 10..50
		{Name: "steady.lb", Start: ms(25), End: ms(45), Parent: 2},       // nested in heur.mcph only
		{Name: "steady.scatter", Start: ms(90), End: ms(120), Parent: 0}, // sticks out: 90..100 counts
		{Name: "serve.plan", Start: ms(60), End: ms(70), Parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(50), ms(20), ms(10), ms(20), ms(30), ms(10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	st := summarize(spans)
	if st.byLayer["steady"] != 70 || st.byLayer["heur"] != 10 || st.byLayer["exp"] != 50 {
		t.Errorf("layer self times %v", st.byLayer)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	pick := func(r *rand.Rand) int { return r.Intn(256) }
	a := poissonSchedule(exp.NewRNG(7, 3), 200, 10*time.Second, pick)
	b := poissonSchedule(exp.NewRNG(7, 3), 200, 10*time.Second, pick)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	c := poissonSchedule(exp.NewRNG(8, 3), 200, 10*time.Second, pick)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 200/s over 10s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due || a[i].Due >= 10*time.Second {
			t.Fatalf("arrival %d due %v after %v", i, a[i].Due, a[i-1].Due)
		}
	}
	if got := tickSchedule(50*time.Millisecond, time.Second); len(got) != 19 || got[0].Due != 50*time.Millisecond {
		t.Errorf("tick schedule %v", got)
	}
}

func TestTaskLatencies(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(n int) time.Time { return t0.Add(ms(n)) }
	// Two workers over a 1-platform grid: tasks 0 and 1 start at once,
	// task 1 finishes first (at 10ms) and frees a worker for task 2.
	c := &completionClock{
		stamp: []time.Time{at(10), at(25), at(40)},
		lines: []string{
			"platform 0 density 0.60: |T|=9 scatter=1 lb=1\n",
			"platform 0 density 0.20: |T|=3 scatter=1 lb=1\n",
			"platform 0 density 1.00: error: boom\n",
		},
	}
	got, err := taskLatencies(t0, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := (sample{10, 25, 30}); !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
}

func TestUpdateLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(n int) time.Time { return t0.Add(ms(n)) }
	patches := []patchOutcome{
		{ack: at(10), version: 2},
		{ack: at(20), version: 3},
		{ack: at(30), version: 4},
	}
	// Version 3 was coalesced away; version 4's line beat its ack.
	lines := []subLine{{1, at(0)}, {2, at(15)}, {4, at(28)}}
	if got, want := updateLags(patches, lines), (sample{5, 8, 0}); !reflect.DeepEqual(got, want) {
		t.Fatalf("lags %v, want %v", got, want)
	}
}

// TestReplayMatchesSweep replays a one-task grid and compares it with
// exp.Sweep bit for bit, solver counts included.
func TestReplayMatchesSweep(t *testing.T) {
	cfg := exp.Config{Size: "small", Platforms: 1, Densities: []float64{0.2}, Seed: 1, Workers: 1}
	want, err := exp.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	iters := map[string]int{}
	got, err := replayGrid(tr, cfg, 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !sameTask(got[0], want[0]) {
		t.Fatalf("replay %+v differs from exp.Sweep %+v", got, want[0])
	}
	if got[0].stats != want[0].Stats {
		t.Fatalf("replay stats %v, exp.Sweep %v", got[0].stats, want[0].Stats)
	}
	total := 0
	for _, n := range iters {
		total += n
	}
	if st := want[0].Stats; total > st.Iterations+st.DualIters || total == 0 {
		t.Errorf("heuristic iterations %d of %d total", total, st.Iterations+st.DualIters)
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s not closed", s.Name)
		}
	}
	for _, n := range []string{"tiers.generate", "exp.task", "steady.scatter", "steady.lb", "steady.broadcast", "heur.mcph", "heur.multisource"} {
		if names[n] != 1 {
			t.Errorf("%d %s spans, want 1", names[n], n)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %s [%s]", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %s [%s]", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}
