package steady

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/tiers"
)

// The reference benchmarks of the Multicast-LB solver: the cold and
// un-presolved configurations exist only here, so they run the solver
// below the evaluator (no result cache, no cut pool, no fast path).

// refLB solves Multicast-LB outside any evaluator, on a fresh LP
// workspace and scratch, in the solver configuration opts selects.
func refLB(p Problem, opts lbOptions) (*Bound, error) {
	opts.ws, opts.sc = lp.NewWorkspace(), &scratch{}
	return multicastLB(p, opts)
}

// --- Solver engine: cold vs warm cutting plane -------------------------

// BenchmarkMulticastLBWarmCuts and ...ColdCuts time the Multicast-LB
// cutting-plane loop on a dense-target (broadcast-shaped) instance of
// the big platform, with and without warm-starting each separation
// round from the previous basis. The reported simplex-iters metric is
// the acceptance criterion: warm must pivot measurably less for the
// same optimum.
func BenchmarkMulticastLBWarmCuts(b *testing.B) { benchLBCuts(b, true) }

func BenchmarkMulticastLBColdCuts(b *testing.B) { benchLBCuts(b, false) }

func benchLBCuts(b *testing.B, warm bool) {
	b.Helper()
	pl, err := tiers.Generate(tiers.Big(11))
	if err != nil {
		b.Fatal(err)
	}
	var targets []graph.NodeID
	for _, v := range pl.G.ActiveNodes() {
		if v != pl.Source {
			targets = append(targets, v)
		}
	}
	p, err := NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		b.Fatal(err)
	}
	var bound *Bound
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, err = refLB(p, lbOptions{cold: !warm})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bound.Iterations), "simplex-iters")
	b.ReportMetric(float64(bound.Rounds), "rounds")
	b.ReportMetric(float64(bound.Solves), "lp-solves")
	b.ReportMetric(float64(bound.WarmSolves), "warm-solves")
	b.ReportMetric(1/bound.Period, "throughput")
}

// --- Tree-topology fast path: combinatorial bound vs the LP ----------

// BenchmarkTreeFastPathSmall/Big time a broadcast bound on random tree
// platforms at the Figure 11 node counts (30 and 65) through the
// evaluator's combinatorial fast path, with a Reset each iteration so
// every evaluation reclassifies and rescans rather than hitting the
// result cache. The ...LB twins push the identical problem through the
// Multicast-LB solver (presolved, and raw with presolve off) — at 30
// nodes that is the direct per-target formulation, at 65 the
// cut-covering master. The acceptance criterion is ns/op: the fast
// path must beat both LP configurations by >= 10x while agreeing on
// the throughput (checked here before the timer starts; the tests and
// FuzzTreeVsLP pin the <= 1e-9 contract).
func BenchmarkTreeFastPathSmall(b *testing.B) { benchTreeBound(b, 30, "fast") }

func BenchmarkTreeFastPathBig(b *testing.B) { benchTreeBound(b, 65, "fast") }

func BenchmarkTreeLBSmall(b *testing.B) { benchTreeBound(b, 30, "lp") }

func BenchmarkTreeLBBig(b *testing.B) { benchTreeBound(b, 65, "lp") }

func BenchmarkTreeLBRawSmall(b *testing.B) { benchTreeBound(b, 30, "lpraw") }

func BenchmarkTreeLBRawBig(b *testing.B) { benchTreeBound(b, 65, "lpraw") }

// benchTreeRebuild grows a random recursive tree with tiers-like
// heterogeneous full-duplex links — the reconstructed-spanning-tree
// platform a multicast session runs on after tree selection.
func benchTreeRebuild(n int, seed int64) (*graph.Graph, []graph.NodeID) {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	ids := g.AddNodes("n", n)
	for i := 1; i < n; i++ {
		p := ids[r.Intn(i)]
		g.AddLink(p, ids[i], 10+r.Float64()*190)
	}
	return g, ids
}

func benchTreeBound(b *testing.B, n int, mode string) {
	b.Helper()
	g, ids := benchTreeRebuild(n, int64(n))
	p, err := NewProblem(g, ids[0], ids[1:])
	if err != nil {
		b.Fatal(err)
	}
	// Agreement check up front, outside the timed loop: the fast path
	// and the LP must report the same broadcast period on this platform.
	ev := NewEvaluator()
	fast, err := ev.MulticastLB(p)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := refLB(p, lbOptions{cold: true})
	if err != nil {
		b.Fatal(err)
	}
	if d := fast.Period - ref.Period; d > 1e-6*ref.Period || d < -1e-6*ref.Period {
		b.Fatalf("fast period %.17g vs LP %.17g", fast.Period, ref.Period)
	}

	var bound *Bound
	b.ResetTimer()
	switch mode {
	case "fast":
		for i := 0; i < b.N; i++ {
			ev.Reset()
			bound, err = ev.MulticastLB(p)
			if err != nil {
				b.Fatal(err)
			}
		}
		s := ev.Stats()
		b.ReportMetric(float64(s.FastPathHits)/float64(b.N+1), "fastpath-hits")
		b.ReportMetric(float64(s.Solves), "lp-solves")
	case "lp":
		for i := 0; i < b.N; i++ {
			bound, err = refLB(p, lbOptions{cold: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bound.Iterations), "simplex-iters")
		b.ReportMetric(float64(bound.Solves), "lp-solves")
	case "lpraw":
		for i := 0; i < b.N; i++ {
			bound, err = refLB(p, lbOptions{cold: true, noPresolve: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bound.Iterations), "simplex-iters")
		b.ReportMetric(float64(bound.Solves), "lp-solves")
	default:
		b.Fatalf("unknown mode %q", mode)
	}
	b.ReportMetric(1/bound.Period, "throughput")
}
