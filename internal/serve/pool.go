package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/steady"
)

// evalPool is the daemon's one scarce resource: a free list of N
// steady.Evaluators (documented as not safe for concurrent use).
// Taking an evaluator *is* admission — there is no separate
// concurrency limit in front of the pool. An evaluator is Reset every
// time it is handed out: its logical state (result cache, cut and path
// pools) never leaks from one computation into the next, which is what
// keeps every response bit-identical to a cold library call, while its
// LP workspace keeps its allocated scratch memory and its cumulative
// solver statistics.
//
// Hold invariant: a goroutine that holds an evaluator never waits on a
// flight, on the pool, or on a client write. Evaluators are therefore
// taken in exactly two places — inside a flight leader's compute (plan,
// batch item and job item leaders) and around each what-if scenario,
// which never coalesces — and every holder finishes without depending
// on another request's progress, so no mix of plans, batches, jobs,
// what-ifs and replans can deadlock.
//
// Admission: interactive computations wait in a queue bounded by
// maxQueue and are shed beyond it with 429/saturated; bulk computations
// (batch and job items, what-if work) were admitted as whole requests
// and wait for an evaluator without a bound, stopped only by their
// context. Bulk waiters are counted apart and never count toward the
// shed bound or saturation, so background work admitted once cannot
// fill the interactive queue.
type evalPool struct {
	free     chan *pooledEval
	all      []*pooledEval
	maxQueue int64
	// queued counts interactive computations waiting for an evaluator,
	// bulkQueued bulk ones; shed counts admissions refused with
	// 429/saturated.
	queued     atomic.Int64
	bulkQueued atomic.Int64
	shed       atomic.Int64

	mu sync.Mutex // guards every pooledEval's served and stats
}

type pooledEval struct {
	ev     *steady.Evaluator
	served int64
	// stats snapshots ev.Stats() at the evaluator's last return, so
	// /v1/stats never reads an evaluator another goroutine holds.
	stats steady.SolveStats
}

func newEvalPool(n, maxQueue int) *evalPool {
	p := &evalPool{free: make(chan *pooledEval, n), maxQueue: int64(maxQueue)}
	for i := 0; i < n; i++ {
		e := &pooledEval{ev: steady.NewEvaluator()}
		p.all = append(p.all, e)
		p.free <- e
	}
	return p
}

// take hands out an evaluator as is; wait is how long the call queued
// for it. An interactive call is shed with the saturated apiError when
// maxQueue interactive computations already wait; any caller whose ctx
// ends in the queue returns ctx's error without ever holding an
// evaluator.
func (p *evalPool) take(ctx context.Context, interactive bool) (e *pooledEval, wait time.Duration, err error) {
	start := time.Now()
	select {
	case e = <-p.free:
		return e, time.Since(start), nil
	default:
	}
	if interactive {
		if p.queued.Add(1) > p.maxQueue {
			p.queued.Add(-1)
			return nil, 0, p.refuse()
		}
		defer p.queued.Add(-1)
	} else {
		p.bulkQueued.Add(1)
		defer p.bulkQueued.Add(-1)
	}
	select {
	case e = <-p.free:
		return e, time.Since(start), nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// run executes fn on a freshly Reset pooled evaluator and returns it to
// the pool afterwards, even if fn panics; admission is take's.
func (p *evalPool) run(ctx context.Context, interactive bool, fn func(ev *steady.Evaluator) error) (wait time.Duration, err error) {
	e, wait, err := p.take(ctx, interactive)
	if err != nil {
		return 0, err
	}
	defer p.put(e)
	e.ev.Reset()
	return wait, fn(e.ev)
}

// hold takes an evaluator as a bare concurrency token, for bulk work
// that computes on evaluators of its own (each what-if scenario
// solves on a clone of the baseline's). The held evaluator is neither
// Reset nor counted as served; release returns it to the pool.
func (p *evalPool) hold(ctx context.Context) (release func(), err error) {
	e, _, err := p.take(ctx, false)
	if err != nil {
		return nil, err
	}
	return func() { p.free <- e }, nil
}

func (p *evalPool) put(e *pooledEval) {
	p.mu.Lock()
	e.served++
	e.stats = e.ev.Stats()
	p.mu.Unlock()
	p.free <- e
}

// admitBulk is the arrival check of a bulk request (batch, what-if):
// refused exactly when saturatedNow holds, before any of its work
// queues. Admitted bulk work then waits for evaluators and is never
// shed.
func (p *evalPool) admitBulk() error {
	if p.saturatedNow() {
		return p.refuse()
	}
	return nil
}

func (p *evalPool) refuse() error {
	p.shed.Add(1)
	return saturated(1, "server is saturated: %d computations in flight, %d interactive queued (queue limit %d)",
		cap(p.free)-len(p.free), p.queued.Load(), p.maxQueue)
}

// saturatedNow reports whether every evaluator is busy and the
// interactive wait queue is full — the /readyz signal to stop routing
// traffic here before it turns into hard 429s.
func (p *evalPool) saturatedNow() bool {
	return len(p.free) == 0 && p.queued.Load() >= p.maxQueue
}

// stats aggregates the solver statistics of every evaluator as of its
// last return and reports the per-evaluator served counts.
func (p *evalPool) stats() (steady.SolveStats, []int64) {
	var total steady.SolveStats
	served := make([]int64, len(p.all))
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.all {
		total.Add(e.stats)
		served[i] = e.served
	}
	return total, served
}

// LimiterStats is the admission-control section of /v1/stats (named
// for its wire key): MaxConcurrent is the pool size, InFlight the
// evaluators handed out, Queued the computations waiting for one
// (interactive and bulk; only interactive waiters count toward
// MaxQueue).
type LimiterStats struct {
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	InFlight      int   `json:"in_flight"`
	Queued        int64 `json:"queued"`
	Shed          int64 `json:"shed"`
}

func (p *evalPool) limiterStats() LimiterStats {
	return LimiterStats{
		MaxConcurrent: cap(p.free),
		MaxQueue:      int(p.maxQueue),
		InFlight:      cap(p.free) - len(p.free),
		Queued:        p.queued.Load() + p.bulkQueued.Load(),
		Shed:          p.shed.Load(),
	}
}
