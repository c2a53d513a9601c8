package serve

import (
	"context"
	"errors"
	"sync"
)

// flightGroup coalesces identical in-flight plan computations: the
// first request for a key becomes the leader and computes; followers
// arriving before it finishes block and receive the leader's response.
// (A minimal singleflight, keyed by planKey; responses are immutable
// so sharing the pointer is safe.)
type flightGroup struct {
	mu        sync.Mutex
	inflight  map[planKey]*flightCall
	coalesced int64 // follower count, for /v1/stats
}

type flightCall struct {
	done chan struct{}
	resp *PlanResponse
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[planKey]*flightCall)}
}

// do returns fn's result for key, computing it at most once across
// concurrent callers. shared reports whether this caller was a
// follower of another caller's computation.
//
// A leader that fails with a context cancellation or a saturation
// verdict failed for a reason private to its own request — its client
// hung up, its deadline passed, or its own admission was shed — not
// because the computation is broken. Followers must not inherit that
// error: a follower waking to such a leader loops and re-runs the
// computation (typically becoming the next leader, with an admission
// of its own: a batch item waits for an evaluator where an interactive
// leader was shed), and its coalesced count is rolled back so the
// serving accounting still adds up. Deterministic errors (bad
// instance, LP failure) are shared as before: re-running could only
// reproduce them.
func (g *flightGroup) do(key planKey, fn func() (*PlanResponse, error)) (resp *PlanResponse, err error, shared bool) {
	for {
		g.mu.Lock()
		if c, ok := g.inflight[key]; ok {
			g.coalesced++
			g.mu.Unlock()
			<-c.done
			if leaderPrivate(c.err) {
				g.mu.Lock()
				g.coalesced--
				g.mu.Unlock()
				continue
			}
			return c.resp, c.err, true
		}
		c := &flightCall{done: make(chan struct{})}
		g.inflight[key] = c
		g.mu.Unlock()

		// Deregister and wake followers even if fn panics (net/http would
		// recover the panic per-connection; without the defer the stale
		// flightCall would wedge this key forever).
		defer func() {
			g.mu.Lock()
			delete(g.inflight, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.resp, c.err = fn()
		return c.resp, c.err, false
	}
}

// leaderPrivate reports whether a leader's error is a context
// cancellation or a shed admission — an error about the leader's
// request, not about the computation.
func leaderPrivate(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || isSaturated(err)
}

func (g *flightGroup) coalescedCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}
