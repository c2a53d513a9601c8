// Package faultinject is a compiled-in, nil-by-default fault-injection
// registry for the serving stack. Chaos tests install a Hooks value to
// make specific failure modes happen on demand — a solver that stalls,
// a solve that errors, a handler that panics, a subscriber stream that
// wedges — and the daemon's resilience machinery (deadlines, panic
// recovery, shedding) is then exercised against real faults instead of
// mocks.
//
// Production pays one atomic pointer load per hook site: with no hooks
// installed (the default), every site is a nil check. The registry is
// process-global because the faults it models are process-global —
// injecting them through every constructor would thread test plumbing
// through the whole stack for no production benefit.
package faultinject

import (
	"context"
	"sync/atomic"
)

// Hooks is one set of injected faults. Any field may be nil; a nil
// field injects nothing at that site. Hook functions run on the
// serving goroutine that hit the site and must be safe for concurrent
// calls.
type Hooks struct {
	// SolveEnter runs at the start of every pooled compute, once the
	// evaluator is held and before it solves. Returning a non-nil error makes the compute fail
	// with it; blocking (e.g. until ctx is done) models a stalled
	// solver. The context is the request's, so a stall hook can honour
	// cancellation.
	SolveEnter func(ctx context.Context) error

	// HandlerEnter runs when a handler for the given route pattern
	// (e.g. "POST /v1/plan") begins, inside the recovery middleware.
	// Panicking here models a handler bug.
	HandlerEnter func(route string)

	// StreamWrite runs before every subscribe/job stream line is
	// written. Blocking models a slow or wedged subscriber; returning a
	// non-nil error aborts the stream.
	StreamWrite func(ctx context.Context) error
}

var active atomic.Pointer[Hooks]

// Set installs hooks for the whole process; Set(nil) removes them.
// Tests that install hooks must restore the previous value (usually
// via defer faultinject.Set(nil)) and must not run in parallel with
// other hook-installing tests.
func Set(h *Hooks) { active.Store(h) }

// SolveEnter invokes the SolveEnter hook if one is installed.
func SolveEnter(ctx context.Context) error {
	if h := active.Load(); h != nil && h.SolveEnter != nil {
		return h.SolveEnter(ctx)
	}
	return nil
}

// HandlerEnter invokes the HandlerEnter hook if one is installed.
func HandlerEnter(route string) {
	if h := active.Load(); h != nil && h.HandlerEnter != nil {
		h.HandlerEnter(route)
	}
}

// StreamWrite invokes the StreamWrite hook if one is installed.
func StreamWrite(ctx context.Context) error {
	if h := active.Load(); h != nil && h.StreamWrite != nil {
		return h.StreamWrite(ctx)
	}
	return nil
}
