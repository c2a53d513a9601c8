package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/steady"
)

// armStop wires ctx's cancellation into ev's cooperative stop flag for
// the duration of one compute. The returned func disarms: it stops the
// AfterFunc and detaches the flag, so the evaluator is safe to hand to
// the next request. Usage: defer armStop(ctx, ev)().
//
// The flag is per-compute (not per-evaluator): two requests served by
// the same pooled evaluator never see each other's cancellations.
func armStop(ctx context.Context, ev *steady.Evaluator) func() {
	var stop atomic.Bool
	cancel := context.AfterFunc(ctx, func() { stop.Store(true) })
	ev.SetStop(&stop)
	return func() {
		cancel()
		ev.SetStop(nil)
	}
}

// ctxSolveErr translates a compute error under a cancelled context
// into the context's own error: the solver reports lp.ErrCanceled when
// its stop flag fires, but the *reason* it fired — deadline expiry or
// a vanished client — lives in ctx. Callers (and the error envelope)
// branch on context.DeadlineExceeded vs context.Canceled; coalesced
// followers treat both as leader-private and re-run.
func ctxSolveErr(ctx context.Context, err error) error {
	cerr := ctx.Err()
	if cerr == nil {
		return err
	}
	if errors.Is(err, lp.ErrCanceled) || errors.Is(err, cerr) {
		return cerr
	}
	return err
}

// disarmPanic converts a panic on the solve path into a 500/internal
// apiError. It exists for the flight compute closures: a leader that
// panicked with no recovery would leave its followers a nil response
// AND a nil error (flightGroup deregisters via defer but never fills
// the result), which callers would then serve as an empty 200. Usage:
// defer disarmPanic(&err) as the first deferred call of the closure.
func disarmPanic(err *error) {
	if p := recover(); p != nil {
		*err = internalError("plan compute panicked: %v", p)
	}
}

// Drain moves the server into its shutdown drain and blocks until the
// in-flight asynchronous work is out, or ctx expires:
//
//   - /readyz flips unready immediately, so fleet routing stops
//     sending traffic before connections start failing;
//   - one closed channel wakes every live subscribe stream; each sends
//     one final terminator line ({"final":true}) and its handler
//     returns, so http.Server.Shutdown is not held hostage by
//     never-ending streams (a stream mid-compute sends that version's
//     line first);
//   - running async jobs get until ctx's deadline to finish; jobs
//     still unfinished then are canceled (their remaining items drain
//     as per-item "canceled" error lines and the jobs land in state
//     "canceled", exactly like a client DELETE).
//
// Drain does not stop the HTTP listener — call it before
// http.Server.Shutdown, which handles the connection-level drain.
// Synchronous requests already in flight run to completion as usual.
// Drain is idempotent; concurrent calls both wait.
func (s *Server) Drain(ctx context.Context) {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drain)
	}
	// Lazy poll, no condition plumbing: job drains are solve-speed
	// affairs and Drain runs once per process exit.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.jobs.activeCount() > 0 {
		select {
		case <-ctx.Done():
			s.jobs.cancelAll()
			// Canceled jobs still drain their remaining items (as error
			// lines); that drain is bounded by the per-item ctx.Err checks,
			// so wait for it without a deadline.
			for s.jobs.activeCount() > 0 {
				<-tick.C
			}
			return
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleReadyz is GET /readyz: readiness, as opposed to /healthz's
// liveness. It answers 503 while the server is draining (shutdown is
// imminent, route new traffic elsewhere) or while the evaluator pool is
// saturated (new compute would be shed with 429 anyway). /healthz
// keeps answering 200 in both states — the process is alive and
// serving, it just should not receive new traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.pool.saturatedNow():
		reason = "saturated"
	}
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
