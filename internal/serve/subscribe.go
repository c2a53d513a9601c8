package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// SubscribeLine is one streamed update of GET
// /v1/platforms/{id}/subscribe: the platform version and either that
// version's plan — byte-identical to the POST /v1/plan body for the
// same spec against the same version, compactly encoded — or the error
// that version produced for the subscribed spec (e.g. a PATCH dropped
// the spec's source).
type SubscribeLine struct {
	Version int64           `json:"version"`
	Plan    json.RawMessage `json:"plan,omitempty"`
	Error   *ErrorBody      `json:"error,omitempty"`
	// Final marks the stream's terminator line: the server is shutting
	// down and closed the subscription deliberately. A stream that ends
	// without a final line was cut by the transport (or the client) —
	// reconnect-and-resume applies; after a final line it does not.
	Final bool `json:"final,omitempty"`
}

// LiveStats counts the live-platform traffic for GET /v1/stats.
type LiveStats struct {
	// Patches counts accepted PATCH /v1/platforms/{id} requests;
	// PatchOps the delta ops they applied.
	Patches  int64 `json:"patches"`
	PatchOps int64 `json:"patch_ops"`
	// StreamsStarted counts subscriptions ever opened; StreamsActive the
	// ones currently streaming.
	StreamsStarted int64 `json:"streams_started"`
	StreamsActive  int64 `json:"streams_active"`
	// Updates counts streamed lines across all subscriptions.
	Updates int64 `json:"updates"`
}

// splitList parses a comma-separated query value, distinguishing an
// absent parameter (nil — "all" for bounds/heuristics) from an
// explicitly empty one (empty slice — "none").
func splitList(q map[string][]string, name string) []string {
	vals, ok := q[name]
	if !ok {
		return nil
	}
	joined := strings.Join(vals, ",")
	if joined == "" {
		return []string{}
	}
	return strings.Split(joined, ",")
}

// handleSubscribe streams one plan line per platform version on the
// request's own goroutine: plan the current snapshot when it is newer
// than the after cursor, then wait for the snapshot to be superseded.
// A burst of mutations during one compute costs one more compute, of
// the newest version, and a slow reader only ever skips intermediate
// versions. Identical subscriptions share each version's compute
// through the plan cache and the coalescer, exactly as identical
// POST /v1/plan requests do.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := PlanSpec{
		PlatformID: r.PathValue("id"),
		Source:     q.Get("source"),
		Targets:    splitList(q, "targets"),
		Bounds:     splitList(q, "bounds"),
		Heuristics: splitList(q, "heuristics"),
	}
	var after int64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, badRequest("bad after version %q", v))
			return
		}
		after = n
	}
	p := s.reg.holder(spec.PlatformID)
	if p == nil {
		writeError(w, notFound("unknown platform id %q", spec.PlatformID))
		return
	}
	// Validate against the current version so a bad spec fails with a
	// proper 4xx instead of an error line on a 200 stream.
	e := p.cur.Load()
	if _, err := resolveAt(&spec, e); err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, badRequest("streaming unsupported by transport"))
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.bumpLive(func(ls *LiveStats) { ls.StreamsStarted++; ls.StreamsActive++ })
	defer s.bumpLive(func(ls *LiveStats) { ls.StreamsActive-- })
	// Deferred last so it runs first: once streams_active reads 0, no
	// PATCH counts the stream as repaired.
	p.streams.Add(1)
	defer p.streams.Add(-1)

	ctx := r.Context()
	for {
		if s.draining.Load() {
			// Shutdown while the client is still reading: send the
			// stream's final terminator line so the client can tell a
			// deliberate shutdown from a cut connection.
			writeSubscribeLine(w, flusher, sse, 0, SubscribeLine{Final: true})
			return
		}
		// Resume semantics: a version at or below the cursor is one the
		// subscriber already has from a previous stream.
		if e.version > after {
			after = e.version
			line := s.subscribeLine(ctx, &spec, e)
			if ctx.Err() != nil {
				return // the client is gone
			}
			if err := faultinject.StreamWrite(ctx); err != nil {
				return
			}
			if !writeSubscribeLine(w, flusher, sse, e.version, line) {
				return
			}
			s.bumpLive(func(ls *LiveStats) { ls.Updates++ })
		}
		select {
		case <-e.superseded:
			e = p.cur.Load()
		case <-s.drain:
		case <-ctx.Done():
			return
		}
	}
}

// subscribeLine plans spec against snapshot e through the canonical
// serving path — cache, coalescer, evaluator pool, Reset evaluator —
// so the streamed plan bytes are bit-identical to an interactive
// POST /v1/plan against the same version, and (by the serving
// determinism contract) to a cold solve of that snapshot. This is also
// the cache repair half of PATCH invalidation: the compute re-enters
// the plan cache under the new fingerprint. Each compute runs under
// the server's default timeout (a stream carries no timeout_ms); a
// failure becomes the version's error line and the next version
// computes afresh.
func (s *Server) subscribeLine(ctx context.Context, spec *PlanSpec, e *platformEntry) SubscribeLine {
	line := SubscribeLine{Version: e.version}
	res, err := resolveAt(spec, e)
	if err == nil {
		ctx, cancel := s.requestContext(ctx, 0)
		var resp *PlanResponse
		resp, _, _, err = s.planResolved(ctx, res, false, false)
		cancel()
		if err == nil {
			line.Plan, err = json.Marshal(resp)
		}
	}
	if err != nil {
		_, body := errorBody(err)
		line.Error = &body
	}
	return line
}

// writeSubscribeLine encodes and flushes one stream line in the
// negotiated framing. SSE plan events are id-stamped with the version
// so EventSource clients resume with Last-Event-ID semantics; the
// final terminator is its own un-stamped "final" event. It reports
// whether the write reached the transport (false: the client is gone).
func writeSubscribeLine(w http.ResponseWriter, flusher http.Flusher, sse bool, version int64, line SubscribeLine) bool {
	payload, err := json.Marshal(line)
	if err != nil {
		return false
	}
	switch {
	case sse && line.Final:
		_, err = fmt.Fprintf(w, "event: final\ndata: %s\n\n", payload)
	case sse:
		_, err = fmt.Fprintf(w, "id: %d\nevent: plan\ndata: %s\n\n", version, payload)
	default:
		_, err = fmt.Fprintf(w, "%s\n", payload)
	}
	if err != nil {
		return false
	}
	flusher.Flush()
	return true
}

func (s *Server) bumpLive(f func(*LiveStats)) {
	s.mu.Lock()
	f(&s.live)
	s.mu.Unlock()
}
