package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/steady"
)

// Response headers carrying serving metadata. They live in headers —
// not the body — so plan bodies stay byte-comparable across cache
// hits, coalesced followers and fresh computations. A plan this
// request computed (HeaderCache: miss) also carries the standard
// Server-Timing header, "wait;dur=<ms>": how long the computation
// queued for a pooled evaluator.
const (
	// HeaderCache reports how the plan was served: "hit" (plan cache),
	// "coalesced" (follower of an identical in-flight request) or
	// "miss" (computed for this request).
	HeaderCache = "X-Mcastd-Cache"
	// HeaderVersion is the platform version a response was computed
	// against (registered platforms only). Like the cache header it
	// stays out of the body, so a version's plan bytes are directly
	// comparable to a cold solve of that version's snapshot.
	HeaderVersion = "X-Mcastd-Version"
	// HeaderDegraded marks a response answered by a degraded fallback
	// under saturation instead of a full pooled compute: "cache" (the
	// exact requested plan, from the plan cache) or "tree" (a
	// bounds-only answer computed combinatorially on a tree platform,
	// skipping the requested heuristics). Absent on every non-degraded
	// response — whose bodies therefore stay byte-identical to a serial
	// cold solve.
	HeaderDegraded = "X-Mcastd-Degraded"
)

// UploadRequest is the body of POST /v1/platforms.
type UploadRequest struct {
	// ID names the platform; empty derives the content-addressed
	// "pf-<fingerprint>". Re-uploading an ID replaces its content and
	// invalidates the old content's cached plans.
	ID string `json:"id,omitempty"`
	// Platform is the platform description in the graph text format
	// (node/edge/link lines).
	Platform string `json:"platform"`
	// Source optionally declares a default source node for plan
	// requests that omit one.
	Source string `json:"source,omitempty"`
}

// UploadResponse is the body of a successful POST /v1/platforms.
type UploadResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Source      string `json:"source,omitempty"`
	Generation  int    `json:"generation"`
	Version     int64  `json:"version"`
	Replaced    bool   `json:"replaced,omitempty"`
	// Invalidated counts the cached plans of the replaced content that
	// were dropped.
	Invalidated int `json:"invalidated,omitempty"`
}

// PlatformInfo is one entry of GET /v1/platforms.
type PlatformInfo struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Source      string `json:"source,omitempty"`
	Generation  int    `json:"generation"`
	Version     int64  `json:"version"`
}

// EndpointStats summarises one route's traffic for GET /v1/stats.
type EndpointStats struct {
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors"`
	AvgMillis   float64 `json:"avg_ms"`
	MaxMillis   float64 `json:"max_ms"`
	TotalMillis float64 `json:"total_ms"`
}

// StatsResponse is the body of GET /v1/stats: cumulative solver
// activity across all pooled evaluators plus serving-layer counters.
// Shards is the pool size and ShardServed the per-evaluator count of
// computations served (a what-if scenario's token hold is not one).
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Platforms     int                      `json:"platforms"`
	Shards        int                      `json:"shards"`
	ShardServed   []int64                  `json:"shard_served"`
	Solver        steady.SolveStats        `json:"solver"`
	PlanCache     CacheStats               `json:"plan_cache"`
	Coalesced     int64                    `json:"coalesced"`
	Whatif        WhatifStats              `json:"whatif"`
	Batch         BatchStats               `json:"batch"`
	Jobs          JobStats                 `json:"jobs"`
	Live          LiveStats                `json:"live"`
	Resilience    ResilienceStats          `json:"resilience"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// ResilienceStats is the deadline/shedding/recovery section of
// GET /v1/stats.
type ResilienceStats struct {
	// Limiter reports the evaluator pool's admission state.
	Limiter LimiterStats `json:"limiter"`
	// Deadlines counts requests answered 503/deadline.
	Deadlines int64 `json:"deadlines"`
	// Degraded counts responses answered by a degraded fallback.
	Degraded int64 `json:"degraded"`
	// Panics counts handler panics converted into 500/internal
	// envelopes by the recovery middleware.
	Panics int64 `json:"panics"`
	// Draining reports whether the server is in its shutdown drain.
	Draining bool `json:"draining"`
}

// Server is the planning daemon: an http.Handler wiring the platform
// registry, the plan cache, the coalescer and the evaluator pool.
// Construct with New; the zero value is not usable.
type Server struct {
	cfg    Config
	reg    *registry
	pool   *evalPool
	cache  *planCache
	flight *flightGroup
	jobs   *jobStore
	mux    *http.ServeMux
	start  time.Time

	// draining flips /readyz unready and is set by Drain, which also
	// closes drain to wake every waiting subscribe stream.
	draining     atomic.Bool
	drain        chan struct{}
	deadlineHits atomic.Int64
	degraded     atomic.Int64
	panics       atomic.Int64

	// batchItemHook, when set, runs inside every batch item's flight
	// leadership, before the item takes a pooled evaluator. Tests use it
	// to gate batch compute mid-flight (cancellation and coalescing
	// regressions); nil in production.
	batchItemHook func()

	mu        sync.Mutex
	endpoints map[string]*endpointAccum
	whatif    WhatifStats
	batch     BatchStats
	live      LiveStats
}

type endpointAccum struct {
	count, errors int64
	totalMicros   int64
	maxMicros     int64
}

// New returns a ready-to-serve planning daemon.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		reg:       newRegistry(),
		pool:      newEvalPool(cfg.shards(), cfg.maxQueue()),
		cache:     newPlanCache(cfg.cacheSize()),
		flight:    newFlightGroup(),
		jobs:      newJobStore(cfg.maxJobs(), cfg.maxJobItems(), cfg.jobTTL()),
		drain:     make(chan struct{}),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		endpoints: make(map[string]*endpointAccum),
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("POST /v1/platforms", s.handleUpload)
	s.route("GET /v1/platforms", s.handleListPlatforms)
	s.route("GET /v1/platforms/{id}", s.handleGetPlatform)
	s.route("PATCH /v1/platforms/{id}", s.handlePatchPlatform)
	s.route("GET /v1/platforms/{id}/subscribe", s.handleSubscribe)
	s.route("GET /v1/platforms/{id}/log", s.handlePlatformLog)
	s.route("POST /v1/plan", s.handlePlan)
	s.route("POST /v1/plan:batch", s.handleBatch)
	s.route("POST /v1/whatif", s.handleWhatif)
	s.route("POST /v1/jobs", s.handleSubmitJob)
	s.route("GET /v1/jobs", s.handleListJobs)
	s.route("GET /v1/jobs/{id}", s.handleGetJob)
	s.route("GET /v1/jobs/{id}/stream", s.handleStreamJob)
	s.route("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.route("GET /v1/stats", s.handleStats)
	return s
}

// Shards reports the size of the evaluator pool.
func (s *Server) Shards() int { return len(s.pool.all) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler wrapped with panic recovery and the
// per-endpoint latency and error accounting surfaced by /v1/stats.
//
// The recovery middleware is what keeps a buggy (or fault-injected)
// handler from taking down the daemon: a panic is converted into the
// 500/internal v1 envelope when the response has not started, or into
// an aborted stream when it has (the client sees a truncated body, the
// next request sees a healthy server). Pooled evaluators survive
// because the pool Resets one every time it hands it out and every LP
// solve recompiles from scratch — there is no cross-request solver
// state a mid-solve panic could poison.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				if !sw.wrote {
					writeError(sw, internalError("handler panicked: %v", p))
				}
				// Mid-stream panics cannot be enveloped (the status line is
				// gone); falling through closes the connection, which is the
				// strongest truncation signal HTTP/1.1 has.
			}
			s.observe(pattern, sw.status, time.Since(t0))
		}()
		faultinject.HandlerEnter(pattern)
		h(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	// wrote reports whether the response has started (explicit
	// WriteHeader or first body Write), i.e. whether the recovery
	// middleware may still write an error envelope.
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the streaming endpoints
// (subscribe, batch, job streams) keep their incremental delivery
// through the accounting wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) observe(pattern string, status int, d time.Duration) {
	micros := d.Microseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.endpoints[pattern]
	if a == nil {
		a = &endpointAccum{}
		s.endpoints[pattern] = a
	}
	a.count++
	if status >= 400 {
		a.errors++
	}
	a.totalMicros += micros
	if micros > a.maxMicros {
		a.maxMicros = micros
	}
}

// --- helpers ----------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	// Worst-case JSON escaping doubles the platform text (every newline
	// becomes \n), so the wire limit is twice the decoded-text cap that
	// decodePlatform enforces.
	if err := decodeBody(w, r, 2*s.cfg.maxPlatformBytes()+4096, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateID(req.ID); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	g, err := decodePlatform(req.Platform, s.cfg.maxPlatformBytes())
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Source != "" {
		if _, ok := g.NodeByName(req.Source); !ok {
			writeError(w, badRequest("unknown source node %q", req.Source))
			return
		}
	}
	entry, old := s.reg.put(req.ID, g, req.Source)
	resp := UploadResponse{
		ID:          entry.id,
		Fingerprint: entry.fingerprint(),
		Nodes:       entry.nodes,
		Edges:       entry.edges,
		Source:      entry.sourceName,
		Generation:  entry.gen,
		Version:     entry.version,
	}
	if old != nil {
		resp.Replaced = true
		if old.fp != entry.fp {
			// The old content's cached plans are unreachable now that the
			// ID resolves to a new fingerprint; drop them eagerly.
			resp.Invalidated = s.cache.dropIf(func(k planKey) bool {
				return k.id == entry.id && k.fp == old.fp
			})
		}
	}
	status := http.StatusCreated
	if old != nil {
		status = http.StatusOK
	}
	w.Header().Set(HeaderVersion, fmt.Sprintf("%d", entry.version))
	writeJSON(w, status, resp)
}

func decodePlatform(text string, limit int64) (*graph.Graph, error) {
	if text == "" {
		return nil, badRequest("empty platform description")
	}
	if int64(len(text)) > limit {
		return nil, badRequest("platform description exceeds %d bytes", limit)
	}
	g, err := graph.Decode(strings.NewReader(text))
	if err != nil {
		return nil, badRequest("bad platform: %v", err)
	}
	if g.NumActive() == 0 {
		return nil, badRequest("platform has no nodes")
	}
	return g, nil
}

func (s *Server) platformInfo(e *platformEntry) PlatformInfo {
	return PlatformInfo{
		ID:          e.id,
		Fingerprint: e.fingerprint(),
		Nodes:       e.nodes,
		Edges:       e.edges,
		Source:      e.sourceName,
		Generation:  e.gen,
		Version:     e.version,
	}
}

func (s *Server) handleListPlatforms(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]PlatformInfo, len(entries))
	for i, e := range entries {
		out[i] = s.platformInfo(e)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetPlatform(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("unknown platform id"))
		return
	}
	writeJSON(w, http.StatusOK, s.platformInfo(e))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	solver, served := s.pool.stats()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Platforms:     s.reg.len(),
		Shards:        len(s.pool.all),
		ShardServed:   served,
		Solver:        solver,
		PlanCache:     s.cache.stats(),
		Coalesced:     s.flight.coalescedCount(),
		Endpoints:     make(map[string]EndpointStats),
	}
	resp.Jobs = s.jobs.stats()
	resp.Resilience.Limiter = s.pool.limiterStats()
	resp.Resilience.Deadlines = s.deadlineHits.Load()
	resp.Resilience.Degraded = s.degraded.Load()
	resp.Resilience.Panics = s.panics.Load()
	resp.Resilience.Draining = s.draining.Load()
	s.mu.Lock()
	resp.Whatif = s.whatif
	resp.Batch = s.batch
	resp.Live = s.live
	for pattern, a := range s.endpoints {
		es := EndpointStats{
			Count:       a.count,
			Errors:      a.errors,
			TotalMillis: float64(a.totalMicros) / 1e3,
			MaxMillis:   float64(a.maxMicros) / 1e3,
		}
		if a.count > 0 {
			es.AvgMillis = es.TotalMillis / float64(a.count)
		}
		resp.Endpoints[pattern] = es
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	// Same escaping headroom as uploads: an inline platform's JSON
	// encoding can be up to twice its decoded text.
	if err := decodeBody(w, r, 2*s.cfg.maxPlatformBytes()+(1<<16), &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.resolve(&req.PlanSpec)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	resp, how, wait, err := s.planResolved(ctx, res, req.NoCache, req.Degraded)
	if err != nil {
		s.countDeadline(err)
		writeError(w, err)
		return
	}
	if how == "miss" {
		w.Header().Set("Server-Timing", "wait;dur="+strconv.FormatFloat(float64(wait)/1e6, 'f', 3, 64))
	}
	if deg, ok := strings.CutPrefix(how, "degraded-"); ok {
		s.degraded.Add(1)
		w.Header().Set(HeaderDegraded, deg)
		if deg == "cache" {
			how = "hit"
		} else {
			how = "miss"
		}
	}
	w.Header().Set(HeaderCache, how)
	if res.version > 0 {
		w.Header().Set(HeaderVersion, fmt.Sprintf("%d", res.version))
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestContext derives a request's compute context: the caller's
// context bounded by the effective timeout (the request's timeout_ms
// clamped to MaxTimeout, else the server default; see Config).
func (s *Server) requestContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	if d := s.cfg.requestTimeout(timeoutMillis); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// countDeadline bumps the 503/deadline counter when err is a deadline
// expiry (handlers call it on their top-level error path).
func (s *Server) countDeadline(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineHits.Add(1)
	}
}

// planResolved executes an already-resolved spec through the cache,
// coalescer and evaluator pool — the shared back half of handlePlan
// and the subscribe streams (which resolve per version themselves to
// stamp each line with the version it computed against). wait is
// how long the computation queued for an evaluator; it is meaningful
// only when how is "miss".
//
// A plan leader is an interactive admission: it waits in the pool's
// bounded queue and is shed with 429/saturated beyond it. ctx bounds
// the compute: its cancellation is armed as the evaluator's stop flag
// while it solves, so a deadline stops the simplex mid-iteration, not
// merely between solves. A compute abandoned by ctx or shed at
// admission returns an error private to its own request, which
// coalesced followers do not inherit — they re-run; see
// flightGroup.do.
//
// degraded allows the saturation fallbacks when admission is refused:
// answer from the plan cache (the exact requested plan, how
// "degraded-cache"), or — on a tree-classified platform — a
// bounds-only combinatorial answer on a private evaluator, skipping
// the heuristics and the evaluator pool entirely (how "degraded-tree").
// Degraded answers are never cached and never coalesced: the tree
// fallback's body is NOT the requested plan's body, and must never be
// served to a caller that did not opt in.
func (s *Server) planResolved(ctx context.Context, res *resolved, noCache, degraded bool) (*PlanResponse, string, time.Duration, error) {
	key := res.key()
	// wait is set by this call's own compute; cache hits and coalesced
	// followers never queued.
	var wait time.Duration
	compute := func() (resp *PlanResponse, err error) {
		// Guard the whole leadership, hooks included: a panic escaping a
		// flight leader wakes its followers with a nil response AND a nil
		// error, which would serve as an empty 200.
		defer disarmPanic(&err)
		resp, wait, err = s.computePlan(ctx, res, true)
		return resp, err
	}

	resp, how, err := func() (*PlanResponse, string, error) {
		if noCache {
			resp, err := compute()
			return resp, "miss", err
		}
		if resp, ok := s.cache.get(key); ok {
			return resp, "hit", nil
		}
		resp, err, shared := s.flight.do(key, compute)
		if shared {
			return resp, "coalesced", err
		}
		return resp, "miss", err
	}()
	if err == nil {
		return resp, how, wait, nil
	}
	if degraded && isSaturated(err) {
		if resp, ok := s.cache.get(key); ok {
			return resp, "degraded-cache", 0, nil
		}
		if resp, ok := s.degradedTreePlan(res); ok {
			return resp, "degraded-tree", 0, nil
		}
	}
	return nil, "", 0, err
}

// computePlan computes res on a pooled evaluator and caches the
// response. interactive selects the pool's bounded, shedding admission
// (plan and replan leaders); batch and job items pass false and wait
// for an evaluator until ctx ends. It is called only inside a flight
// leader's compute (or for no_cache requests, which never coalesce), so
// the evaluator is held by a goroutine that waits on nothing else.
func (s *Server) computePlan(ctx context.Context, res *resolved, interactive bool) (resp *PlanResponse, wait time.Duration, err error) {
	wait, err = s.pool.run(ctx, interactive, func(ev *steady.Evaluator) (err error) {
		defer disarmPanic(&err)
		if err := faultinject.SolveEnter(ctx); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		defer armStop(ctx, ev)()
		resp, err = executeResolved(ev, res)
		return err
	})
	if err != nil {
		return nil, wait, ctxSolveErr(ctx, err)
	}
	s.cache.put(res.key(), resp)
	return resp, wait, nil
}

// degradedTreePlan is the saturation fallback for tree platforms: the
// requested bounds computed combinatorially (fastpath) on a private
// evaluator, heuristics skipped. It never runs an LP — non-tree
// platforms return ok=false and the saturation error stands.
func (s *Server) degradedTreePlan(res *resolved) (*PlanResponse, bool) {
	var cl graph.Classifier
	if !cl.Classify(res.g, res.source).IsTree() {
		return nil, false
	}
	resp, err := executePlan(steady.NewEvaluator(), res.g, res.fp, res.source, res.targets, res.bounds, 0)
	if err != nil {
		return nil, false
	}
	resp.PlatformID = res.id
	return resp, true
}
