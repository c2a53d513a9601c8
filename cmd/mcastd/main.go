// Command mcastd is the multicast-planning daemon: a long-running
// HTTP/JSON service that answers Series-of-Multicasts plan requests
// over a pool of bound evaluators (see internal/serve and DESIGN.md
// Section 9).
//
// Usage:
//
//	mcastd [-addr :8723] [-shards N] [-cache N] [-max-jobs N]
//	       [-job-ttl 10m] [-default-timeout 0] [-max-queue N]
//	       [-pprof 127.0.0.1:6060]
//
// -shards sizes the evaluator pool: how many computations run at once.
// Plan requests beyond it wait in a queue of -max-queue seats and are
// shed with 429/saturated past that; batch and what-if requests are
// refused at arrival while the queue is full. Admitted batch, job and
// what-if items wait for evaluators outside that queue.
//
// Endpoints:
//
//	GET    /healthz              liveness (200 while the process serves)
//	GET    /readyz               readiness (503 while draining/saturated)
//	POST   /v1/platforms         upload a platform (graph text format)
//	GET    /v1/platforms         list registered platforms
//	GET    /v1/platforms/{id}    one platform's metadata
//	POST   /v1/plan              compute bounds and heuristic plans
//	POST   /v1/plan:batch        many plans, one NDJSON stream in order
//	POST   /v1/jobs              submit a batch as an async job (202)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         poll one job's progress
//	GET    /v1/jobs/{id}/stream  tail a job's NDJSON results (?offset=N)
//	DELETE /v1/jobs/{id}         cancel a job
//	POST   /v1/whatif            resilience what-if analysis (NDJSON)
//	GET    /v1/stats             solver + serving statistics
//
// Errors are the structured envelope {"error":{"code":...,
// "message":...}} on every endpoint; see DESIGN.md Section 13.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips
// unready, live subscribe streams are closed with a final terminator
// line, running async jobs get the -drain window to finish (then are
// canceled), and in-flight requests drain for the remainder of the
// window.
//
// -pprof starts net/http/pprof on a separate listener (opt-in and
// intended for a loopback or otherwise private address — the profile
// endpoints expose internals and never belong on the serving port).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("mcastd: ")
	var (
		addr      = flag.String("addr", ":8723", "listen address")
		shards    = flag.Int("shards", 0, "evaluator pool size, i.e. concurrent computations (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 0, "plan cache capacity in responses (0 = default, negative disables)")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof on this address (empty disables; use a private address)")
		maxJobs   = flag.Int("max-jobs", 0, "max unfinished async jobs before 429 (0 = default)")
		jobTTL    = flag.Duration("job-ttl", 0, "how long finished job results stay retrievable (0 = default)")
		defTO     = flag.Duration("default-timeout", 0, "per-request compute deadline when the request sets no timeout_ms (0 = none)")
		maxQueue  = flag.Int("max-queue", 0, "max plan computations waiting for an evaluator before 429/saturated (0 = default)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			ps := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	srv := serve.New(serve.Config{
		Shards: *shards, CacheSize: *cache, MaxJobs: *maxJobs, JobTTL: *jobTTL,
		DefaultTimeout: *defTO, MaxQueue: *maxQueue,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		// No blanket write timeout: big-platform plans legitimately run
		// for tens of seconds; the evaluator pool bounds concurrent work.
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving on %s with %d pooled evaluators", *addr, srv.Shards())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining up to %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Application drain first: /readyz unready, subscribe streams closed
	// with their final line, async jobs finished or canceled. Only then
	// the connection-level drain — Shutdown would otherwise wait on
	// subscribe streams that never end.
	srv.Drain(sctx)
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
}
