// Package serve is the long-running planning daemon behind cmd/mcastd:
// an HTTP/JSON service that answers Series-of-Multicasts plan requests
// (platform, source, targets, requested bounds and heuristics) over a
// pool of steady.Evaluators.
//
// The serving layers, front to back (DESIGN.md Section 9):
//
//   - a platform registry: clients upload a platform once (the graph
//     text format) and reference it by ID in every later plan request;
//     re-uploading an ID swaps its content and invalidates the plan
//     cache entries of the old content. Platforms are *live*: every
//     mutation — re-upload or a PATCH /v1/platforms/{id} delta batch —
//     bumps a per-platform version and wakes the GET
//     /v1/platforms/{id}/subscribe streams waiting on the snapshot it
//     replaces, each of which plans the new version through the cache
//     and coalescer below (DESIGN.md Section 14);
//   - an LRU plan cache keyed by (platform fingerprint, source, target
//     list, requested bounds and heuristics) holding complete
//     responses;
//   - a singleflight coalescer: identical in-flight plan requests are
//     computed once, followers receive the leader's response;
//   - an evaluator pool: a free list of N steady.Evaluators (documented
//     as not safe for concurrent use). Taking an evaluator is
//     admission: interactive plans wait in a bounded queue and are
//     shed beyond it, and no goroutine that holds an evaluator ever
//     waits on a flight, on the pool or on a client write.
//
// Every plan response is bit-identical to the serial library-call
// sequence for the same request (bounds in canonical order, then the
// requested heuristics in registry order, on one fresh evaluator) —
// concurrency, caching and coalescing are never allowed to change a
// byte of the answer. That is why the pool Resets an evaluator every
// time it hands one out instead of carrying pooled cuts across
// requests; see
// DESIGN.md Section 9.3 for the measured ULP-level divergence that
// forbids cross-request pooling.
package serve

import (
	"runtime"
	"time"
)

// Config parameterises a Server.
type Config struct {
	// Shards is the size of the evaluator pool — how many computations
	// run at once; values < 1 mean runtime.GOMAXPROCS(0).
	Shards int
	// CacheSize is the plan cache capacity in responses. 0 means
	// DefaultCacheSize; negative disables the plan cache (benchmarks
	// disable it so every request exercises the evaluator pool).
	CacheSize int
	// MaxPlatformBytes caps an uploaded or inline platform description.
	// 0 means DefaultMaxPlatformBytes.
	MaxPlatformBytes int64
	// MaxBatchItems caps the item count of one POST /v1/plan:batch or
	// POST /v1/jobs body. 0 means DefaultMaxBatchItems.
	MaxBatchItems int
	// MaxJobs caps the unfinished (queued + running) async jobs; a
	// submit beyond it is refused with 429/saturated. 0 means
	// DefaultMaxJobs.
	MaxJobs int
	// MaxJobItems caps the total pending items across unfinished async
	// jobs — the second admission-control axis: many small jobs hit
	// MaxJobs, a few huge ones hit MaxJobItems. 0 means
	// DefaultMaxJobItems.
	MaxJobItems int
	// JobTTL is how long a finished (done or canceled) job's results
	// stay retrievable before eviction. 0 means DefaultJobTTL.
	JobTTL time.Duration
	// DefaultTimeout bounds a request's compute when the request sets no
	// timeout_ms of its own. 0 means no default deadline (the historical
	// behaviour); negative also means none.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms field, so a client can
	// shorten its budget but never extend it past the operator's bound.
	// 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// MaxQueue caps how many interactive plan computations may wait for
	// a pooled evaluator before further ones are shed with
	// 429/saturated (and batch and what-if requests refused at
	// arrival). Admitted batch, job and what-if work waits outside this
	// bound; see evalPool.
	// 0 means DefaultMaxQueue.
	MaxQueue int
}

// DefaultCacheSize is the plan cache capacity when Config.CacheSize is
// zero.
const DefaultCacheSize = 1024

// DefaultMaxPlatformBytes caps platform uploads when
// Config.MaxPlatformBytes is zero (1 MiB of graph text is ~30k edges,
// far beyond the LPs' practical range).
const DefaultMaxPlatformBytes = 1 << 20

func (c Config) shards() int {
	if c.Shards < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Shards
}

func (c Config) cacheSize() int {
	switch {
	case c.CacheSize < 0:
		return 0
	case c.CacheSize == 0:
		return DefaultCacheSize
	}
	return c.CacheSize
}

func (c Config) maxPlatformBytes() int64 {
	if c.MaxPlatformBytes <= 0 {
		return DefaultMaxPlatformBytes
	}
	return c.MaxPlatformBytes
}

// DefaultMaxBatchItems caps one batch or job submission when
// Config.MaxBatchItems is zero.
const DefaultMaxBatchItems = 1024

// DefaultMaxJobs caps unfinished async jobs when Config.MaxJobs is
// zero.
const DefaultMaxJobs = 16

// DefaultMaxJobItems caps pending items across unfinished async jobs
// when Config.MaxJobItems is zero.
const DefaultMaxJobItems = 8192

// DefaultJobTTL is how long finished jobs stay retrievable when
// Config.JobTTL is zero.
const DefaultJobTTL = 10 * time.Minute

func (c Config) maxBatchItems() int {
	if c.MaxBatchItems <= 0 {
		return DefaultMaxBatchItems
	}
	return c.MaxBatchItems
}

func (c Config) maxJobs() int {
	if c.MaxJobs <= 0 {
		return DefaultMaxJobs
	}
	return c.MaxJobs
}

func (c Config) maxJobItems() int {
	if c.MaxJobItems <= 0 {
		return DefaultMaxJobItems
	}
	return c.MaxJobItems
}

func (c Config) jobTTL() time.Duration {
	if c.JobTTL <= 0 {
		return DefaultJobTTL
	}
	return c.JobTTL
}

// DefaultMaxTimeout caps the client-requested timeout_ms when
// Config.MaxTimeout is zero.
const DefaultMaxTimeout = 5 * time.Minute

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 0
	}
	return c.DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout <= 0 {
		return DefaultMaxTimeout
	}
	return c.MaxTimeout
}

// DefaultMaxQueue is the evaluator wait-queue bound when
// Config.MaxQueue is zero. It does not scale with the pool: a client
// pool of up to 64 concurrent connections queues rather than sheds
// even on a one-evaluator daemon.
const DefaultMaxQueue = 64

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return DefaultMaxQueue
	}
	return c.MaxQueue
}

// requestTimeout resolves the effective deadline of a request that
// asked for timeoutMillis (0 = none requested): the request's own
// budget clamped to MaxTimeout, else the server default.
func (c Config) requestTimeout(timeoutMillis int64) time.Duration {
	if timeoutMillis <= 0 {
		return c.defaultTimeout()
	}
	d := time.Duration(timeoutMillis) * time.Millisecond
	if max := c.maxTimeout(); d > max {
		return max
	}
	return d
}
