package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/steady"
)

// platformEntry is one *version snapshot* of a registered platform.
// Snapshots are immutable once published — a mutation (re-upload or
// PATCH) builds a new graph and publishes a new entry under the same
// ID — so every evaluator may read the graph concurrently without locking:
// nothing in the plan path mutates a published snapshot (the
// heuristics clone before touching the activity mask), and in-flight
// requests keep computing against the snapshot they resolved, whatever
// happens to the platform meanwhile.
type platformEntry struct {
	id         string
	g          *graph.Graph
	fp         uint64
	sourceName string // default source for plan requests, may be ""
	nodes      int
	edges      int
	gen        int   // upload generation of this ID, starting at 1
	version    int64 // monotonic per-platform version, bumped by uploads AND patches
	// superseded is closed when the next version of the platform is
	// published: subscribe streams wait on it for their next plan.
	superseded chan struct{}
}

func (e *platformEntry) fingerprint() string { return fmt.Sprintf("%016x", e.fp) }

// ChangeRecord is one entry of a platform's mutation log, surfaced by
// GET /v1/platforms/{id}/log (newest last).
type ChangeRecord struct {
	Version int64  `json:"version"`
	Kind    string `json:"kind"` // "upload" or "patch"
	// Ops echoes the applied PATCH delta batch (empty for uploads).
	Ops         []PatchOp `json:"ops,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
}

// mutationLogCap caps the change records kept per platform and served
// by GET /v1/platforms/{id}/log.
const mutationLogCap = 256

// platform is the mutable holder behind one ID: the current snapshot
// (atomic, so readers never block on a mutation in progress), the
// mutation log and the count of subscribe streams following it.
type platform struct {
	mu  sync.Mutex // serialises mutations of this ID
	cur atomic.Pointer[platformEntry]
	// log is the mutation log, newest last, capped at mutationLogCap.
	log []ChangeRecord
	// streams counts the subscribe streams following this platform.
	streams atomic.Int64
}

// registry is the platform store: upload once, reference by ID, mutate
// with PATCH deltas.
type registry struct {
	mu sync.RWMutex
	m  map[string]*platform
}

func newRegistry() *registry {
	return &registry{m: make(map[string]*platform)}
}

// record publishes e as p's current snapshot, wakes the streams waiting
// on the snapshot it replaces and appends the log record. Caller holds
// p.mu.
func (r *registry) record(p *platform, e *platformEntry, kind string, ops []PatchOp) {
	// Publish before waking: a woken stream must load e, not the old
	// snapshot whose channel is already closed.
	if old := p.cur.Swap(e); old != nil {
		close(old.superseded)
	}
	p.log = append(p.log, ChangeRecord{
		Version:     e.version,
		Kind:        kind,
		Ops:         ops,
		Fingerprint: e.fingerprint(),
		Nodes:       e.nodes,
		Edges:       e.edges,
	})
	if n := len(p.log) - mutationLogCap; n > 0 {
		p.log = append(p.log[:0], p.log[n:]...)
	}
}

// put registers (or replaces) a platform. An empty id derives a
// content-addressed default from the graph fingerprint AND the default
// source: "pf-<fingerprint>" with no source, "pf-<mixed>" otherwise.
// The source must be part of the derived identity — it changes what
// plan requests against the ID compute — or re-uploading one graph
// with a different default source would silently replace the prior
// entry's source while the fingerprint-keyed invalidation sweep (which
// only fires when fp changes) drops nothing. It returns the new entry
// and the entry it replaced (nil for a first upload); a replacement
// continues the platform's version sequence.
func (r *registry) put(id string, g *graph.Graph, sourceName string) (*platformEntry, *platformEntry) {
	fp := steady.Fingerprint(g)
	if id == "" {
		id = deriveID(fp, sourceName)
	}
	e := &platformEntry{
		id:         id,
		g:          g,
		fp:         fp,
		sourceName: sourceName,
		nodes:      g.NumActive(),
		edges:      len(g.ActiveEdges()),
		gen:        1,
		version:    1,
		superseded: make(chan struct{}),
	}
	r.mu.Lock()
	p := r.m[id]
	if p == nil {
		p = &platform{}
		r.m[id] = p
	}
	r.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.cur.Load()
	if old != nil {
		e.gen = old.gen + 1
		e.version = old.version + 1
	}
	r.record(p, e, "upload", nil)
	return e, old
}

// patch mutates a platform copy-on-write: resolve is handed a private
// clone of the current snapshot's graph and must apply the requested
// delta to it (returning the resolved ops for the log). On success the
// clone is published as the next version. The platform's mutation lock
// is held across resolve, so concurrent PATCHes serialise and each
// sees its predecessor's effects. It also returns the holder, whose
// stream count the PATCH response reports.
func (r *registry) patch(id string, resolve func(g *graph.Graph) ([]PatchOp, error)) (p *platform, old, cur *platformEntry, err error) {
	p = r.holder(id)
	if p == nil {
		return nil, nil, nil, notFound("unknown platform id %q", id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old = p.cur.Load()
	clone := old.g.Clone()
	ops, err := resolve(clone)
	if err != nil {
		return nil, nil, nil, err
	}
	cur = &platformEntry{
		id:         old.id,
		g:          clone,
		fp:         steady.Fingerprint(clone),
		sourceName: old.sourceName,
		nodes:      clone.NumActive(),
		edges:      len(clone.ActiveEdges()),
		gen:        old.gen,
		version:    old.version + 1,
		superseded: make(chan struct{}),
	}
	r.record(p, cur, "patch", ops)
	return p, old, cur, nil
}

// deriveID builds the content-addressed platform ID. A declared
// default source is folded into the hex digits by FNV-mixing its name
// into the fingerprint, so the bare-graph ID keeps its historical
// pf-<fingerprint> form.
func deriveID(fp uint64, sourceName string) string {
	if sourceName != "" {
		h := fnv.New64a()
		h.Write([]byte(sourceName))
		fp = exp.Mix64(fp ^ h.Sum64())
	}
	return fmt.Sprintf("pf-%016x", fp)
}

// holder returns the platform behind id, or nil when id is unknown.
// A holder that put has inserted but not yet published its first
// snapshot counts as unknown, so every caller may load cur without a
// nil check.
func (r *registry) holder(id string) *platform {
	r.mu.RLock()
	p := r.m[id]
	r.mu.RUnlock()
	if p == nil || p.cur.Load() == nil {
		return nil
	}
	return p
}

func (r *registry) get(id string) (*platformEntry, bool) {
	p := r.holder(id)
	if p == nil {
		return nil, false
	}
	return p.cur.Load(), true
}

// changes returns a copy of one platform's mutation log, oldest first.
func (r *registry) changes(id string) ([]ChangeRecord, bool) {
	p := r.holder(id)
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ChangeRecord(nil), p.log...), true
}

// list returns the current snapshots sorted by ID.
func (r *registry) list() []*platformEntry {
	r.mu.RLock()
	out := make([]*platformEntry, 0, len(r.m))
	for _, p := range r.m {
		if e := p.cur.Load(); e != nil {
			out = append(out, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// validateID keeps platform IDs URL-path-safe.
func validateID(id string) error {
	if len(id) > 128 {
		return fmt.Errorf("platform id longer than 128 bytes")
	}
	if strings.ContainsAny(id, "/?#%\x00 \t\n") {
		return fmt.Errorf("platform id %q contains reserved characters", id)
	}
	return nil
}
