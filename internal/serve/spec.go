package serve

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/steady"
)

// PlanSpec is the shared request core of the v1 planning surface: how
// a request addresses a platform (exactly one of PlatformID or an
// inline Platform), which source and targets it plans for, and which
// subset of bounds and heuristics it wants. PlanRequest, WhatifRequest
// and BatchItem all embed it, so Server.resolve sees one caller-side
// shape whatever the endpoint.
//
// The embedding is wire-compatible with the pre-batch flat layouts:
// encoding/json promotes an embedded struct's fields into the outer
// object, so the JSON bodies clients sent before the batch API keep
// decoding (and marshaling) unchanged. Go code that constructed the
// old flat literals moves to the nested PlanSpec literal; field
// *access* (req.PlatformID and friends) is unchanged via promotion.
type PlanSpec struct {
	// PlatformID references a registered platform; mutually exclusive
	// with Platform.
	PlatformID string `json:"platform_id,omitempty"`
	// Platform is an inline platform description in the graph text
	// format (node/edge/link lines).
	Platform string `json:"platform,omitempty"`
	// Source is the source node name; optional when the registered
	// platform declared a default source.
	Source string `json:"source,omitempty"`
	// Targets are the target node names, in request order (the order is
	// part of the plan identity: LP row order follows it).
	Targets []string `json:"targets"`
	// Bounds selects the bound programs to run ("scatter", "lb",
	// "broadcast"). Omitted or null means all three; an explicit empty
	// list means none. (Deliberately not omitempty: an empty selection
	// must survive client-side marshaling.)
	Bounds []string `json:"bounds"`
	// Heuristics selects the heuristics by registry name ("MCPH",
	// "Augm. MC", "Red. BC", "Multisource MC", case-insensitive).
	// Omitted or null means all; an explicit empty list means none.
	Heuristics []string `json:"heuristics"`
}

// merged returns the effective spec of a batch item: the item's
// fields, falling back to the batch-level shared spec field by field.
// Platform addressing is all-or-nothing — an item that sets either
// PlatformID or Platform replaces the shared addressing entirely, so
// a shared platform_id can never leak under an item's inline platform.
func (shared *PlanSpec) merged(item *PlanSpec) *PlanSpec {
	out := *item
	if out.PlatformID == "" && out.Platform == "" {
		out.PlatformID, out.Platform = shared.PlatformID, shared.Platform
	}
	if out.Source == "" {
		out.Source = shared.Source
	}
	if out.Targets == nil {
		out.Targets = shared.Targets
	}
	if out.Bounds == nil {
		out.Bounds = shared.Bounds
	}
	if out.Heuristics == nil {
		out.Heuristics = shared.Heuristics
	}
	return &out
}

// resolved is a request spec resolved against the registry: the
// platform graph, its fingerprint, the registered ID ("" for inline
// platforms), source/target node IDs, the bound/heuristic masks and
// the validated steady Problem built from them.
type resolved struct {
	g       *graph.Graph
	fp      uint64
	id      string
	version int64 // platform version of the snapshot, 0 for inline platforms
	source  graph.NodeID
	targets []graph.NodeID
	bounds  uint8
	heurs   uint8
	p       steady.Problem
}

// key builds the plan identity this resolution computes under — the
// cache and coalescer key.
func (r *resolved) key() planKey {
	return planKey{
		id:      r.id,
		fp:      r.fp,
		source:  r.source,
		targets: targetsKey(r.targets),
		bounds:  r.bounds,
		heurs:   r.heurs,
	}
}

// resolve turns a wire-level spec into a validated instance. Malformed
// specs fail here with a 4xx apiError, so later execution failures are
// genuine 500s.
func (s *Server) resolve(spec *PlanSpec) (*resolved, error) {
	switch {
	case spec.PlatformID != "" && spec.Platform != "":
		return nil, platformConflict("platform_id and platform are mutually exclusive")
	case spec.PlatformID != "":
		e, ok := s.reg.get(spec.PlatformID)
		if !ok {
			return nil, notFound("unknown platform id %q", spec.PlatformID)
		}
		return resolveAt(spec, e)
	case spec.Platform != "":
		g, err := decodePlatform(spec.Platform, s.cfg.maxPlatformBytes())
		if err != nil {
			return nil, err
		}
		return (&resolved{g: g, fp: steady.Fingerprint(g)}).bind(spec, "")
	}
	return nil, badRequest("one of platform_id or platform is required")
}

// resolveAt resolves spec against one published snapshot of its
// registered platform. Snapshots are immutable once published
// (mutations publish a new entry): the resolution reuses the
// fingerprint hashed at publish time instead of re-walking the graph
// per request, and is pinned to e — a concurrent PATCH cannot change
// what it computes, only what later resolutions see.
func resolveAt(spec *PlanSpec, e *platformEntry) (*resolved, error) {
	r := &resolved{g: e.g, fp: e.fp, id: e.id, version: e.version}
	return r.bind(spec, e.sourceName)
}

// bind resolves spec's source, targets and bound/heuristic selection
// against r's platform graph; src is the platform's default source.
func (r *resolved) bind(spec *PlanSpec, src string) (*resolved, error) {
	if spec.Source != "" {
		src = spec.Source
	}
	if src == "" {
		return nil, badRequest("source is required (the platform declares no default)")
	}
	source, ok := r.g.NodeByName(src)
	if !ok {
		return nil, badRequest("unknown source node %q", src)
	}
	r.source = source
	if len(spec.Targets) == 0 {
		return nil, badRequest("at least one target is required")
	}
	r.targets = make([]graph.NodeID, len(spec.Targets))
	for i, name := range spec.Targets {
		t, ok := r.g.NodeByName(name)
		if !ok {
			return nil, badRequest("unknown target node %q", name)
		}
		r.targets[i] = t
	}
	var err error
	if r.bounds, err = boundsMask(spec.Bounds); err != nil {
		return nil, badRequest("%v", err)
	}
	if r.heurs, err = heurMask(spec.Heuristics); err != nil {
		return nil, badRequest("%v", err)
	}
	// Validate the instance up front (duplicate targets, source in the
	// target set, inactive nodes).
	p, err := steady.NewProblem(r.g, r.source, r.targets)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	r.p = p
	return r, nil
}

// executeResolved runs the canonical plan sequence of a resolved spec
// on one evaluator and stamps the platform ID — the single compute
// body behind the interactive, batch and job paths.
func executeResolved(ev *steady.Evaluator, res *resolved) (*PlanResponse, error) {
	resp, err := executePlan(ev, res.g, res.fp, res.source, res.targets, res.bounds, res.heurs)
	if err != nil {
		return nil, fmt.Errorf("plan execution: %w", err)
	}
	resp.PlatformID = res.id
	return resp, nil
}
