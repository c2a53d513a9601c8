package serve

import (
	"fmt"
	"net/http"

	"repro/internal/graph"
)

// PatchOp is one wire-level mutation of PATCH /v1/platforms/{id} —
// the HTTP spelling of the shared graph-delta vocabulary
// (graph.DeltaOp), addressing nodes by name and edges by ID or by
// endpoint names.
type PatchOp struct {
	// Op is the operation: "drop_node", "restore_node", "add_node",
	// "add_edge", "disable_edge", "enable_edge", "set_edge_cost" or
	// "scale_edge_cost" (the graph.DeltaKind wire spellings).
	Op string `json:"op"`
	// Node names the dropped/restored/added node.
	Node string `json:"node,omitempty"`
	// From and To name an edge's endpoints: required for add_edge, and
	// an alternative to Edge for the other edge ops (resolving to the
	// lowest-ID edge from From to To, enabled or not).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Edge addresses an edge by ID (the IDs reported in plan trees are
	// name pairs, so ID addressing is mostly for clients that uploaded
	// the platform and know its edge order).
	Edge *int `json:"edge,omitempty"`
	// Cost is the absolute cost of add_edge and set_edge_cost.
	Cost float64 `json:"cost,omitempty"`
	// Factor is the multiplier of scale_edge_cost.
	Factor float64 `json:"factor,omitempty"`
}

// PatchRequest is the body of PATCH /v1/platforms/{id}: an ordered
// delta batch, applied atomically — either every op applies and the
// platform version bumps once, or none do.
type PatchRequest struct {
	Ops []PatchOp `json:"ops"`
}

// PatchResponse is the body of a successful PATCH.
type PatchResponse struct {
	ID          string `json:"id"`
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	// Applied counts the delta ops of the batch.
	Applied int `json:"applied"`
	// Invalidated counts the previous version's cached plans dropped by
	// this mutation.
	Invalidated int `json:"invalidated,omitempty"`
	// Repaired counts the subscribe streams following the platform when
	// the new version was published: each one recomputes (and re-caches)
	// its plan against the new version.
	Repaired int `json:"repaired,omitempty"`
}

// resolvePatchOp translates one wire op against the current state of
// the mutating clone — sequential semantics: an op may reference a
// node or edge created by an earlier op of the same batch.
func resolvePatchOp(g *graph.Graph, op PatchOp) (graph.DeltaOp, error) {
	node := func(name string) (graph.NodeID, error) {
		if name == "" {
			return 0, fmt.Errorf("missing node name")
		}
		v, ok := g.NodeByName(name)
		if !ok {
			return 0, fmt.Errorf("unknown node %q", name)
		}
		return v, nil
	}
	edge := func() (int, error) {
		if op.Edge != nil {
			return *op.Edge, nil
		}
		if op.From == "" || op.To == "" {
			return 0, fmt.Errorf("edge ops need either \"edge\" or both \"from\" and \"to\"")
		}
		from, err := node(op.From)
		if err != nil {
			return 0, err
		}
		to, err := node(op.To)
		if err != nil {
			return 0, err
		}
		// Scan the full edge set (not the adjacency lists): a disabled
		// edge is spliced out of adjacency but must stay addressable —
		// enable_edge exists to bring exactly those back. Parallel edges
		// resolve to the lowest ID.
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(id)
			if e.From == from && e.To == to {
				return id, nil
			}
		}
		return 0, fmt.Errorf("no edge %s->%s", op.From, op.To)
	}
	switch op.Op {
	case "drop_node":
		v, err := node(op.Node)
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.DropNodeOp(v), nil
	case "restore_node":
		v, err := node(op.Node)
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.RestoreNodeOp(v), nil
	case "add_node":
		if op.Node == "" {
			return graph.DeltaOp{}, fmt.Errorf("missing node name")
		}
		return graph.AddNodeOp(op.Node), nil
	case "add_edge":
		from, err := node(op.From)
		if err != nil {
			return graph.DeltaOp{}, err
		}
		to, err := node(op.To)
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.AddEdgeOp(from, to, op.Cost), nil
	case "disable_edge":
		id, err := edge()
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.DisableEdgeOp(id), nil
	case "enable_edge":
		id, err := edge()
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.EnableEdgeOp(id), nil
	case "set_edge_cost":
		id, err := edge()
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.SetEdgeCostOp(id, op.Cost), nil
	case "scale_edge_cost":
		id, err := edge()
		if err != nil {
			return graph.DeltaOp{}, err
		}
		return graph.ScaleEdgeCostOp(id, op.Factor), nil
	}
	return graph.DeltaOp{}, fmt.Errorf("unknown op %q", op.Op)
}

func (s *Server) handlePatchPlatform(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req PatchRequest
	if err := decodeBody(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, badRequest("empty delta batch"))
		return
	}
	p, old, cur, err := s.reg.patch(id, func(g *graph.Graph) ([]PatchOp, error) {
		// Resolve and apply op by op: name resolution must see the
		// effects of earlier ops of the batch. The clone is discarded on
		// any error, which is what makes the batch atomic.
		for i, wireOp := range req.Ops {
			op, err := resolvePatchOp(g, wireOp)
			if err != nil {
				return nil, badRequest("op %d (%s): %v", i, wireOp.Op, err)
			}
			if _, err := (graph.Delta{op}).Apply(g); err != nil {
				return nil, badRequest("op %d (%s): %v", i, wireOp.Op, err)
			}
		}
		return req.Ops, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := PatchResponse{
		ID:          cur.id,
		Version:     cur.version,
		Fingerprint: cur.fingerprint(),
		Nodes:       cur.nodes,
		Edges:       cur.edges,
		Applied:     len(req.Ops),
	}
	if old.fp != cur.fp {
		// Invalidate: the old version's cached plans are unreachable now
		// that the ID resolves to a new fingerprint.
		resp.Invalidated = s.cache.dropIf(func(k planKey) bool {
			return k.id == cur.id && k.fp == old.fp
		})
	}
	// Repair: publishing cur woke the platform's subscribe streams, so
	// every subscribed spec recomputes against the new version —
	// re-entering the plan cache instead of leaving the invalidated
	// specs orphaned.
	resp.Repaired = int(p.streams.Load())
	s.bumpLive(func(ls *LiveStats) { ls.Patches++; ls.PatchOps += int64(len(req.Ops)) })
	w.Header().Set(HeaderVersion, fmt.Sprintf("%d", cur.version))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlatformLog(w http.ResponseWriter, r *http.Request) {
	log, ok := s.reg.changes(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("unknown platform id"))
		return
	}
	writeJSON(w, http.StatusOK, log)
}
