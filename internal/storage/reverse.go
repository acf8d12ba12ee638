package storage

import "opaque/internal/roadnet"

// ReverseGraph is the reverse view of a pinned accessor: Arcs and ForEachArc
// stream a node's in-arcs (roadnet.Graph.ReverseArcs, each Arc's To holding
// the predecessor), so a Dijkstra search grown over it from t settles every
// node v at its distance ‖v, t‖. This is the view the SSMD tree cache grows
// reverse trees on, rooted at a recurring destination.
//
// Everything but the arc direction is the forward view's: node count,
// coordinates, Graph (the forward graph, for validation and arc-cost
// lookups) and data generation. Reading a node's in-arcs is charged exactly
// like reading its out-arcs — one page access on a PagedGraph, nothing in
// memory — so searches run unchanged over either view and either backend.
//
// The reverse CSR itself is built lazily by roadnet.Graph, once per graph:
// a weight update derives a new snapshot graph whose reverse CSR is rebuilt
// on its first reverse traversal.
type ReverseGraph struct {
	fwd Accessor
	g   *roadnet.Graph
	// touch charges a node's adjacency read; nil when access is free.
	touch func(roadnet.NodeID)
}

// Reverse returns the reverse view of acc and true, or false when acc has
// none. Only pinned frozen views qualify: a MemoryGraph, a GraphSnapshot or a
// PagedGraph. A MutableGraph must be pinned first (SnapshotOf), and filtered
// or foreign accessors, whose arc sets this package cannot mirror, are
// forward-only.
func Reverse(acc Accessor) (*ReverseGraph, bool) {
	var touch func(roadnet.NodeID)
	switch a := acc.(type) {
	case *MemoryGraph, *GraphSnapshot:
	case *PagedGraph:
		touch = a.touch
	default:
		return nil, false
	}
	g := acc.Graph()
	if !g.Frozen() {
		return nil, false
	}
	return &ReverseGraph{fwd: acc, g: g, touch: touch}, true
}

// NumNodes implements Accessor.
func (r *ReverseGraph) NumNodes() int { return r.fwd.NumNodes() }

// Arcs implements Accessor: the in-arcs of id, To = predecessor.
func (r *ReverseGraph) Arcs(id roadnet.NodeID) []roadnet.Arc {
	if r.touch != nil {
		r.touch(id)
	}
	return r.g.ReverseArcs(id)
}

// ForEachArc implements Accessor by streaming the in-arcs of id from the
// graph's reverse CSR.
func (r *ReverseGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	if r.touch != nil {
		r.touch(id)
	}
	r.g.ForEachReverseArc(id, yield)
}

// Euclid implements Accessor.
func (r *ReverseGraph) Euclid(a, b roadnet.NodeID) float64 { return r.fwd.Euclid(a, b) }

// Graph implements Accessor: the forward graph the view mirrors.
func (r *ReverseGraph) Graph() *roadnet.Graph { return r.g }

// Generation implements Versioned: the generation of the forward view.
func (r *ReverseGraph) Generation() uint64 { return GenerationOf(r.fwd) }
