package ch

import (
	"fmt"
	"math"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// Engine answers point shortest-path queries on an Overlay with a
// bidirectional upward search: the forward search from s relaxes only
// overlay arcs toward higher-ranked nodes, the backward search from t only
// reversed arcs from higher-ranked nodes, and the two meet at the apex of
// the optimal up-down path. On an overlay with an elimination tree the two
// searches are walks up the ancestor chains of s and t on pooled label
// arrays (treeQuery); on any other overlay each direction is a Dijkstra on
// an epoch-stamped search.Workspace checked out of the engine's pool.
// Either way a distance query performs zero heap allocations in steady
// state; path queries additionally unpack the shortcut chain into the
// original-arc route.
//
// Engine implements search.PointEngine and is safe for concurrent use: the
// overlay is read-only and all per-query state lives in pooled scratch.
type Engine struct {
	o    *Overlay
	pool *search.WorkspacePool
	// verified memoises the last accessor graph proven (by checksum) to be
	// the one the overlay was built from, so the O(arcs) Matches check runs
	// once per graph instead of once per query.
	verified atomic.Pointer[roadnet.Graph]
	// gen is the accessor data generation the overlay's weights are valid
	// for (search.Generational): the installer binds it with BindGeneration
	// so the processor refuses the engine once the accessor's generation
	// moves past it, without waiting for the checksum check to fail.
	gen atomic.Uint64
}

// NewEngine returns a query engine over o drawing workspaces from wp. A nil
// wp gets a private pool; servers pass their own so CH queries, SSMD
// searches and cached trees all recycle the same workspaces.
func NewEngine(o *Overlay, wp *search.WorkspacePool) *Engine {
	if wp == nil {
		wp = search.NewWorkspacePool()
	}
	return &Engine{o: o, pool: wp}
}

// Overlay returns the overlay the engine queries.
func (e *Engine) Overlay() *Overlay { return e.o }

// BindGeneration records the accessor data generation the overlay's weights
// were customized for. Servers call it when installing or swapping the
// engine; see search.Generational.
func (e *Engine) BindGeneration(gen uint64) { e.gen.Store(gen) }

// Generation implements search.Generational.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// ShortestPath implements search.PointEngine: the full shortest path from
// source to dest with shortcuts unpacked, or an empty path when dest is
// unreachable. CH reads the preprocessed index, not the graph — which is the
// whole point — so the accessor must present exactly the arcs the overlay
// was contracted over: its underlying graph is checksum-verified against the
// overlay (once per graph, memoised), and arc-filtering accessors
// (storage.FilteredGraph), whose effective arc set differs from the graph
// they report, are rejected outright. acc may be nil for direct callers that
// take responsibility for the binding themselves.
func (e *Engine) ShortestPath(acc storage.Accessor, source, dest roadnet.NodeID) (search.Path, search.Stats, error) {
	if acc != nil {
		if _, filtered := acc.(*storage.FilteredGraph); filtered {
			return search.Path{}, search.Stats{}, fmt.Errorf("ch: overlay cannot serve a filtered accessor — the hierarchy was contracted over the unfiltered arcs; query the filtered graph with the flat searches instead")
		}
		g := acc.Graph()
		if e.verified.Load() != g {
			if err := e.o.Matches(g); err != nil {
				return search.Path{}, search.Stats{}, fmt.Errorf("ch: accessor does not present the overlay's graph (%v): %w", err, search.ErrStaleEngine)
			}
			e.verified.Store(g)
		}
	}
	return e.Path(source, dest)
}

// Path returns the shortest path from source to dest with shortcuts
// unpacked, or an empty path when dest is unreachable.
func (e *Engine) Path(source, dest roadnet.NodeID) (search.Path, search.Stats, error) {
	path, _, stats, err := e.query(source, dest, true)
	return path, stats, err
}

// Distance returns only the shortest-path distance from source to dest
// (+Inf when unreachable). It skips meeting-node bookkeeping for the path
// and performs no heap allocation in steady state.
func (e *Engine) Distance(source, dest roadnet.NodeID) (float64, search.Stats, error) {
	_, d, stats, err := e.query(source, dest, false)
	return d, stats, err
}

// query is the bidirectional upward search shared by Path and Distance.
func (e *Engine) query(source, dest roadnet.NodeID, needPath bool) (search.Path, float64, search.Stats, error) {
	o := e.o
	var stats search.Stats
	if !validNode(o, source) {
		return search.Path{}, 0, stats, fmt.Errorf("ch: invalid source node %d", source)
	}
	if !validNode(o, dest) {
		return search.Path{}, 0, stats, fmt.Errorf("ch: invalid destination node %d", dest)
	}
	if source == dest {
		if !needPath {
			return search.Path{}, 0, stats, nil
		}
		return search.Path{Nodes: []roadnet.NodeID{source}, Cost: 0}, 0, stats, nil
	}
	if o.etree != nil {
		return o.treeQuery(source, dest, needPath)
	}

	fw := e.pool.Get(o.n)
	defer fw.Release()
	bw := e.pool.Get(o.n)
	defer bw.Release()

	fw.Label(source, 0, roadnet.InvalidNode)
	fw.Heap().Push(int32(source), 0)
	bw.Label(dest, 0, roadnet.InvalidNode)
	bw.Heap().Push(int32(dest), 0)
	stats.QueueOps += 2

	best := math.Inf(1)
	meet := roadnet.InvalidNode
	fDone, bDone := false, false
	for !fDone || !bDone {
		if f := fw.Heap().Len() + bw.Heap().Len(); f > stats.MaxFrontier {
			stats.MaxFrontier = f
		}
		if !fDone {
			fDone = !o.step(fw, bw, o.fwdOff, o.fwdTo, o.fwdCost, &best, &meet, &stats)
		}
		if !bDone {
			bDone = !o.step(bw, fw, o.bwdOff, o.bwdTo, o.bwdCost, &best, &meet, &stats)
		}
	}

	if meet == roadnet.InvalidNode {
		return search.Path{}, math.Inf(1), stats, nil
	}
	if !needPath {
		return search.Path{}, best, stats, nil
	}
	nodes, err := o.unpackRoute(fw, bw, source, dest, meet)
	if err != nil {
		return search.Path{}, 0, stats, err
	}
	return search.Path{Nodes: nodes, Cost: best}, best, stats, nil
}

// treeQuery is query on an overlay with an elimination tree. It walks the
// ancestor chains of source (forward labels) and dest (backward labels)
// together in increasing rank. Below their lowest common ancestor a node
// lies on one chain and is relaxed in that direction only; from there up
// the chains coincide, every node is a meeting candidate whose labels in
// both directions are final, and a direction skips relaxing a node whose
// label is already at or above the best candidate — the walk's form of the
// heap query's stopping rule. No priority queue runs (QueueOps stays 0),
// and distance queries allocate nothing.
func (o *Overlay) treeQuery(source, dest roadnet.NodeID, needPath bool) (search.Path, float64, search.Stats, error) {
	var stats search.Stats
	fw := acquireTreeLabels(o.n)
	bw := acquireTreeLabels(o.n)
	fw.start(source)
	bw.start(dest)
	best := math.Inf(1)
	meet := int32(-1)
	for u, v := int32(source), int32(dest); u >= 0 || v >= 0; {
		switch {
		case u >= 0 && (v < 0 || o.rank[u] < o.rank[v]):
			if fw.relax(u, best, o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc, &stats.RelaxedArcs) {
				stats.SettledNodes++
			}
			u = o.etree[u]
		case v >= 0 && (u < 0 || o.rank[v] < o.rank[u]):
			if bw.relax(v, best, o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc, &stats.RelaxedArcs) {
				stats.SettledNodes++
			}
			v = o.etree[v]
		default: // u == v: the chains have merged
			if d := fw.dist[u] + bw.dist[u]; d < best {
				best, meet = d, u
			}
			if fw.relax(u, best, o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc, &stats.RelaxedArcs) {
				stats.SettledNodes++
			}
			if bw.relax(u, best, o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc, &stats.RelaxedArcs) {
				stats.SettledNodes++
			}
			u = o.etree[u]
			v = u
		}
	}

	path, d := search.Path{}, best
	if meet < 0 {
		d = math.Inf(1)
	} else if needPath {
		nodes, err := o.unpackTreeRoute(fw, bw, source, dest, roadnet.NodeID(meet))
		if err != nil {
			return search.Path{}, 0, stats, err // the labels stay dirty: leave them to the collector
		}
		path = search.Path{Nodes: nodes, Cost: best}
	}
	fw.clear(o.etree, source)
	bw.clear(o.etree, dest)
	fw.release()
	bw.release()
	return path, d, stats, nil
}

// unpackTreeRoute rebuilds the full original-arc path source→…→meet→…→dest
// from the labels of a tree query: the forward half from the arcs recorded
// on fw, the backward half by following the arcs recorded on bw from meet
// down to dest (each backward label's arc x→u leads on to u).
func (o *Overlay) unpackTreeRoute(fw, bw *treeLabels, source, dest, meet roadnet.NodeID) ([]roadnet.NodeID, error) {
	up, err := appendTreeChain(o, fw, source, meet, nil)
	if err != nil {
		return nil, err
	}
	nodes := []roadnet.NodeID{source}
	emit := func(v roadnet.NodeID) { nodes = append(nodes, v) }
	for _, a := range up {
		o.unpackArc(a, emit)
	}
	for at := meet; at != dest; {
		a := bw.arc[at]
		if a < 0 || math.IsInf(bw.dist[at], 1) {
			return nil, fmt.Errorf("ch: internal error: backward tree walk from %d left no arc into %d", dest, at)
		}
		o.unpackArc(a, emit)
		at = roadnet.NodeID(o.arcs[a].to)
	}
	return nodes, nil
}

// step advances one direction of the heap-driven bidirectional search (the
// query of overlays without an elimination tree) by one settled node: pop
// the frontier minimum of this, relax its upward arcs (the CSR triple passed
// in selects the direction), and tighten best/meet against other's label on
// the settled node. It returns false once this direction is exhausted —
// queue empty or frontier minimum at least best, the standard CH stopping
// rule.
func (o *Overlay) step(this, other *search.Workspace,
	off []int32, heads []roadnet.NodeID, costs []float64,
	best *float64, meet *roadnet.NodeID, stats *search.Stats) bool {
	h := this.Heap()
	if h.Empty() || h.Peek().Priority >= *best {
		return false
	}
	item := h.Pop()
	u := roadnet.NodeID(item.Value)
	if item.Priority > this.DistOf(u) {
		return true // stale entry; the direction is still live
	}
	stats.SettledNodes++
	// An up-down path through u costs df(u)+db(u); other's label may still
	// be tentative, but a tentative label is realised by some up-path, so
	// the candidate is always valid — and the optimum is guaranteed to be
	// seen because both directions run until their frontier passes best.
	if d := other.DistOf(u); item.Priority+d < *best {
		*best = item.Priority + d
		*meet = u
	}
	for i := off[u]; i < off[u+1]; i++ {
		stats.RelaxedArcs++
		head := heads[i]
		nd := item.Priority + costs[i]
		if nd < this.DistOf(head) {
			this.Label(head, nd, u)
			h.Push(int32(head), nd)
			stats.QueueOps++
		}
	}
	return true
}

// unpackRoute rebuilds the full original-arc path source→…→meet→…→dest from
// the two search trees, expanding every shortcut through the arena.
func (o *Overlay) unpackRoute(fw, bw *search.Workspace, source, dest, meet roadnet.NodeID) ([]roadnet.NodeID, error) {
	nodes := []roadnet.NodeID{source}
	emit := func(v roadnet.NodeID) { nodes = append(nodes, v) }

	// Forward half: walk meet→source through fw's parents, then unpack each
	// up-arc in source→meet order.
	var chain []roadnet.NodeID
	for at := meet; at != roadnet.InvalidNode; at = fw.ParentOf(at) {
		chain = append(chain, at)
	}
	if chain[len(chain)-1] != source {
		return nil, fmt.Errorf("ch: internal error: forward search tree does not reach source %d", source)
	}
	for i := len(chain) - 1; i > 0; i-- {
		from, to := chain[i], chain[i-1]
		idx := o.findArc(o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc, from, to, fw.DistOf(from), fw.DistOf(to))
		if idx < 0 {
			return nil, fmt.Errorf("ch: internal error: no upward arc %d→%d on forward path", from, to)
		}
		o.unpackArc(idx, emit)
	}

	// Backward half: bw's parent chain already runs meet→dest in original
	// travel direction; each step (u, parent) is the original arc u→parent,
	// stored in parent's upward in-arcs keyed by head u.
	for at := meet; at != dest; {
		next := bw.ParentOf(at)
		if next == roadnet.InvalidNode {
			return nil, fmt.Errorf("ch: internal error: backward search tree does not reach destination %d", dest)
		}
		idx := o.findArc(o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc, next, at, bw.DistOf(next), bw.DistOf(at))
		if idx < 0 {
			return nil, fmt.Errorf("ch: internal error: no upward arc %d→%d on backward path", at, next)
		}
		o.unpackArc(idx, emit)
		at = next
	}
	return nodes, nil
}

// findArc locates the arena index of the CSR arc at owner whose head is head
// and whose cost closes the labelled distance gap dOwner→dHead exactly — the
// arc the search relaxed when it labelled the child, recovered without
// storing per-node arc provenance. owner is the CSR node the arc is stored
// under (the tail in the forward view, the original head in the backward
// view).
func (o *Overlay) findArc(off []int32, heads []roadnet.NodeID, costs []float64, arcIDs []int32,
	owner, head roadnet.NodeID, dOwner, dHead float64) int32 {
	for i := off[owner]; i < off[owner+1]; i++ {
		if heads[i] == head && dOwner+costs[i] == dHead {
			return arcIDs[i]
		}
	}
	return -1
}

// unpackArc emits the node sequence of arena arc idx excluding its tail:
// original arcs emit their head, shortcuts recurse into their two halves in
// travel order.
func (o *Overlay) unpackArc(idx int32, emit func(roadnet.NodeID)) {
	a := &o.arcs[idx]
	if a.childA < 0 {
		emit(roadnet.NodeID(a.to))
		return
	}
	o.unpackArc(a.childA, emit)
	o.unpackArc(a.childB, emit)
}

func validNode(o *Overlay, v roadnet.NodeID) bool {
	return v >= 0 && int(v) < o.n
}
