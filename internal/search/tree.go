package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Tree is a resumable single-source Dijkstra spanning tree: the settled part
// of the tree the SSMD search of Section III-B grows. Unlike the one-shot
// SSMD function, a Tree keeps its distance labels, parent pointers and
// priority queue between calls, so a later query from the same source only
// pays for the frontier expansion beyond what earlier queries already
// settled. This is what makes the SSMD tree cache effective: obfuscated
// queries that share a source (common in shared mode, where the obfuscator
// deliberately reuses endpoints across users) reuse the settled prefix
// instead of re-running Dijkstra from scratch.
//
// The tree's state lives in an epoch-stamped Workspace checked out of a
// WorkspacePool for the tree's whole lifetime: creating a tree is O(1) — an
// epoch bump on recycled arrays — instead of allocating and Inf-filling two
// O(n) label arrays, and releasing the tree hands the arrays to the next
// tree instead of the garbage collector. Release is refcounted so a cache
// can drop its entry while a concurrent query is still reading the tree; the
// workspace returns to the pool only when the last holder lets go.
//
// Growing the tree replays exactly the relaxation sequence an uninterrupted
// search would perform: Paths stops, like cold SSMD, right after settling the
// last requested destination (before expanding its arcs), records that node
// as the pending expansion, and the next growth step starts by expanding it.
// Distances and parent pointers therefore evolve identically to a single
// long-running search, and paths extracted from a resumed tree match cold
// SSMD results.
//
// A reverse tree (direction Reverse) is the mirror image: rooted at a
// destination and grown over a storage.ReverseGraph, it settles every node
// at its distance to the root and answers the paths from each requested
// source to the root.
//
// A Tree serialises its own growth with an internal mutex; concurrent Paths
// calls are safe and each observes a tree at least as grown as it needs.
type Tree struct {
	mu   sync.Mutex
	acc  storage.Accessor
	root roadnet.NodeID
	dir  Direction
	ws   *Workspace
	// refs counts live holders of the tree: its creator (or the cache that
	// adopted it) plus every in-flight Paths caller pinned via retain. The
	// workspace is recycled when the count reaches zero.
	refs atomic.Int32
	// unexpanded is the most recently settled node whose arcs have not been
	// relaxed yet (cold SSMD stops before expanding the last destination);
	// InvalidNode when none is outstanding.
	unexpanded roadnet.NodeID
	// grown accumulates the total work spent growing this tree across all
	// calls; Paths reports only the incremental work of each call.
	grown Stats
}

// NewTree initialises an empty spanning tree rooted at source, drawing its
// workspace from the package's shared pool. It performs no search work; the
// first Paths call grows the tree. Callers that are done with the tree may
// call Release to recycle its workspace (the garbage collector reclaims
// unreleased trees eventually, just without reuse).
func NewTree(acc storage.Accessor, source roadnet.NodeID) (*Tree, error) {
	return newTreeFromPool(sharedWorkspaces, acc, source, Forward)
}

// newTreeFromPool is NewTree with an explicit workspace pool and direction.
// A Reverse tree must be given a reverse view (storage.Reverse) as acc.
func newTreeFromPool(pool *WorkspacePool, acc storage.Accessor, root roadnet.NodeID, dir Direction) (*Tree, error) {
	if !validNode(acc, root) {
		return nil, errInvalidSource(root)
	}
	w := pool.Get(acc.NumNodes())
	w.acc = acc
	t := &Tree{
		acc:        acc,
		root:       root,
		dir:        dir,
		ws:         w,
		unexpanded: roadnet.InvalidNode,
	}
	t.refs.Store(1)
	w.label(root, 0, roadnet.InvalidNode)
	w.heap.Push(int32(root), 0)
	t.grown.QueueOps++
	return t, nil
}

// Source returns the root of the tree: its source for a forward tree, its
// destination for a reverse one.
func (t *Tree) Source() roadnet.NodeID { return t.root }

// GrownStats returns the cumulative work spent growing the tree so far.
func (t *Tree) GrownStats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.grown
}

// retain pins the tree for a caller about to use it; pair with Release.
func (t *Tree) retain() { t.refs.Add(1) }

// Release drops one holder's reference. When the last reference is dropped
// the tree's workspace is returned to its pool and the tree becomes
// unusable; further Paths calls return an error.
func (t *Tree) Release() {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.mu.Lock()
	w := t.ws
	t.ws = nil
	t.mu.Unlock()
	if w != nil {
		w.Release()
	}
}

// Paths returns the shortest path from the tree's source to every requested
// destination (empty when unreachable), growing the tree just far enough to
// settle them all. The returned Stats count only the incremental work this
// call performed — zero when every destination was already settled, which is
// exactly the saving the tree cache exists to harvest.
func (t *Tree) Paths(dests []roadnet.NodeID) (SSMDResult, error) {
	paths, stats, err := t.paths(dests)
	if err != nil {
		return SSMDResult{}, err
	}
	return SSMDResult{
		Source: t.root,
		Dests:  append([]roadnet.NodeID(nil), dests...),
		Paths:  paths,
		Stats:  stats,
	}, nil
}

// paths is Paths without the result envelope: one path per requested node,
// in the tree's source→destination order — from the root to each node on a
// forward tree, from each node to the root on a reverse one — plus the
// incremental work.
func (t *Tree) paths(nodes []roadnet.NodeID) ([]Path, Stats, error) {
	if len(nodes) == 0 {
		return nil, Stats{}, errNoDestinations()
	}
	for _, v := range nodes {
		if !validNode(t.acc, v) {
			return nil, Stats{}, errInvalidDest(v)
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ws == nil {
		return nil, Stats{}, fmt.Errorf("search: Paths on a released tree (root %d)", t.root)
	}

	stats := t.grow(nodes)

	paths := make([]Path, len(nodes))
	for i, v := range nodes {
		switch {
		case v == t.root:
			paths[i] = Path{Nodes: []roadnet.NodeID{t.root}, Cost: 0}
		case !t.ws.settled(v):
			// frontier exhausted without reaching v: paths[i] stays empty
		case t.dir == Reverse:
			paths[i] = t.ws.reconstructToRoot(v, t.root, t.acc.Graph())
		default:
			paths[i] = t.ws.reconstruct(t.root, v)
		}
	}
	return paths, stats, nil
}

// grow continues the Dijkstra expansion until every destination is settled or
// the frontier is exhausted, returning the incremental work. Caller holds
// t.mu.
func (t *Tree) grow(dests []roadnet.NodeID) Stats {
	w := t.ws
	w.stats = Stats{}
	w.bumpMark()
	pending := 0
	for _, d := range dests {
		if d != t.root && !w.settled(d) && w.mark[d] != w.markEpoch {
			w.mark[d] = w.markEpoch
			pending++
		}
	}
	if pending == 0 {
		return w.stats // fully served from the settled prefix
	}
	if t.unexpanded != roadnet.InvalidNode {
		w.expand(t.unexpanded)
		t.unexpanded = roadnet.InvalidNode
	}
	for pending > 0 && !w.heap.Empty() {
		if w.heap.Len() > w.stats.MaxFrontier {
			w.stats.MaxFrontier = w.heap.Len()
		}
		item := w.heap.Pop()
		u := roadnet.NodeID(item.Value)
		if item.Priority > w.dist[u] {
			continue // stale entry
		}
		w.settle(u)
		w.stats.SettledNodes++
		if w.mark[u] == w.markEpoch {
			w.mark[u] = w.markEpoch - 1
			pending--
			if pending == 0 {
				// Stop exactly where cold SSMD stops: after settling the
				// last destination, before expanding its arcs. The next
				// grow call performs the deferred expansion first.
				t.unexpanded = u
				break
			}
		}
		w.expand(u)
	}
	t.grown = t.grown.Add(w.stats)
	return w.stats
}
