package ch

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"opaque/internal/roadnet"
)

// This file holds the elimination tree of the overlay and the label scratch
// the tree walks run on (Dibbelt, Strasser, Wagner, "Customizable
// Contraction Hierarchies", JEA 2016; Buchhold, Sanders, Wagner, JEA 2019).
//
// When the upward structure is symmetric (a node's forward and backward
// segments name the same heads) and chordal (a node's upward neighbours,
// its parent aside, are all upward neighbours of its parent), every node u
// reachable from v over upward arcs is an ancestor of v in the tree whose
// parent links are "lowest-ranked upward neighbour": by induction up the
// chain, up(a) ⊆ {parent(a)} ∪ up(parent(a)). The search space of an upward
// sweep from v is therefore v's ancestor chain, and the ancestors come in
// increasing rank — a topological order of the upward DAG. Relaxing each
// ancestor's upward arcs in chain order leaves every ancestor with its exact
// upward distance, the same labels a Dijkstra sweep settles, with no
// priority queue: the walk visits the same nodes, relaxes the same arcs and
// only the per-node heap and stamp overhead is gone.
//
// Customizable overlays of graphs whose arcs all come in both directions
// pass the check by construction (contraction joins every pair of a
// contracted node's uncontracted neighbours). Witness-pruned overlays, and
// customizable overlays of graphs with one-way arcs, generally fail it and
// keep the heap sweeps.

// eliminationTree returns each node's elimination-tree parent — its
// lowest-ranked upward neighbour, -1 at a root — when the upward structure is
// symmetric and chordal, and nil otherwise. Both checks are linear merges
// over the head-sorted CSR segments, so the cost is O(n + arcs).
func (o *Overlay) eliminationTree() []int32 {
	parent := make([]int32, o.n)
	for v := 0; v < o.n; v++ {
		up := o.fwdTo[o.fwdOff[v]:o.fwdOff[v+1]]
		if !sameHeads(up, o.bwdTo[o.bwdOff[v]:o.bwdOff[v+1]]) {
			return nil
		}
		p := int32(-1)
		for _, w := range up {
			if p < 0 || o.rank[w] < o.rank[p] {
				p = int32(w)
			}
		}
		parent[v] = p
	}
	for v, p := range parent {
		if p >= 0 && !headsWithin(o.fwdTo[o.fwdOff[v]:o.fwdOff[v+1]], roadnet.NodeID(p), o.fwdTo[o.fwdOff[p]:o.fwdOff[p+1]]) {
			return nil
		}
	}
	return parent
}

// sameHeads reports whether two sorted head lists name the same set of
// nodes; parallel arcs repeat a head, so runs are compared, not entries.
func sameHeads(a, b []roadnet.NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] != b[j] {
			return false
		}
		h := a[i]
		for i < len(a) && a[i] == h {
			i++
		}
		for j < len(b) && b[j] == h {
			j++
		}
	}
	return i == len(a) && j == len(b)
}

// headsWithin reports whether every head of the sorted list a other than
// skip also appears in the sorted list b.
func headsWithin(a []roadnet.NodeID, skip roadnet.NodeID, b []roadnet.NodeID) bool {
	j := 0
	for _, h := range a {
		if h == skip {
			continue
		}
		for j < len(b) && b[j] < h {
			j++
		}
		if j == len(b) || b[j] != h {
			return false
		}
	}
	return true
}

// treeLabels is the scratch of one elimination-tree walk: a tentative upward
// distance per node (+Inf when unlabelled) and the arena arc whose
// relaxation set it (-1 at the walk's start node). A walk only ever labels
// ancestors of its start node, so resetting the chain afterwards (clear)
// restores the all-+Inf state in O(chain), not O(n). The labels of a walk
// that panicked are never returned to the pool.
type treeLabels struct {
	dist []float64
	arc  []int32
}

var treeLabelPool = sync.Pool{New: func() any { return &treeLabels{} }}

// acquireTreeLabels checks a clean label scratch covering n nodes out of the
// package pool. Overlays of any size share the pool: entries beyond a
// smaller overlay's n simply stay +Inf.
func acquireTreeLabels(n int) *treeLabels {
	l := treeLabelPool.Get().(*treeLabels)
	if old := len(l.dist); old < n {
		l.dist = append(l.dist, make([]float64, n-old)...)
		l.arc = append(l.arc, make([]int32, n-old)...)
		for i := old; i < n; i++ {
			l.dist[i] = math.Inf(1)
		}
	}
	return l
}

// release returns a cleared scratch to the pool.
func (l *treeLabels) release() { treeLabelPool.Put(l) }

// start labels the walk's start node v at distance 0.
func (l *treeLabels) start(v roadnet.NodeID) {
	l.dist[v] = 0
	l.arc[v] = -1
}

// clear resets the labels along v's ancestor chain — every label a walk
// from v can have set.
func (l *treeLabels) clear(parent []int32, v roadnet.NodeID) {
	for u := int32(v); u >= 0; u = parent[u] {
		l.dist[u] = math.Inf(1)
	}
}

// relax settles u in a tree walk: when u is labelled below bound, it relaxes
// u's upward arcs given by the CSR segment [off[u], off[u+1]) into the
// labels and reports true; otherwise u is skipped. A sweep passes +Inf as
// bound; the point query passes its best tentative distance, since an
// up-path through a label at or above it cannot improve the answer.
//
//opaque:noalloc
func (l *treeLabels) relax(u int32, bound float64, off []int32, heads []roadnet.NodeID, costs []float64, arcIDs []int32, relaxed *int) bool {
	du := l.dist[u]
	if du >= bound { // also skips unlabelled nodes: +Inf is never below bound
		return false
	}
	lo, hi := off[u], off[u+1]
	*relaxed += int(hi - lo)
	for i := lo; i < hi; i++ {
		h := heads[i]
		if nd := du + costs[i]; nd < l.dist[h] {
			l.dist[h] = nd
			l.arc[h] = arcIDs[i]
		}
	}
	return true
}

// appendTreeChain appends to arcs the upward arcs along which the forward
// walk from s labelled meet, in travel order s→meet. Every label records
// the arc that set it, so the chain is read off the labels, with no arc
// lookups; ranks fall strictly along it, so the walk ends.
func appendTreeChain(o *Overlay, l *treeLabels, s, meet roadnet.NodeID, arcs []int32) ([]int32, error) {
	start := len(arcs)
	for at := meet; at != s; {
		a := l.arc[at]
		if a < 0 || math.IsInf(l.dist[at], 1) {
			return nil, fmt.Errorf("ch: internal error: forward tree walk from %d left no arc into %d", s, at)
		}
		arcs = append(arcs, a)
		at = roadnet.NodeID(o.arcs[a].from)
	}
	slices.Reverse(arcs[start:])
	return arcs, nil
}
