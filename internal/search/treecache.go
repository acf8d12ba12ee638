package search

import (
	"container/list"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Direction selects which side of Q(S, T) a cached spanning tree is rooted
// at.
type Direction uint8

const (
	// Forward trees are rooted at a source and grown over out-arcs; the tree
	// at s answers ‖s, t‖ for every destination t it settles. Evaluating
	// Q(S, T) on forward trees costs Σ_{s∈S} max_{t∈T} ‖s,t‖² (Lemma 1).
	Forward Direction = iota
	// Reverse trees are rooted at a destination and grown over in-arcs
	// (storage.ReverseGraph); the tree at t answers ‖s, t‖ for every source
	// s it settles. Evaluating Q(S, T) on reverse trees costs the mirror
	// image, Σ_{t∈T} max_{s∈S} ‖s,t‖².
	Reverse
)

// TreeCacheStats is a snapshot of the cache's effectiveness counters.
type TreeCacheStats struct {
	// Hits counts tree lookups served by an existing tree (possibly after
	// resuming its growth); Misses counts lookups that had to build a tree.
	// Both are totals over the two directions.
	Hits, Misses int64
	// ForwardHits/ForwardMisses and ReverseHits/ReverseMisses split Hits
	// and Misses by the direction of the tree looked up. One lookup serves
	// one evaluation row, so ReverseHits + ReverseMisses is the number of
	// rows evaluated on reverse trees.
	ForwardHits, ForwardMisses int64
	ReverseHits, ReverseMisses int64
	// ReverseQueries counts Processor evaluations that chose the reverse
	// direction (see TreeCache.direction).
	ReverseQueries int64
	// Resumes counts hits that still had to grow the tree further because a
	// requested node was not settled yet (a partial hit).
	Resumes int64
	// Evictions counts trees dropped to respect the capacity bound;
	// Invalidations counts trees dropped because the accessor's data
	// generation moved past them.
	Evictions, Invalidations int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s TreeCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TreeCache is an LRU cache of resumable SSMD spanning trees keyed by
// (root node, direction, accessor data generation). The directions search
// server uses it to share settled shortest-path trees across obfuscated
// queries whose endpoints recur — under shared-mode obfuscation the
// obfuscator deliberately reuses endpoints, so consecutive Q(S, T) batches
// hit the same nodes again and again. A hit turns a full Dijkstra run into
// (at worst) an incremental frontier expansion and (at best) pure path
// reconstruction.
//
// Which side recurs depends on the traffic: many homes asking for a few
// clinics repeat their destinations (and, with a sticky selector, the
// destinations' fakes), a commuter fleet repeats its sources. The cache
// therefore holds forward trees, rooted at a source, and reverse trees,
// rooted at a destination and grown over in-arcs, and the Processor
// evaluates each query from the side the cache is more likely to reuse (see
// direction). A bounded, key-only history of recently requested endpoints
// per side — in the spirit of ARC's ghost lists — tells which side recurs
// before any tree exists for it.
//
// Entries computed under an older accessor generation (see storage.Versioned)
// are dropped the moment the same (root, direction) is requested again, so a
// BumpGeneration on the accessor invalidates the cache without any
// coordination.
//
// TreeCache is safe for concurrent use. The cache lock is held only for
// lookup and direction bookkeeping — building a new tree (an O(1)
// epoch-stamped workspace checkout) happens outside it, and tree growth runs
// under the individual tree's lock — so queries on distinct roots proceed in
// parallel while queries on the same (root, direction) serialise and share
// each other's work.
//
// Cached trees hold their label arrays in pooled search workspaces rather
// than private O(n) slices: the cache retains one reference per entry and
// every lookup pins the tree for the duration of the call, so an eviction
// or invalidation recycles the workspace to the pool as soon as the last
// in-flight query on that tree finishes.
type TreeCache struct {
	capacity int
	// wsPool supplies the workspaces new trees live on; evicted trees
	// recycle theirs back into the same pool.
	wsPool *WorkspacePool

	mu      sync.Mutex
	entries map[treeKey]*list.Element // at most one entry per (root, direction)
	lru     *list.List                // front = most recently used; values are *cacheEntry
	// recent holds, per direction, the endpoints recently requested on that
	// side: sources for Forward, destinations for Reverse.
	recent [2]recentKeys

	hits           [2]atomic.Int64 // by Direction
	misses         [2]atomic.Int64 // by Direction
	reverseQueries atomic.Int64
	resumes        atomic.Int64
	evictions      atomic.Int64
	invalidations  atomic.Int64
}

// treeKey identifies one cached tree.
type treeKey struct {
	root roadnet.NodeID
	dir  Direction
}

type cacheEntry struct {
	key  treeKey
	gen  uint64
	tree *Tree
}

// DefaultTreeCacheSize is the tree capacity used when a caller enables the
// cache without choosing a size. Each tree costs O(n) memory for the distance
// and parent labels of an n-node graph.
const DefaultTreeCacheSize = 256

// NewTreeCache returns a cache holding at most capacity trees (values < 1 use
// DefaultTreeCacheSize), drawing tree workspaces from the package's shared
// pool.
func NewTreeCache(capacity int) *TreeCache {
	return NewTreeCacheWithPool(capacity, sharedWorkspaces)
}

// NewTreeCacheWithPool is NewTreeCache with an explicit workspace pool, so a
// server can keep its cached spanning trees on the same pool its batch
// workers draw per-query workspaces from.
func NewTreeCacheWithPool(capacity int, wp *WorkspacePool) *TreeCache {
	if capacity < 1 {
		capacity = DefaultTreeCacheSize
	}
	if wp == nil {
		wp = sharedWorkspaces
	}
	c := &TreeCache{
		capacity: capacity,
		wsPool:   wp,
		entries:  make(map[treeKey]*list.Element, capacity),
		lru:      list.New(),
	}
	// Each side remembers as many distinct recent endpoints as the cache
	// holds trees: every endpoint whose tree the cache could keep.
	for d := range c.recent {
		c.recent[d] = newRecentKeys(capacity)
	}
	return c
}

// Capacity returns the maximum number of trees the cache retains.
func (c *TreeCache) Capacity() int { return c.capacity }

// Len returns the number of trees currently cached.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *TreeCache) Stats() TreeCacheStats {
	st := TreeCacheStats{
		ForwardHits:    c.hits[Forward].Load(),
		ForwardMisses:  c.misses[Forward].Load(),
		ReverseHits:    c.hits[Reverse].Load(),
		ReverseMisses:  c.misses[Reverse].Load(),
		ReverseQueries: c.reverseQueries.Load(),
		Resumes:        c.resumes.Load(),
		Evictions:      c.evictions.Load(),
		Invalidations:  c.invalidations.Load(),
	}
	st.Hits = st.ForwardHits + st.ReverseHits
	st.Misses = st.ForwardMisses + st.ReverseMisses
	return st
}

// Evaluate answers the single-source multi-destination query (source, dests)
// from the cache, building or resuming the source's forward spanning tree as
// needed. Results are identical to a cold SSMD call; the Stats inside the
// result count only the incremental work performed.
func (c *TreeCache) Evaluate(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID) (SSMDResult, error) {
	paths, stats, err := c.evaluate(acc, source, Forward, dests)
	if err != nil {
		return SSMDResult{}, err
	}
	return SSMDResult{
		Source: source,
		Dests:  append([]roadnet.NodeID(nil), dests...),
		Paths:  paths,
		Stats:  stats,
	}, nil
}

// evaluate answers one evaluation row from the (root, dir) tree: the paths
// between root and every node of others, in source→destination order (see
// Tree.paths). For dir == Reverse, acc must be the reverse view of the
// pinned accessor.
func (c *TreeCache) evaluate(acc storage.Accessor, root roadnet.NodeID, dir Direction, others []roadnet.NodeID) ([]Path, Stats, error) {
	tree, hit, err := c.lookup(acc, treeKey{root: root, dir: dir})
	if err != nil {
		return nil, Stats{}, err
	}
	// lookup pinned the tree for us; let go once the paths are extracted so
	// an eviction that raced this call can recycle the tree's workspace.
	defer tree.Release()
	paths, stats, err := tree.paths(others)
	if err != nil {
		return nil, Stats{}, err
	}
	if hit {
		c.hits[dir].Add(1)
		if stats.SettledNodes > 0 || stats.RelaxedArcs > 0 {
			c.resumes.Add(1) // partial hit: the tree had to grow further
		}
	} else {
		c.misses[dir].Add(1)
	}
	return paths, stats, nil
}

// lookup returns the cached tree for (key, current generation), creating
// it on a miss, and reports whether it was already present. The returned
// tree is pinned (reference held) for the caller, who must Release it.
func (c *TreeCache) lookup(acc storage.Accessor, key treeKey) (*Tree, bool, error) {
	gen := storage.GenerationOf(acc)
	if tree, ok := c.fetch(key, gen); ok {
		return tree, true, nil
	}
	// Build outside the lock: checking the tree's workspace out of the pool
	// (and any array growth it triggers) must not serialise unrelated
	// lookups.
	tree, err := newTreeFromPool(c.wsPool, acc, key.root, key.dir)
	if err != nil {
		return nil, false, err
	}

	// Recheck and insert under ONE lock acquisition: with separate ones,
	// two concurrent misses for the same key could both pass the recheck
	// and both insert, stranding a duplicate LRU element whose eventual
	// eviction would delete the live map entry.
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		entry := el.Value.(*cacheEntry)
		if entry.gen == gen {
			// A concurrent miss for the same key inserted first; share its
			// tree (and whatever growth it has already paid for), and
			// recycle the tree we built for nothing.
			c.lru.MoveToFront(el)
			entry.tree.retain()
			c.mu.Unlock()
			tree.Release()
			return entry.tree, true, nil
		}
		// Stale generation: drop it without recounting the invalidation the
		// first fetch already charged.
		c.removeLocked(el)
	}
	el := c.lru.PushFront(&cacheEntry{key: key, gen: gen, tree: tree})
	c.entries[key] = el
	// The creator reference now belongs to the cache entry; pin once more
	// for the caller.
	tree.retain()
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	return tree, false, nil
}

// fetch returns the cached current-generation tree for key pinned for the
// caller, dropping a stale-generation entry (recorded as an invalidation)
// when it finds one instead.
func (c *TreeCache) fetch(key treeKey, gen uint64) (*Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	entry := el.Value.(*cacheEntry)
	if entry.gen != gen {
		c.removeLocked(el)
		c.invalidations.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	// Pin under the cache lock: the cache's own reference is only ever
	// dropped under the same lock, so the tree is guaranteed live here.
	entry.tree.retain()
	return entry.tree, true
}

// removeLocked removes one LRU element and drops the cache's reference to
// its tree, recycling the tree's workspace once any in-flight queries are
// done with it. Caller holds c.mu.
func (c *TreeCache) removeLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	delete(c.entries, entry.key)
	c.lru.Remove(el)
	entry.tree.Release()
}

// Purge drops every cached tree and forgets the endpoint history (used by
// tests and by servers that swap their accessor wholesale).
func (c *TreeCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		el.Value.(*cacheEntry).tree.Release()
	}
	c.entries = make(map[treeKey]*list.Element, c.capacity)
	c.lru.Init()
	for d := range c.recent {
		c.recent[d] = newRecentKeys(c.capacity)
	}
}

// direction picks the side Q(sources, dests) is evaluated from, and the
// accessor its rows run on: acc itself for Forward, its reverse view for
// Reverse. The rule, in order:
//
//  1. the side whose endpoints have more live current-generation trees;
//  2. the side that recurs, when only one does: a side recurs when every
//     endpoint on it was requested on that side at least twice within the
//     recent history;
//  3. the side with fewer endpoints;
//  4. Forward.
//
// Live trees make the choice sticky: once one side's trees are built, the
// queries that reuse them keep choosing that side, so traffic whose sources
// recur stays forward even when a destination repeats too. The history only
// breaks the tie before either side has trees, and it asks a lot of that
// side: batched queries complete out of order, so a destination can be seen
// twice before the sources it shares a query with; one such repeat must not
// flip source-reuse traffic to reverse trees nobody reuses. An accessor
// without a reverse view (storage.Reverse) is always evaluated forward.
func (c *TreeCache) direction(acc storage.Accessor, sources, dests []roadnet.NodeID) (Direction, storage.Accessor) {
	if c.choose(storage.GenerationOf(acc), sources, dests) != Reverse {
		return Forward, acc
	}
	rev, ok := storage.Reverse(acc)
	if !ok {
		return Forward, acc
	}
	c.reverseQueries.Add(1)
	return Reverse, rev
}

// choose applies direction's rule.
func (c *TreeCache) choose(gen uint64, sources, dests []roadnet.NodeID) Direction {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fwd, rev := c.liveLocked(sources, Forward, gen), c.liveLocked(dests, Reverse, gen); fwd != rev {
		if rev > fwd {
			return Reverse
		}
		return Forward
	}
	if fwd, rev := c.recent[Forward].recurs(sources), c.recent[Reverse].recurs(dests); fwd != rev {
		if rev {
			return Reverse
		}
		return Forward
	}
	if len(dests) < len(sources) {
		return Reverse // fewer endpoints, fewer trees to grow
	}
	return Forward
}

// liveLocked counts the nodes with a live current-generation tree of
// direction dir. Caller holds c.mu.
func (c *TreeCache) liveLocked(nodes []roadnet.NodeID, dir Direction, gen uint64) int {
	n := 0
	for _, v := range nodes {
		if el, ok := c.entries[treeKey{root: v, dir: dir}]; ok && el.Value.(*cacheEntry).gen == gen {
			n++
		}
	}
	return n
}

// record adds one evaluated query's endpoints to the per-side history. The
// processor records after the evaluation, so an endpoint enters the history
// no earlier than its tree (when one was built) enters the cache.
func (c *TreeCache) record(sources, dests []roadnet.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recent[Forward].add(sources)
	c.recent[Reverse].add(dests)
}

// recentKeys is a bounded, key-only history of requested endpoints, in the
// spirit of ARC's ghost lists: an LRU list of distinct node IDs, each with
// the number of requests seen since it last entered the list. It holds no
// trees, so it remembers an endpoint's recurrence before the cache has paid
// for its tree.
type recentKeys struct {
	size  int
	lru   *list.List // front = most recently requested; values are *recentKey
	index map[roadnet.NodeID]*list.Element
}

type recentKey struct {
	node     roadnet.NodeID
	requests int
}

func newRecentKeys(size int) recentKeys {
	return recentKeys{size: size, lru: list.New(), index: make(map[roadnet.NodeID]*list.Element, size)}
}

// add records one request of every node. Once the list is full, a new node
// takes over the least recently requested node's element.
func (h *recentKeys) add(nodes []roadnet.NodeID) {
	for _, v := range nodes {
		if el, ok := h.index[v]; ok {
			el.Value.(*recentKey).requests++
			h.lru.MoveToFront(el)
			continue
		}
		if h.lru.Len() < h.size {
			h.index[v] = h.lru.PushFront(&recentKey{node: v, requests: 1})
			continue
		}
		el := h.lru.Back()
		k := el.Value.(*recentKey)
		delete(h.index, k.node)
		*k = recentKey{node: v, requests: 1}
		h.index[v] = el
		h.lru.MoveToFront(el)
	}
}

// recurs reports whether the history has seen every node requested at
// least twice.
func (h *recentKeys) recurs(nodes []roadnet.NodeID) bool {
	for _, v := range nodes {
		if el, ok := h.index[v]; !ok || el.Value.(*recentKey).requests < 2 {
			return false
		}
	}
	return true
}
