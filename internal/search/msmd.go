package search

import (
	"fmt"
	"math"
	"sync"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Strategy selects how the obfuscated path query processor evaluates Q(S, T).
type Strategy string

const (
	// StrategySSMD runs one single-source multi-destination Dijkstra per
	// source, sharing the spanning tree across all destinations — the
	// evaluation the paper designs OPAQUE around (cost
	// O(Σ_s max_t ||s,t||²), Lemma 1).
	StrategySSMD Strategy = "ssmd"
	// StrategyPairwise runs an independent point-to-point Dijkstra for every
	// (s, t) pair in S×T — the naive evaluation an oblivious server would
	// perform; used as the comparison baseline in experiments E3–E5.
	StrategyPairwise Strategy = "pairwise"
	// StrategyPairwiseAStar runs an independent A* search per pair; a
	// stronger pairwise baseline that still pays the |S|·|T| multiplier.
	StrategyPairwiseAStar Strategy = "pairwise-astar"
	// StrategyPairwiseALT runs an independent A* search per pair using the
	// precomputed landmark (ALT) lower bounds; requires WithLandmarks. The
	// strongest per-pair engine, used by the ablation that asks whether a
	// very good point-to-point search can close the gap to SSMD sharing.
	StrategyPairwiseALT Strategy = "pairwise-alt"
	// StrategyPointEngine runs an independent query per (s, t) pair on a
	// pluggable point-to-point engine supplied with WithPointEngine. This is
	// the hook the server uses to install the contraction-hierarchy overlay
	// (internal/ch) without this package depending on it; any preprocessed
	// point-to-point index can be threaded through the same option.
	StrategyPointEngine Strategy = "point-engine"
	// StrategyTableEngine evaluates the whole Q(S, T) table in one shot on a
	// pluggable many-to-many engine supplied with WithTableEngine — no
	// per-source fan-out, the engine owns the entire evaluation. This is how
	// the server installs the CH many-to-many bucket engine (internal/ch's
	// MTM) for wide obfuscated queries.
	StrategyTableEngine Strategy = "table-engine"
)

// PointEngine is a pluggable point-to-point shortest-path engine the
// processor can evaluate Q(S, T) pairwise on (StrategyPointEngine). The
// contraction-hierarchy overlay of internal/ch implements it.
//
// ShortestPath must return results semantically identical to Dijkstra on the
// same accessor: the shortest-path cost and one optimal path (an empty Path
// when dest is unreachable). An engine backed by a preprocessed index must
// verify the accessor presents exactly the data it was built from and return
// an error wrapping ErrStaleEngine otherwise, rather than answer from a
// stale or mismatched index (internal/ch checksum-binds its overlay this
// way); engines additionally implementing Generational get that staleness
// check performed by the processor up front, before any per-pair work.
// Implementations must be safe for concurrent use — the processor calls
// them from its per-source worker fan-out.
type PointEngine interface {
	ShortestPath(acc storage.Accessor, source, dest roadnet.NodeID) (Path, Stats, error)
}

// TableEngine is a pluggable many-to-many engine the processor can hand a
// whole Q(S, T) evaluation to (StrategyTableEngine). The contraction-
// hierarchy bucket engine (internal/ch's MTM) implements it.
//
// EvaluateTable must return an MSMDResult whose Paths and Dists agree with
// per-pair Dijkstra on the same accessor; EvaluateDistances is the
// distance-only fast path — Dists filled, Paths nil — for callers that
// never read routes. Like PointEngine, an implementation backed by a
// preprocessed index must verify the accessor presents exactly the data it
// was built from (erroring with ErrStaleEngine when it does not; engines
// implementing Generational get the generation half of that check performed
// by the processor up front), must reject empty source or destination sets
// with ErrEmptyQuery, and must be safe for concurrent use.
type TableEngine interface {
	EvaluateTable(acc storage.Accessor, sources, dests []roadnet.NodeID) (MSMDResult, error)
	EvaluateDistances(acc storage.Accessor, sources, dests []roadnet.NodeID) (MSMDResult, error)
}

// MSMDResult is the result of evaluating one obfuscated path query Q(S, T):
// the |S|·|T| candidate result paths and distances, addressable by
// (source, dest).
type MSMDResult struct {
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Paths[i][j] is the path from Sources[i] to Dests[j]; empty when
	// unreachable. Nil (no rows at all) on distance-only evaluations
	// (EvaluateDistances), whose callers never pay for path
	// materialisation.
	Paths [][]Path
	// Dists[i][j] is the shortest-path distance from Sources[i] to
	// Dests[j], +Inf when unreachable. Filled by every evaluation, so
	// distance-only consumers (candidate filtering, cost experiments) need
	// not walk Paths.
	Dists [][]float64
	Stats Stats
}

// Path returns the candidate path for the (source, dest) pair and whether the
// pair belongs to the query. The second return is false for distance-only
// results, which carry no paths.
func (r MSMDResult) Path(source, dest roadnet.NodeID) (Path, bool) {
	si, sok := indexOf(r.Sources, source)
	di, dok := indexOf(r.Dests, dest)
	if !sok || !dok || r.Paths == nil {
		return Path{}, false
	}
	return r.Paths[si][di], true
}

// Distance returns the candidate distance for the (source, dest) pair (+Inf
// when unreachable) and whether the pair belongs to the query.
func (r MSMDResult) Distance(source, dest roadnet.NodeID) (float64, bool) {
	si, sok := indexOf(r.Sources, source)
	di, dok := indexOf(r.Dests, dest)
	if !sok || !dok || r.Dists == nil {
		return 0, false
	}
	return r.Dists[si][di], true
}

// HasPaths reports whether the result carries materialised candidate paths
// (false for distance-only evaluations).
func (r MSMDResult) HasPaths() bool { return r.Paths != nil }

// NumCandidates returns the number of candidate result paths (|S|·|T|).
func (r MSMDResult) NumCandidates() int { return len(r.Sources) * len(r.Dests) }

// AllPaths returns every candidate path in row-major (source, dest) order.
func (r MSMDResult) AllPaths() []Path {
	out := make([]Path, 0, r.NumCandidates())
	for _, row := range r.Paths {
		out = append(out, row...)
	}
	return out
}

func indexOf(ids []roadnet.NodeID, id roadnet.NodeID) (int, bool) {
	for i, v := range ids {
		if v == id {
			return i, true
		}
	}
	return -1, false
}

// Processor is the obfuscated path query processor installed in the
// directions search server (Figure 5/6 of the paper). It evaluates Q(S, T)
// queries against an Accessor using a configurable strategy, optionally
// fanning the per-source searches out over a bounded number of goroutines.
type Processor struct {
	acc         storage.Accessor
	strategy    Strategy
	workers     int
	landmarks   *Landmarks
	engine      PointEngine
	tableEngine TableEngine
	cache       *TreeCache
	gate        Gate
	// wsPool supplies the epoch-stamped search workspaces the per-source
	// searches run on: each evaluation row checks one workspace out for its
	// whole lifetime (every destination of a pairwise row reuses the same
	// workspace), so the steady-state hot path allocates no label arrays.
	wsPool *WorkspacePool
}

// ProcessorOption customises a Processor.
type ProcessorOption func(*Processor)

// WithStrategy selects the evaluation strategy (default StrategySSMD).
func WithStrategy(s Strategy) ProcessorOption {
	return func(p *Processor) { p.strategy = s }
}

// WithWorkers sets the number of concurrent per-source searches (default 1 =
// sequential). Concurrency changes wall-clock time but not the algorithmic
// work counted in Stats.
func WithWorkers(n int) ProcessorOption {
	return func(p *Processor) {
		if n > 0 {
			p.workers = n
		}
	}
}

// WithLandmarks supplies precomputed ALT landmark tables, required by
// StrategyPairwiseALT.
func WithLandmarks(lm *Landmarks) ProcessorOption {
	return func(p *Processor) { p.landmarks = lm }
}

// WithPointEngine installs a pluggable point-to-point engine, required by
// StrategyPointEngine. The engine answers every (s, t) pair of an obfuscated
// query independently; the processor contributes only the fan-out, the gate
// and the statistics accounting.
func WithPointEngine(pe PointEngine) ProcessorOption {
	return func(p *Processor) { p.engine = pe }
}

// WithTableEngine installs a pluggable many-to-many engine, required by
// StrategyTableEngine. The engine evaluates the whole Q(S, T) table in one
// call; the processor contributes validation, the gate and nothing else.
func WithTableEngine(te TableEngine) ProcessorOption {
	return func(p *Processor) { p.tableEngine = te }
}

// WithTreeCache installs an SSMD tree cache: StrategySSMD evaluations answer
// each evaluation row from cached resumable spanning trees keyed by (root,
// direction, accessor generation) instead of running Dijkstra from scratch,
// rooting the rows at the sources or — when the cache expects them to be
// reused (see TreeCache) — at the destinations. Other strategies ignore the
// cache. Cached evaluation changes the reported Stats (only incremental work
// is counted) but never the resulting path costs, nor the paths wherever
// the shortest path is unique.
func WithTreeCache(c *TreeCache) ProcessorOption {
	return func(p *Processor) { p.cache = c }
}

// WithGate bounds the processor's per-source searches with a shared
// semaphore, composing per-query parallelism under a server-wide concurrency
// cap. A nil gate (the default) imposes no bound.
func WithGate(g Gate) ProcessorOption {
	return func(p *Processor) { p.gate = g }
}

// WithWorkspacePool shares a workspace pool with the processor, letting a
// server reuse one pool across every processor, batch worker and query it
// runs. The default is the package's shared pool.
func WithWorkspacePool(wp *WorkspacePool) ProcessorOption {
	return func(p *Processor) {
		if wp != nil {
			p.wsPool = wp
		}
	}
}

// NewProcessor builds a processor over acc.
func NewProcessor(acc storage.Accessor, opts ...ProcessorOption) *Processor {
	p := &Processor{acc: acc, strategy: StrategySSMD, workers: 1, wsPool: sharedWorkspaces}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Strategy returns the configured evaluation strategy.
func (p *Processor) Strategy() Strategy { return p.strategy }

// Accessor returns the graph accessor the processor evaluates against.
func (p *Processor) Accessor() storage.Accessor { return p.acc }

// pin resolves the accessor one whole evaluation runs against. For mutable
// accessors (storage.Snapshotter) this is an immutable snapshot of the
// current data, so a query admitted while weight updates land concurrently
// still computes an internally consistent table: every cell reflects one
// generation, all-old or all-new, never a mix.
func (p *Processor) pin() storage.Accessor { return storage.SnapshotOf(p.acc) }

// validateQuery rejects empty (ErrEmptyQuery) or out-of-range endpoint sets.
func (p *Processor) validateQuery(acc storage.Accessor, sources, dests []roadnet.NodeID) error {
	if len(sources) == 0 || len(dests) == 0 {
		return fmt.Errorf("search: obfuscated query needs at least one source and one destination (got |S|=%d, |T|=%d): %w",
			len(sources), len(dests), ErrEmptyQuery)
	}
	for _, s := range sources {
		if !validNode(acc, s) {
			return fmt.Errorf("search: invalid source node %d", s)
		}
	}
	for _, t := range dests {
		if !validNode(acc, t) {
			return fmt.Errorf("search: invalid destination node %d", t)
		}
	}
	return nil
}

// evaluateOnTableEngine hands the whole query to the installed TableEngine
// under one gate slot, distance-only or with paths.
func (p *Processor) evaluateOnTableEngine(acc storage.Accessor, sources, dests []roadnet.NodeID, distancesOnly bool) (MSMDResult, error) {
	if p.tableEngine == nil {
		return MSMDResult{}, fmt.Errorf("search: strategy %q requires WithTableEngine", StrategyTableEngine)
	}
	if !engineCurrent(p.tableEngine, acc) {
		return MSMDResult{}, fmt.Errorf("search: table engine generation trails the accessor: %w", ErrStaleEngine)
	}
	p.gate.Acquire()
	defer p.gate.Release()
	if distancesOnly {
		return p.tableEngine.EvaluateDistances(acc, sources, dests)
	}
	return p.tableEngine.EvaluateTable(acc, sources, dests)
}

// fillDists derives the distance matrix from materialised paths: the path
// cost, or +Inf for an empty path of a non-degenerate pair.
func fillDists(res *MSMDResult) {
	res.Dists = make([][]float64, len(res.Sources))
	for i := range res.Paths {
		row := make([]float64, len(res.Dests))
		for j, pth := range res.Paths[i] {
			if pth.Empty() && res.Sources[i] != res.Dests[j] {
				row[j] = math.Inf(1)
			} else {
				row[j] = pth.Cost
			}
		}
		res.Dists[i] = row
	}
}

// Evaluate processes the obfuscated path query Q(sources, dests) and returns
// every candidate result path (and the derived distance matrix). The whole
// evaluation runs against one pinned snapshot of the accessor's data (see
// pin), so concurrent weight updates never produce a mixed-generation table.
func (p *Processor) Evaluate(sources, dests []roadnet.NodeID) (MSMDResult, error) {
	acc := p.pin()
	if err := p.validateQuery(acc, sources, dests); err != nil {
		return MSMDResult{}, err
	}
	if p.strategy == StrategyTableEngine {
		return p.evaluateOnTableEngine(acc, sources, dests, false)
	}
	if p.strategy == StrategyPointEngine && p.engine != nil && !engineCurrent(p.engine, acc) {
		return MSMDResult{}, fmt.Errorf("search: point engine generation trails the accessor: %w", ErrStaleEngine)
	}
	res := MSMDResult{
		Sources: append([]roadnet.NodeID(nil), sources...),
		Dests:   append([]roadnet.NodeID(nil), dests...),
	}

	// Rows are rooted at the sources, or — when the tree cache finds the
	// destinations more likely to be reused — at the destinations, on the
	// reverse view of the pinned snapshot; the row table is then transposed
	// at the end. Only cached SSMD ever evaluates in reverse.
	dir, rowAcc := Forward, acc
	roots, others := sources, dests
	cached := p.cache != nil && (p.strategy == StrategySSMD || p.strategy == "")
	if cached {
		dir, rowAcc = p.cache.direction(acc, sources, dests)
		if dir == Reverse {
			roots, others = dests, sources
		}
	}
	res.Paths = make([][]Path, len(roots))

	evalRow := func(i int) rowResult {
		p.gate.Acquire()
		defer p.gate.Release()
		if cached {
			// Cached trees carry their own long-lived workspaces; no
			// per-row checkout is needed.
			paths, stats, err := p.cache.evaluate(rowAcc, roots[i], dir, others)
			return rowResult{idx: i, paths: paths, stats: stats, err: err}
		}
		s := sources[i]
		switch p.strategy {
		case StrategySSMD, "":
			w := p.wsPool.Get(acc.NumNodes())
			r, err := w.SSMD(acc, s, dests)
			w.Release()
			if err != nil {
				return rowResult{idx: i, err: err}
			}
			return rowResult{idx: i, paths: r.Paths, stats: r.Stats}
		case StrategyPairwise:
			w := p.wsPool.Get(acc.NumNodes())
			defer w.Release()
			paths := make([]Path, len(dests))
			var stats Stats
			for j, t := range dests {
				path, st, err := w.Dijkstra(acc, s, t)
				if err != nil {
					return rowResult{idx: i, err: err}
				}
				paths[j] = path
				stats = stats.Add(st)
			}
			return rowResult{idx: i, paths: paths, stats: stats}
		case StrategyPairwiseAStar:
			w := p.wsPool.Get(acc.NumNodes())
			defer w.Release()
			paths := make([]Path, len(dests))
			var stats Stats
			for j, t := range dests {
				path, st, err := w.AStarScaled(acc, s, t, 0.8)
				if err != nil {
					return rowResult{idx: i, err: err}
				}
				paths[j] = path
				stats = stats.Add(st)
			}
			return rowResult{idx: i, paths: paths, stats: stats}
		case StrategyPointEngine:
			if p.engine == nil {
				return rowResult{idx: i, err: fmt.Errorf("search: strategy %q requires WithPointEngine", StrategyPointEngine)}
			}
			paths := make([]Path, len(dests))
			var stats Stats
			for j, t := range dests {
				path, st, err := p.engine.ShortestPath(acc, s, t)
				if err != nil {
					return rowResult{idx: i, err: err}
				}
				paths[j] = path
				stats = stats.Add(st)
			}
			return rowResult{idx: i, paths: paths, stats: stats}
		case StrategyPairwiseALT:
			if p.landmarks == nil {
				return rowResult{idx: i, err: fmt.Errorf("search: strategy %q requires WithLandmarks", StrategyPairwiseALT)}
			}
			w := p.wsPool.Get(acc.NumNodes())
			defer w.Release()
			paths := make([]Path, len(dests))
			var stats Stats
			for j, t := range dests {
				path, st, err := w.AStarALT(acc, p.landmarks, s, t)
				if err != nil {
					return rowResult{idx: i, err: err}
				}
				paths[j] = path
				stats = stats.Add(st)
			}
			return rowResult{idx: i, paths: paths, stats: stats}
		default:
			return rowResult{idx: i, err: fmt.Errorf("search: unknown strategy %q", p.strategy)}
		}
	}

	if p.workers <= 1 || len(roots) == 1 {
		for i := range roots {
			rr := evalRow(i)
			if rr.err != nil {
				return MSMDResult{}, rr.err
			}
			res.Paths[rr.idx] = rr.paths
			res.Stats = res.Stats.Add(rr.stats)
		}
	} else if err := p.fanOut(len(roots), evalRow, &res); err != nil {
		return MSMDResult{}, err
	}
	if dir == Reverse {
		res.Paths = transpose(res.Paths, len(sources), len(dests))
	}
	if cached {
		p.cache.record(sources, dests)
	}
	fillDists(&res)
	return res, nil
}

// fanOut evaluates rows 0..n-1 on at most p.workers goroutines, storing each
// row's paths in res and summing the statistics; it returns the first row
// error.
func (p *Processor) fanOut(n int, evalRow func(int) rowResult, res *MSMDResult) error {
	jobs := make(chan int)
	results := make(chan rowResult, n)
	var wg sync.WaitGroup
	workers := p.workers
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- evalRow(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(results)
	var firstErr error
	for rr := range results {
		if rr.err != nil {
			if firstErr == nil {
				firstErr = rr.err
			}
			continue
		}
		res.Paths[rr.idx] = rr.paths
		res.Stats = res.Stats.Add(rr.stats)
	}
	return firstErr
}

// rowResult is one evaluation row: the paths between one root and every
// node on the other side of the query.
type rowResult struct {
	idx   int
	paths []Path
	stats Stats
	err   error
}

// transpose turns the |T| rows of a reverse evaluation (row j: every
// source's path to dests[j]) into the |S|×|T| table, backed by one array.
func transpose(rows [][]Path, nSources, nDests int) [][]Path {
	cells := make([]Path, nSources*nDests)
	out := make([][]Path, nSources)
	for i := range out {
		out[i] = cells[i*nDests : (i+1)*nDests : (i+1)*nDests]
		for j := range out[i] {
			out[i][j] = rows[j][i]
		}
	}
	return out
}

// EvaluateDistances processes Q(sources, dests) for callers that only need
// the |S|×|T| distance matrix. With a table engine installed
// (StrategyTableEngine) this is a genuine fast path — no route is unpacked
// or materialised anywhere; other strategies fall back to Evaluate, whose
// result already carries Dists alongside the paths.
func (p *Processor) EvaluateDistances(sources, dests []roadnet.NodeID) (MSMDResult, error) {
	if p.strategy == StrategyTableEngine {
		acc := p.pin()
		if err := p.validateQuery(acc, sources, dests); err != nil {
			return MSMDResult{}, err
		}
		return p.evaluateOnTableEngine(acc, sources, dests, true)
	}
	return p.Evaluate(sources, dests)
}
