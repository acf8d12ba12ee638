package ch

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"opaque/internal/roadnet"
)

// This file is the re-customizable weight layer of the overlay — the half a
// live weight update refreshes. The frozen half (contraction order, shortcut
// structure, the two upward CSR views) never changes after Build; what a
// weight update invalidates is every arc cost and every shortcut's unpack
// provenance, and both are recomputed here with the bottom-up triangle pass
// of customizable contraction hierarchies:
//
//	for each node v in increasing contraction rank:
//	    for each arena arc u→v with rank(u) > rank(v)   (v's upward in-arcs)
//	    for each arena arc v→w with rank(w) > rank(v)   (v's upward out-arcs)
//	        relax every arena arc u→w with cost(u→v) + cost(v→w)
//
// Processing nodes bottom-up makes every arc final before it is used as a
// triangle leg: the legs u→v and v→w have lower endpoint v, and all
// triangles that could still improve them route through nodes ranked below
// v, which were already processed. Customizable contraction guarantees the
// structure is closed under these triangles (contracting v inserted an arc
// x→w for every in/out pair), which is exactly the property that makes the
// relaxation sufficient for any weight assignment: after the pass, every
// shortest path of the current graph is realised by an up-down path over
// the overlay, so the bidirectional query and the many-to-many sweeps
// return current-graph distances.
//
// When a relaxation improves an arc it also rewrites the arc's unpack
// children to the two triangle legs, so path unpacking follows the metric:
// a "direct" road segment undercut by a detour through a lower-ranked node
// unpacks into that detour. Recursion terminates because a child's via node
// is always ranked below both of its endpoints.
//
// The pass is linear in the number of triangles of the structure — on
// road-shaped graphs a few multiples of the arena size — and runs orders of
// magnitude faster than a re-contraction (experiment E16 measures the
// ratio), which is the whole point: weight updates cost milliseconds, not a
// rebuild.

// Recustomize derives a fresh overlay whose weight layer matches g's current
// arc costs, sharing the frozen topology (ranks, levels, CSR structure) with
// the receiver. The receiver is not modified and keeps serving its own
// metric; callers swap the returned overlay in atomically.
//
// g must be weight-update-compatible with the overlay's source graph: same
// node count, same arc structure (topology checksum), only costs may differ.
// The overlay must have been built customizable (BuildCustomizable); a
// witness-pruned overlay's shortcut set is bound to the metric it was
// contracted under and cannot be refreshed without a full Build.
//
// Recustomize always re-runs every cell of a partitioned overlay; when only
// a few arcs changed, RecustomizeIncremental re-customizes just the touched
// cells.
func (o *Overlay) Recustomize(g *roadnet.Graph) (*Overlay, error) {
	out, err := o.recustomizeClone(g)
	if err != nil {
		return nil, err
	}
	if err := out.customizeAll(g, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// RecustomizeStats reports what a partition-aware re-customization did.
type RecustomizeStats struct {
	// Cells is the number of partition cells (0 for unpartitioned overlays).
	Cells int
	// Recustomized lists the cells whose weight layer was re-derived, and
	// CellDuration the wall time of each cell's pass, index-aligned.
	Recustomized []int
	CellDuration []time.Duration
	// TopRefreshed reports whether any of the boundary top layer was
	// re-derived. An incremental pass leaves it false when the update changed
	// no top arc — no boundary–boundary original and no cell export moved.
	TopRefreshed bool
	// Full reports a fall-back to full re-customization: the overlay is
	// unpartitioned, or it was loaded from disk and its incremental state
	// (per-arc base costs, per-cell exports) is not primed yet.
	Full bool
}

// RecustomizeIncremental is the cell-local variant of Recustomize: it diffs
// g's arc costs against the base costs the overlay was last customized for,
// maps every changed arc to the partition cell owning it, re-customizes only
// the touched cells (in parallel, one goroutine per cell) and then refreshes
// the boundary top layer from the per-cell exports. Changes confined to
// boundary–boundary arcs skip the cell passes entirely and refresh only the
// top layer. The result is identical to a full Recustomize against the same
// graph; only the work differs.
//
// Unpartitioned overlays, and partitioned overlays freshly loaded from disk
// (whose incremental state is not primed), fall back to a full
// re-customization — reported in the returned stats — after which the
// returned overlay supports cell-local updates.
func (o *Overlay) RecustomizeIncremental(g *roadnet.Graph) (*Overlay, RecustomizeStats, error) {
	stats := RecustomizeStats{Cells: o.PartitionCells()}
	if o.part == nil || !o.incReady {
		out, err := o.Recustomize(g)
		stats.Full = true
		if err == nil && out.part != nil {
			stats.TopRefreshed = true
			for c := 0; c < out.part.cells; c++ {
				stats.Recustomized = append(stats.Recustomized, c)
			}
		}
		return out, stats, err
	}
	out, err := o.recustomizeClone(g)
	if err != nil {
		return nil, stats, err
	}
	// Diff against the receiver's base costs: every changed original arc
	// marks the layer that owns it, and the clone's base-cost record is
	// updated in the same walk — it is what the next diff runs against. The
	// walk is O(arcs) — trivial next to even one cell's triangle pass.
	touched := make([]bool, o.part.cells)
	var seeds []topSeed
	top := o.part.topLayer()
	err = o.forEachOriginalArc(g, func(idx int, cost float64) {
		if cost == o.baseCost[idx] {
			return
		}
		out.baseCost[idx] = cost
		if layer := o.part.arcLayer[idx]; layer != top {
			touched[layer] = true
		} else {
			kind := dirtyInc
			if cost < o.baseCost[idx] {
				kind = dirtyDec
			}
			seeds = append(seeds, topSeed{arc: int32(idx), kind: kind})
		}
	})
	if err != nil {
		return nil, stats, err
	}
	if err := out.customizeCellsIncremental(touched, seeds, &stats); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// recustomizeClone validates g against the overlay's frozen half and returns
// a new overlay sharing that frozen half, with private copies of the weight
// state (arena costs, base costs, export lists) ready for (re)customization.
func (o *Overlay) recustomizeClone(g *roadnet.Graph) (*Overlay, error) {
	if !o.customizable {
		return nil, fmt.Errorf("ch: overlay was built witness-pruned and cannot be re-customized; rebuild with BuildCustomizable to absorb weight updates")
	}
	if g == nil {
		return nil, fmt.Errorf("ch: recustomize against nil graph")
	}
	if g.NumNodes() != o.n || g.NumArcs() != o.graphArcs {
		return nil, fmt.Errorf("ch: overlay topology is %d nodes/%d arcs, graph has %d/%d",
			o.n, o.graphArcs, g.NumNodes(), g.NumArcs())
	}
	if ts := g.TopologyChecksum(); ts != o.topoSum {
		return nil, fmt.Errorf("ch: graph topology checksum %016x does not match overlay topology %016x (arc structure changed; weight updates may only change costs)", ts, o.topoSum)
	}
	out := &Overlay{
		n:         o.n,
		nOriginal: o.nOriginal,
		rank:      o.rank,
		level:     o.level,
		arcs:      append([]arc(nil), o.arcs...),
		fwdOff:    o.fwdOff,
		bwdOff:    o.bwdOff,
		fwdTo:     o.fwdTo,
		bwdTo:     o.bwdTo,
		fwdArc:    o.fwdArc,
		bwdArc:    o.bwdArc,
		etree:     o.etree,
		// The CSR cost copies start as copies, not zeroed arrays: the full
		// passes overwrite every entry anyway, and the incremental pass
		// patches only the entries of re-derived arcs.
		fwdCost:      append([]float64(nil), o.fwdCost...),
		bwdCost:      append([]float64(nil), o.bwdCost...),
		graphArcs:    o.graphArcs,
		checksum:     GraphChecksum(g),
		topoSum:      o.topoSum,
		customizable: true,
		part:         o.part,
	}
	if o.baseCost != nil {
		out.baseCost = append([]float64(nil), o.baseCost...)
	}
	if o.exports != nil {
		out.exports = append([][]topExport(nil), o.exports...)
	}
	return out, nil
}

// customizeAll re-derives the full weight layer: the single global pass for
// unpartitioned overlays, every cell pass plus the top refresh for
// partitioned ones. Afterwards a partitioned overlay's incremental state is
// primed.
func (o *Overlay) customizeAll(g *roadnet.Graph, stats *RecustomizeStats) error {
	if o.part == nil {
		return o.customize(g)
	}
	touched := make([]bool, o.part.cells)
	for c := range touched {
		touched[c] = true
	}
	return o.customizeCells(g, touched, true, stats)
}

// customizeInPlace is the build-time variant: the overlay is still private
// to the builder, so the pass runs directly on its arrays. It panics on the
// structural errors customize reports, which for a freshly contracted arena
// are internal invariant violations.
func (o *Overlay) customizeInPlace(g *roadnet.Graph) {
	if err := o.customizeAll(g, nil); err != nil {
		panic(err)
	}
}

// forEachOriginalArc re-walks the graph's non-loop arcs in the order the
// arena seeded its originals, verifying the alignment arc by arc — a
// mismatched graph fails loudly instead of producing a silently wrong
// metric — and calls fn with each original's arena index and current graph
// cost.
func (o *Overlay) forEachOriginalArc(g *roadnet.Graph, fn func(idx int, cost float64)) error {
	idx := 0
	for v := 0; v < o.n; v++ {
		for _, ga := range g.Arcs(roadnet.NodeID(v)) {
			if ga.To == roadnet.NodeID(v) {
				continue // self-loops never enter the arena
			}
			if idx >= o.nOriginal {
				return fmt.Errorf("ch: customize: graph has more non-loop arcs than the overlay's %d originals", o.nOriginal)
			}
			a := &o.arcs[idx]
			if a.from != int32(v) || a.to != int32(ga.To) {
				return fmt.Errorf("ch: customize: arena arc %d is %d→%d but graph walk expects %d→%d", idx, a.from, a.to, v, ga.To)
			}
			fn(idx, ga.Cost)
			idx++
		}
	}
	if idx != o.nOriginal {
		return fmt.Errorf("ch: customize: graph has %d non-loop arcs, overlay has %d originals", idx, o.nOriginal)
	}
	return nil
}

// customize recomputes o.arcs costs and children for g's weights and
// refreshes the CSR cost copies. The caller owns o.arcs, o.fwdCost and
// o.bwdCost exclusively; all other arrays are only read.
func (o *Overlay) customize(g *roadnet.Graph) error {
	// Base weights: original arena arcs take their road segment's current
	// cost, shortcuts start unreachable.
	err := o.forEachOriginalArc(g, func(idx int, cost float64) {
		a := &o.arcs[idx]
		a.cost = cost
		a.childA, a.childB = -1, -1
	})
	if err != nil {
		return err
	}
	for i := o.nOriginal; i < len(o.arcs); i++ {
		o.arcs[i].cost = math.Inf(1)
	}

	// Bottom-up triangle relaxation in contraction order. byRank inverts the
	// rank permutation: byRank[r] is the node contracted r-th.
	byRank := make([]int32, o.n)
	for v, r := range o.rank {
		byRank[r] = int32(v)
	}
	// Each triangle (u→v, v→w) relaxes the arena arc u→w, which is stored
	// under its lower-ranked endpoint: in fwd[u] when rank(w) > rank(u), in
	// bwd[w] otherwise. Both cases are handled as sorted merge-joins against
	// v's own segments (buildCSR keeps every segment head-sorted), so the
	// pass streams contiguous CSR ranges instead of performing a random
	// lookup per triangle — the difference between a memory-latency-bound
	// and a bandwidth-bound customization on tens of millions of triangles.
	for _, v := range byRank {
		bw0, bw1 := o.bwdOff[v], o.bwdOff[v+1]
		fw0, fw1 := o.fwdOff[v], o.fwdOff[v+1]
		if bw0 == bw1 || fw0 == fw1 {
			continue
		}
		// Arcs u→w with rank(u) < rank(w): merge fwd[u] with fwd[v];
		// childA is the in-leg u→v, childB the matched out-leg v→w.
		for j := bw0; j < bw1; j++ {
			u := o.bwdTo[j]
			aUV := o.bwdArc[j]
			cUV := o.arcs[aUV].cost
			if math.IsInf(cUV, 1) {
				continue
			}
			o.mergeRelax(
				o.fwdTo[o.fwdOff[u]:o.fwdOff[u+1]], o.fwdArc[o.fwdOff[u]:o.fwdOff[u+1]],
				o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1],
				cUV, aUV, true)
		}
		// Arcs u→w with rank(u) > rank(w): merge bwd[w] with bwd[v];
		// childA is the matched in-leg u→v, childB the out-leg v→w.
		for k := fw0; k < fw1; k++ {
			w := o.fwdTo[k]
			aVW := o.fwdArc[k]
			cVW := o.arcs[aVW].cost
			if math.IsInf(cVW, 1) {
				continue
			}
			o.mergeRelax(
				o.bwdTo[o.bwdOff[w]:o.bwdOff[w+1]], o.bwdArc[o.bwdOff[w]:o.bwdOff[w+1]],
				o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1],
				cVW, aVW, false)
		}
	}

	// A customizable arena cannot hold an unreachable shortcut: the shortcut
	// x→w inserted when contracting v coexists with arena arcs x→v and v→w,
	// so its own triangle always relaxes it to a finite cost.
	for i := o.nOriginal; i < len(o.arcs); i++ {
		if math.IsInf(o.arcs[i].cost, 1) {
			return fmt.Errorf("ch: customize: shortcut %d (%d→%d) has no supporting triangle", i, o.arcs[i].from, o.arcs[i].to)
		}
	}

	// Refresh the flat CSR cost copies the query inner loops read.
	for i, ai := range o.fwdArc {
		o.fwdCost[i] = o.arcs[ai].cost
	}
	for i, ai := range o.bwdArc {
		o.bwdCost[i] = o.arcs[ai].cost
	}
	return nil
}

// topExport is one relaxation of a boundary–boundary (top layer) arc
// discovered inside a cell pass: the cell's best triangle through its own
// interiors for that arc. Exports are folded into the top layer before the
// boundary-node pass runs; keeping them per cell is what lets an untouched
// cell's contribution survive a cell-local re-customization without
// re-running the cell.
type topExport struct {
	arc            int32 // arena index of the top arc
	childA, childB int32
	cost           float64
}

// exportAcc accumulates a cell pass's top-arc relaxations, keyed by the
// partition's dense top-arc numbering. Entries start at +Inf; touched tracks
// which ones improved so the emitted export list stays proportional to the
// cell's actual boundary coupling.
type exportAcc struct {
	cost           []float64
	childA, childB []int32
	touched        []int32
}

// customizeCells is the partitioned customization pass: it re-derives the
// weight layers of the touched cells (in parallel, one goroutine per cell)
// and, when refreshTop is set, re-folds every cell's exports into the top
// layer and re-runs the boundary-node triangle pass. Untouched cells keep
// the costs, children and exports carried over by recustomizeClone, which is
// sound because no triangle leg or target ever crosses from one cell's
// interior into another's (see partition.go). The caller guarantees the
// touched set covers every arc whose graph cost differs from the carried
// base costs, and that refreshTop is set whenever any cell is touched.
func (o *Overlay) customizeCells(g *roadnet.Graph, touched []bool, refreshTop bool, stats *RecustomizeStats) error {
	p := o.part
	top := p.topLayer()
	if o.baseCost == nil {
		o.baseCost = make([]float64, o.nOriginal)
	}
	if o.exports == nil {
		o.exports = make([][]topExport, p.cells)
	}
	// Base weights, restricted to the layers being re-derived: originals of
	// a touched layer take their road segment's current cost, shortcuts
	// start unreachable. The base-cost record is refreshed for every
	// original — it is what the next incremental diff runs against.
	err := o.forEachOriginalArc(g, func(idx int, cost float64) {
		o.baseCost[idx] = cost
		layer := p.arcLayer[idx]
		if (layer == top && refreshTop) || (layer != top && touched[layer]) {
			a := &o.arcs[idx]
			a.cost = cost
			a.childA, a.childB = -1, -1
		}
	})
	if err != nil {
		return err
	}
	for c, t := range touched {
		if t {
			p.layerShortcuts(o.nOriginal, int32(c), func(ai int32) { o.arcs[ai].cost = math.Inf(1) })
		}
	}
	if refreshTop {
		p.layerShortcuts(o.nOriginal, top, func(ai int32) { o.arcs[ai].cost = math.Inf(1) })
	}

	// Cell passes write disjoint arc sets (their own layer) and read only
	// their own layer plus the private export accumulator, so they run
	// concurrently without synchronisation beyond the join.
	var wg sync.WaitGroup
	durations := make([]time.Duration, p.cells)
	for c, t := range touched {
		if !t {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			o.exports[c] = o.cellPass(c)
			durations[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	if stats != nil {
		stats.Cells = p.cells
		stats.TopRefreshed = refreshTop
		for c, t := range touched {
			if t {
				stats.Recustomized = append(stats.Recustomized, c)
				stats.CellDuration = append(stats.CellDuration, durations[c])
			}
		}
	}

	if refreshTop {
		// Fold every cell's exports into the (reset) top layer, then run the
		// boundary-node triangle pass. Folding before the pass reproduces the
		// global bottom-up order: every interior node ranks below every
		// boundary node, so all interior relaxations of top arcs precede all
		// boundary-node triangles.
		for _, exp := range o.exports {
			for i := range exp {
				e := &exp[i]
				if a := &o.arcs[e.arc]; e.cost < a.cost {
					a.cost = e.cost
					a.childA, a.childB = e.childA, e.childB
				}
			}
		}
		o.topPass()
	}

	// Every shortcut of a re-derived layer must have been relaxed to a
	// finite cost (see customize's closing invariant); untouched layers kept
	// their previous finite costs.
	var infErr error
	checkLayer := func(layer int32) {
		p.layerShortcuts(o.nOriginal, layer, func(ai int32) {
			if infErr == nil && math.IsInf(o.arcs[ai].cost, 1) {
				infErr = fmt.Errorf("ch: customize: shortcut %d (%d→%d) has no supporting triangle", ai, o.arcs[ai].from, o.arcs[ai].to)
			}
		})
	}
	for c, t := range touched {
		if t {
			checkLayer(int32(c))
		}
	}
	if refreshTop {
		checkLayer(top)
	}
	if infErr != nil {
		return infErr
	}

	// Refresh the flat CSR cost copies the query inner loops read.
	for i, ai := range o.fwdArc {
		o.fwdCost[i] = o.arcs[ai].cost
	}
	for i, ai := range o.bwdArc {
		o.bwdCost[i] = o.arcs[ai].cost
	}
	o.incReady = true
	return nil
}

// Dirty kinds of the incremental top refresh. A dirty arc is re-derived from
// scratch either way; the kind bits bound how its *cost* can move, which is
// what decides whether its triangles can move their targets:
//
//   - dirtyDec: the arc's cost may decrease — every triangle through it may
//     improve its target, so the target is dirtied unconditionally;
//   - dirtyInc: the arc's cost may increase — a triangle through it can only
//     move targets it currently supports (old target cost == old leg sum);
//   - neither bit (dirtySet alone) never propagates: the arc's cost is
//     unchanged and only its unpack children need re-deriving.
const (
	dirtyDec = uint8(1)
	dirtyInc = uint8(2)
	dirtySet = uint8(4) // membership bit: the arc is re-derived
)

// topSeed is one boundary–boundary original arc whose base cost changed — a
// seed of the incremental top refresh's dirty set.
type topSeed struct {
	arc  int32
	kind uint8
}

// customizeCellsIncremental is the diff-driven variant of customizeCells,
// called with the touched cells and the changed boundary–boundary originals
// (the clone's base costs already reflect the new graph). It re-runs the
// touched cell passes and then refreshes the top layer *incrementally*:
// instead of resetting and re-relaxing all top arcs, it seeds a dirty set
// from the changed top originals and a merge-diff of each touched cell's old
// vs new export list, closes it under the boundary triangles in rank order
// (value-aware, against the still-intact old arena costs: see topMarkClosure)
// and then resets, re-folds and re-relaxes only the dirty arcs. Clean top
// arcs keep their carried costs and children, which is exact: an arc whose
// fold input is unchanged, whose decrease-capable legs are all clean and
// whose support triangles kept their leg sums relaxes to its previous value,
// by induction in rank order.
func (o *Overlay) customizeCellsIncremental(touched []bool, seeds []topSeed, stats *RecustomizeStats) error {
	p := o.part

	// Reset the touched cell layers: originals take their (already updated)
	// base cost, shortcuts start unreachable. Untouched layers are not walked
	// at all — this is what keeps a small update's cost proportional to the
	// touched cells, not the arena.
	for c, t := range touched {
		if !t {
			continue
		}
		for _, ai := range p.layerArcs[p.layerOff[c]:p.layerOff[c+1]] {
			a := &o.arcs[ai]
			if int(ai) < o.nOriginal {
				a.cost = o.baseCost[ai]
				a.childA, a.childB = -1, -1
			} else {
				a.cost = math.Inf(1)
			}
		}
	}

	// Dirty top arcs, keyed by the partition's dense top numbering.
	// nodeDirty[v] records that v owns a dirty arc — the closure and relax
	// passes use it to skip the (vast) clean majority of segment merges.
	dirty := make([]uint8, p.numTop)
	nodeDirty := make([]bool, o.n)
	anyDirty := false
	markTop := func(ai int32, kind uint8) {
		ti := p.topIndex[ai]
		if dirty[ti] != 0 {
			dirty[ti] |= kind
			return
		}
		dirty[ti] = dirtySet | kind
		anyDirty = true
		a := &o.arcs[ai]
		own := a.from
		if o.rank[a.to] < o.rank[a.from] {
			own = a.to
		}
		nodeDirty[own] = true
	}
	for _, s := range seeds {
		markTop(s.arc, s.kind)
	}

	// Touched cell passes, in parallel (disjoint arc sets, private export
	// accumulators). The old export lists are kept for the diff below.
	var wg sync.WaitGroup
	durations := make([]time.Duration, p.cells)
	oldExports := make([][]topExport, p.cells)
	for c, t := range touched {
		if !t {
			continue
		}
		oldExports[c] = o.exports[c]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			o.exports[c] = o.cellPass(c)
			durations[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	for c, t := range touched {
		if t {
			diffExports(oldExports[c], o.exports[c], markTop)
		}
	}
	if stats != nil {
		stats.Cells = p.cells
		for c, t := range touched {
			if t {
				stats.Recustomized = append(stats.Recustomized, c)
				stats.CellDuration = append(stats.CellDuration, durations[c])
			}
		}
	}

	if anyDirty {
		// Close the dirty set under the boundary triangles (value-aware,
		// against the old costs still in the arena), then rebuild exactly the
		// dirty arcs: reset to base weights, re-fold every cell's export
		// entries that hit a dirty arc, re-run the boundary triangle pass
		// restricted to dirty targets.
		o.topMarkClosure(dirty, nodeDirty)
		for ti, d := range dirty {
			if d == 0 {
				continue
			}
			ai := p.topArcs[ti]
			a := &o.arcs[ai]
			if int(ai) < o.nOriginal {
				a.cost = o.baseCost[ai]
				a.childA, a.childB = -1, -1
			} else {
				a.cost = math.Inf(1)
			}
		}
		for _, exp := range o.exports {
			for i := range exp {
				e := &exp[i]
				if dirty[p.topIndex[e.arc]] == 0 {
					continue
				}
				if a := &o.arcs[e.arc]; e.cost < a.cost {
					a.cost = e.cost
					a.childA, a.childB = e.childA, e.childB
				}
			}
		}
		o.topPassDirty(dirty, nodeDirty)
	}
	if stats != nil {
		stats.TopRefreshed = anyDirty
	}

	// Invariant check (see customize): every re-derived shortcut must have
	// relaxed to a finite cost. Restricted to what this pass re-derived.
	var infErr error
	checkArc := func(ai int32) {
		if infErr == nil && math.IsInf(o.arcs[ai].cost, 1) {
			infErr = fmt.Errorf("ch: customize: shortcut %d (%d→%d) has no supporting triangle", ai, o.arcs[ai].from, o.arcs[ai].to)
		}
	}
	for c, t := range touched {
		if t {
			p.layerShortcuts(o.nOriginal, int32(c), checkArc)
		}
	}
	for ti, d := range dirty {
		if d != 0 && int(p.topArcs[ti]) >= o.nOriginal {
			checkArc(p.topArcs[ti])
		}
	}
	if infErr != nil {
		return infErr
	}

	// Patch the flat CSR cost copies for exactly the re-derived arcs; the
	// rest were carried over by recustomizeClone.
	pos := o.csrPositions()
	patch := func(ai int32) {
		if j := pos[ai]; j >= 0 {
			o.fwdCost[j] = o.arcs[ai].cost
		} else {
			o.bwdCost[^j] = o.arcs[ai].cost
		}
	}
	for c, t := range touched {
		if !t {
			continue
		}
		for _, ai := range p.layerArcs[p.layerOff[c]:p.layerOff[c+1]] {
			patch(ai)
		}
	}
	for ti, d := range dirty {
		if d != 0 {
			patch(p.topArcs[ti])
		}
	}
	o.incReady = true
	return nil
}

// diffExports walks two arena-index-sorted export lists in lockstep and
// calls mark for every arc whose entry appears in only one list or differs
// between the two — the arcs whose fold input the cell's re-customization
// moved — classified by how the fold input moved: a cheaper or added entry
// may lower the arc (dirtyDec), a dearer or removed one may raise it
// (dirtyInc), and an entry that changed only its children re-derives the arc
// without propagating (no kind bits).
func diffExports(old, new []topExport, mark func(int32, uint8)) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i].arc < new[j].arc:
			mark(old[i].arc, dirtyInc)
			i++
		case old[i].arc > new[j].arc:
			mark(new[j].arc, dirtyDec)
			j++
		default:
			switch {
			case new[j].cost < old[i].cost:
				mark(old[i].arc, dirtyDec)
			case new[j].cost > old[i].cost:
				mark(old[i].arc, dirtyInc)
			case old[i].childA != new[j].childA || old[i].childB != new[j].childB:
				mark(old[i].arc, 0)
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		mark(old[i].arc, dirtyInc)
	}
	for ; j < len(new); j++ {
		mark(new[j].arc, dirtyDec)
	}
}

// topMarkClosure closes the dirty top-arc set under the boundary triangles:
// in boundary rank order, every triangle whose legs could move marks its
// target arc dirty (and the target's owner node, which propagates the
// marking when that owner's rank is reached). The marking is value-aware
// against the old costs still sitting in the arena:
//
//   - a decrease-capable leg dirties every target of its triangles — a
//     cheaper leg can improve any of them;
//   - an increase-capable leg dirties only targets its triangle currently
//     supports (old target cost == old leg sum) — a dearer triangle that was
//     already beaten cannot move a target, because increase-capable arcs
//     never end up below their old cost (their fold inputs and legs only
//     rose, by induction in rank order).
//
// The result is a conservative superset of the arcs whose value or children
// can change; the restricted relax pass then recomputes exactly that set.
func (o *Overlay) topMarkClosure(dirty []uint8, nodeDirty []bool) {
	p := o.part
	for _, v := range p.boundaryByRank {
		if !nodeDirty[v] {
			continue
		}
		bw0, bw1 := o.bwdOff[v], o.bwdOff[v+1]
		fw0, fw1 := o.fwdOff[v], o.fwdOff[v+1]
		if bw0 == bw1 || fw0 == fw1 {
			continue
		}
		for j := bw0; j < bw1; j++ {
			u := o.bwdTo[j]
			aUV := o.bwdArc[j]
			o.mergeMark(
				o.fwdTo[o.fwdOff[u]:o.fwdOff[u+1]], o.fwdArc[o.fwdOff[u]:o.fwdOff[u+1]],
				o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1],
				dirty[p.topIndex[aUV]], o.arcs[aUV].cost, dirty, nodeDirty)
		}
		for k := fw0; k < fw1; k++ {
			w := o.fwdTo[k]
			aVW := o.fwdArc[k]
			o.mergeMark(
				o.bwdTo[o.bwdOff[w]:o.bwdOff[w+1]], o.bwdArc[o.bwdOff[w]:o.bwdOff[w+1]],
				o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1],
				dirty[p.topIndex[aVW]], o.arcs[aVW].cost, dirty, nodeDirty)
		}
	}
}

// mergeMark is the marking twin of mergeRelax: for every common head of the
// target and leg segments it combines the fixed leg's and the matched leg's
// dirty kinds and marks the matched target arc when the triangle could move
// it — unconditionally for a possible decrease, only at support equality
// (old target cost == old fixed + old leg cost) for a possible increase.
// Marked targets inherit the triangle's direction bits, so propagation stays
// value-aware across ranks.
func (o *Overlay) mergeMark(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	fixedKind uint8, fixedCost float64, dirty []uint8, nodeDirty []bool) {
	p := o.part
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				k := (fixedKind | dirty[p.topIndex[leg]]) & (dirtyDec | dirtyInc)
				if k == 0 {
					continue
				}
				oldCand := fixedCost + o.arcs[leg].cost
				for ii := i; ii < i2; ii++ {
					ai := tArcs[ii]
					prop := k & dirtyDec
					if k&dirtyInc != 0 && o.arcs[ai].cost == oldCand {
						prop |= dirtyInc
					}
					if prop == 0 {
						continue
					}
					ti := p.topIndex[ai]
					if dirty[ti] != 0 {
						dirty[ti] |= prop
						continue
					}
					dirty[ti] = dirtySet | prop
					a := &o.arcs[ai]
					own := a.from
					if o.rank[a.to] < o.rank[a.from] {
						own = a.to
					}
					nodeDirty[own] = true
				}
			}
			i, j = i2, j2
		}
	}
}

// topPassDirty is topPass restricted to the closed dirty set: it visits
// every boundary node in rank order (a clean pivot can still support a dirty
// target's triangle) but skips segment merges whose target owner holds no
// dirty arc, and writes only dirty targets. Clean arcs keep their carried
// values, which the closure guarantees are final.
func (o *Overlay) topPassDirty(dirty []uint8, nodeDirty []bool) {
	for _, v := range o.part.boundaryByRank {
		bw0, bw1 := o.bwdOff[v], o.bwdOff[v+1]
		fw0, fw1 := o.fwdOff[v], o.fwdOff[v+1]
		if bw0 == bw1 || fw0 == fw1 {
			continue
		}
		for j := bw0; j < bw1; j++ {
			u := o.bwdTo[j]
			if !nodeDirty[u] {
				continue
			}
			aUV := o.bwdArc[j]
			cUV := o.arcs[aUV].cost
			if math.IsInf(cUV, 1) {
				continue
			}
			o.mergeRelaxDirty(
				o.fwdTo[o.fwdOff[u]:o.fwdOff[u+1]], o.fwdArc[o.fwdOff[u]:o.fwdOff[u+1]],
				o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1],
				cUV, aUV, true, dirty)
		}
		for k := fw0; k < fw1; k++ {
			w := o.fwdTo[k]
			if !nodeDirty[w] {
				continue
			}
			aVW := o.fwdArc[k]
			cVW := o.arcs[aVW].cost
			if math.IsInf(cVW, 1) {
				continue
			}
			o.mergeRelaxDirty(
				o.bwdTo[o.bwdOff[w]:o.bwdOff[w+1]], o.bwdArc[o.bwdOff[w]:o.bwdOff[w+1]],
				o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1],
				cVW, aVW, false, dirty)
		}
	}
}

// mergeRelaxDirty is mergeRelax with the write side masked to dirty targets.
func (o *Overlay) mergeRelaxDirty(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	base float64, fixedLeg int32, fixedIsA bool, dirty []uint8) {
	p := o.part
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				cand := base + o.arcs[leg].cost
				if math.IsInf(cand, 1) {
					continue
				}
				for ii := i; ii < i2; ii++ {
					if dirty[p.topIndex[tArcs[ii]]] == 0 {
						continue
					}
					if a := &o.arcs[tArcs[ii]]; cand < a.cost {
						a.cost = cand
						if fixedIsA {
							a.childA, a.childB = fixedLeg, leg
						} else {
							a.childA, a.childB = leg, fixedLeg
						}
					}
				}
			}
			i, j = i2, j2
		}
	}
}

// cellPass runs the bottom-up triangle pass over cell c's interior nodes in
// rank order. Targets owned by the cell are relaxed in place; targets owned
// by the top layer (segments of boundary neighbours) are accumulated into
// the returned export list instead, keyed and sorted by arena index.
func (o *Overlay) cellPass(c int) []topExport {
	p := o.part
	acc := exportAcc{
		cost:   make([]float64, p.numTop),
		childA: make([]int32, p.numTop),
		childB: make([]int32, p.numTop),
	}
	for i := range acc.cost {
		acc.cost[i] = math.Inf(1)
	}
	for _, v := range p.cellRank[c] {
		bw0, bw1 := o.bwdOff[v], o.bwdOff[v+1]
		fw0, fw1 := o.fwdOff[v], o.fwdOff[v+1]
		if bw0 == bw1 || fw0 == fw1 {
			continue
		}
		// See customize for the triangle orientation; the only difference
		// here is the target segment's owner deciding in-place vs export.
		// A neighbour u of interior v is either an interior of the same
		// cell (its segment is cell-c arcs) or a boundary node (its segment
		// is top arcs) — never an interior of another cell.
		for j := bw0; j < bw1; j++ {
			u := o.bwdTo[j]
			aUV := o.bwdArc[j]
			cUV := o.arcs[aUV].cost
			if math.IsInf(cUV, 1) {
				continue
			}
			tHeads := o.fwdTo[o.fwdOff[u]:o.fwdOff[u+1]]
			tArcs := o.fwdArc[o.fwdOff[u]:o.fwdOff[u+1]]
			if p.isBoundary[u] {
				o.mergeRelaxExport(tHeads, tArcs, o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1], cUV, aUV, true, &acc)
			} else {
				o.mergeRelax(tHeads, tArcs, o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1], cUV, aUV, true)
			}
		}
		for k := fw0; k < fw1; k++ {
			w := o.fwdTo[k]
			aVW := o.fwdArc[k]
			cVW := o.arcs[aVW].cost
			if math.IsInf(cVW, 1) {
				continue
			}
			tHeads := o.bwdTo[o.bwdOff[w]:o.bwdOff[w+1]]
			tArcs := o.bwdArc[o.bwdOff[w]:o.bwdOff[w+1]]
			if p.isBoundary[w] {
				o.mergeRelaxExport(tHeads, tArcs, o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1], cVW, aVW, false, &acc)
			} else {
				o.mergeRelax(tHeads, tArcs, o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1], cVW, aVW, false)
			}
		}
	}
	if len(acc.touched) == 0 {
		return nil
	}
	// Dense top indices follow arena order, so sorting them makes the
	// export list — and therefore the fold — deterministic.
	sort.Slice(acc.touched, func(i, j int) bool { return acc.touched[i] < acc.touched[j] })
	out := make([]topExport, len(acc.touched))
	for i, ti := range acc.touched {
		out[i] = topExport{
			arc:    p.topArcs[ti],
			childA: acc.childA[ti],
			childB: acc.childB[ti],
			cost:   acc.cost[ti],
		}
	}
	return out
}

// topPass runs the triangle pass over the boundary nodes in rank order. By
// the rank layering every neighbour of a boundary node with a higher rank is
// itself a boundary node, so every leg and every target is a top arc and the
// relaxations write in place.
func (o *Overlay) topPass() {
	for _, v := range o.part.boundaryByRank {
		bw0, bw1 := o.bwdOff[v], o.bwdOff[v+1]
		fw0, fw1 := o.fwdOff[v], o.fwdOff[v+1]
		if bw0 == bw1 || fw0 == fw1 {
			continue
		}
		for j := bw0; j < bw1; j++ {
			u := o.bwdTo[j]
			aUV := o.bwdArc[j]
			cUV := o.arcs[aUV].cost
			if math.IsInf(cUV, 1) {
				continue
			}
			o.mergeRelax(
				o.fwdTo[o.fwdOff[u]:o.fwdOff[u+1]], o.fwdArc[o.fwdOff[u]:o.fwdOff[u+1]],
				o.fwdTo[fw0:fw1], o.fwdArc[fw0:fw1],
				cUV, aUV, true)
		}
		for k := fw0; k < fw1; k++ {
			w := o.fwdTo[k]
			aVW := o.fwdArc[k]
			cVW := o.arcs[aVW].cost
			if math.IsInf(cVW, 1) {
				continue
			}
			o.mergeRelax(
				o.bwdTo[o.bwdOff[w]:o.bwdOff[w+1]], o.bwdArc[o.bwdOff[w]:o.bwdOff[w+1]],
				o.bwdTo[bw0:bw1], o.bwdArc[bw0:bw1],
				cVW, aVW, false)
		}
	}
}

// mergeRelaxExport is mergeRelax with the write side redirected: the target
// segment is owned by the top layer, so improvements go to the cell's export
// accumulator (compared against the accumulator, not the arena — the arena's
// top costs belong to other cells' metrics until the fold) instead of the
// arena.
func (o *Overlay) mergeRelaxExport(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	base float64, fixedLeg int32, fixedIsA bool, acc *exportAcc) {
	p := o.part
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				cand := base + o.arcs[leg].cost
				if math.IsInf(cand, 1) {
					continue
				}
				for ii := i; ii < i2; ii++ {
					ti := p.topIndex[tArcs[ii]]
					if cand < acc.cost[ti] {
						if math.IsInf(acc.cost[ti], 1) {
							acc.touched = append(acc.touched, ti)
						}
						acc.cost[ti] = cand
						if fixedIsA {
							acc.childA[ti], acc.childB[ti] = fixedLeg, leg
						} else {
							acc.childA[ti], acc.childB[ti] = leg, fixedLeg
						}
					}
				}
			}
			i, j = i2, j2
		}
	}
}

// mergeRelax walks two head-sorted CSR segments in lockstep — the *target*
// segment holding the arcs to relax and the *leg* segment holding v's arcs
// supplying the triangle's second edge — and, for every common head, lowers
// each target arc to base + leg cost. fixedLeg is the triangle edge shared
// by every relaxation of this call (the u→v in-leg when targets are fwd[u],
// the v→w out-leg when targets are bwd[w]); fixedIsA says whether it becomes
// childA (travel-order first half) or childB of an improved arc. Duplicate
// heads on either side (parallel arcs) are cross-relaxed blockwise.
func (o *Overlay) mergeRelax(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	base float64, fixedLeg int32, fixedIsA bool) {
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				cand := base + o.arcs[leg].cost
				if math.IsInf(cand, 1) {
					continue
				}
				for ii := i; ii < i2; ii++ {
					if a := &o.arcs[tArcs[ii]]; cand < a.cost {
						a.cost = cand
						if fixedIsA {
							a.childA, a.childB = fixedLeg, leg
						} else {
							a.childA, a.childB = leg, fixedLeg
						}
					}
				}
			}
			i, j = i2, j2
		}
	}
}
