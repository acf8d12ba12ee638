package roadnet

import (
	"math"
	"sort"
)

// gridIndex is a uniform spatial grid over the graph's bounding box used for
// nearest-node and range queries. It is built once at Freeze time.
type gridIndex struct {
	minX, minY   float64
	cellW, cellH float64
	cols, rows   int
	cells        [][]NodeID
	// colMin/colMax and rowMin/rowMax are the real extents of the nodes in
	// each grid column and row — not the nominal grid lines — so the box
	// [colMin[cx], colMax[cx]] × [rowMin[cy], rowMax[cy]] provably holds
	// every node of cell (cx, cy). Range queries classify whole cells by it.
	colMin, colMax []float64
	rowMin, rowMax []float64
}

// axisSpan returns the squared offsets from v to the nearest and to the
// farthest point of [lo, hi], rounded like the terms of sqDist. Every value
// in [lo, hi] is offset from v by an amount between the two (floating-point
// subtraction is monotone), so for a node inside a box, near ≤ sqDist ≤ far
// holds exactly when near and far sum the box's two axes.
func axisSpan(v, lo, hi float64) (near, far float64) {
	switch {
	case v < lo:
		near, far = lo-v, hi-v
	case v > hi:
		near, far = v-hi, v-lo
	default:
		far = v - lo
		if d := hi - v; d > far {
			far = d
		}
	}
	return float64(near * near), float64(far * far)
}

// sqDist is the squared length of the offset (dx, dy). The conversions
// forbid fusing the multiply-add, so the value is rounded the same way
// wherever it is computed — which axisSpan's bounds rely on.
func sqDist(dx, dy float64) float64 {
	return float64(dx*dx) + float64(dy*dy)
}

// buildGridIndex builds a grid whose cell count is roughly the node count so
// that the expected occupancy per cell is O(1).
func buildGridIndex(g *Graph) *gridIndex {
	n := g.NumNodes()
	if n == 0 {
		return &gridIndex{cols: 1, rows: 1, cellW: 1, cellH: 1, cells: make([][]NodeID, 1)}
	}
	minX, minY, maxX, maxY := g.Bounds()
	w := maxX - minX
	h := maxY - minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	idx := &gridIndex{
		minX:  minX,
		minY:  minY,
		cols:  side,
		rows:  side,
		cellW: w / float64(side),
		cellH: h / float64(side),
	}
	idx.cells = make([][]NodeID, side*side)
	idx.colMin, idx.colMax = filled(side, math.Inf(1)), filled(side, math.Inf(-1))
	idx.rowMin, idx.rowMax = filled(side, math.Inf(1)), filled(side, math.Inf(-1))
	for _, node := range g.Nodes() {
		c := idx.cellOf(node.X, node.Y)
		cx, cy := c%side, c/side
		idx.colMin[cx], idx.colMax[cx] = math.Min(idx.colMin[cx], node.X), math.Max(idx.colMax[cx], node.X)
		idx.rowMin[cy], idx.rowMax[cy] = math.Min(idx.rowMin[cy], node.Y), math.Max(idx.rowMax[cy], node.Y)
		idx.cells[c] = append(idx.cells[c], node.ID)
	}
	return idx
}

// filled returns k copies of v: the extents before any node is seen (a
// row or column that stays empty has no cell to classify).
func filled(k int, v float64) []float64 {
	e := make([]float64, k)
	for i := range e {
		e[i] = v
	}
	return e
}

func (idx *gridIndex) cellOf(x, y float64) int {
	cx := int((x - idx.minX) / idx.cellW)
	cy := int((y - idx.minY) / idx.cellH)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= idx.cols {
		cx = idx.cols - 1
	}
	if cy >= idx.rows {
		cy = idx.rows - 1
	}
	return cy*idx.cols + cx
}

// NearestNode returns the node closest (in Euclidean distance) to (x, y), or
// InvalidNode for an empty graph. The graph must be frozen.
func (g *Graph) NearestNode(x, y float64) NodeID {
	if g.NumNodes() == 0 {
		return InvalidNode
	}
	if !g.frozen {
		// Fallback linear scan on mutable graphs; rare and small.
		return g.linearNearest(x, y)
	}
	idx := g.grid
	cx := int((x - idx.minX) / idx.cellW)
	cy := int((y - idx.minY) / idx.cellH)
	best := InvalidNode
	bestD := math.Inf(1)
	// Expand rings of cells outward until a hit is found and the ring
	// distance exceeds the best distance (standard grid NN search).
	for ring := 0; ring < idx.cols+idx.rows; ring++ {
		hitPossible := false
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if abs(dx) != ring && abs(dy) != ring {
					continue // only the ring boundary
				}
				ccx, ccy := cx+dx, cy+dy
				if ccx < 0 || ccy < 0 || ccx >= idx.cols || ccy >= idx.rows {
					continue
				}
				hitPossible = true
				for _, id := range idx.cells[ccy*idx.cols+ccx] {
					n := g.nodes[id]
					d := (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y)
					if d < bestD {
						bestD = d
						best = id
					}
				}
			}
		}
		if best != InvalidNode {
			// The nearest node in further rings is at least (ring-1) cells
			// away; stop once that lower bound exceeds the best found.
			minCell := math.Min(idx.cellW, idx.cellH)
			lower := float64(ring-1) * minCell
			if lower > 0 && lower*lower > bestD {
				break
			}
		}
		if !hitPossible && best != InvalidNode {
			break
		}
	}
	if best == InvalidNode {
		return g.linearNearest(x, y)
	}
	return best
}

func (g *Graph) linearNearest(x, y float64) NodeID {
	best := InvalidNode
	bestD := math.Inf(1)
	for _, n := range g.nodes {
		d := (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y)
		if d < bestD {
			bestD = d
			best = n.ID
		}
	}
	return best
}

// NodesWithin returns the IDs of all nodes whose Euclidean distance from
// (x, y) is at most radius, sorted by increasing distance (ties by ID). The
// graph must be frozen for efficient lookup; on mutable graphs it scans
// linearly.
func (g *Graph) NodesWithin(x, y, radius float64) []NodeID {
	ids := g.AppendNodesInBand(nil, x, y, 0, radius)
	type cand struct {
		id NodeID
		d  float64
	}
	out := make([]cand, len(ids))
	for i, id := range ids {
		n := g.nodes[id]
		out[i] = cand{id, (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].id < out[j].id
	})
	for i, c := range out {
		ids[i] = c.id
	}
	return ids
}

// AppendNodesInBand appends to dst the IDs of all nodes whose Euclidean
// distance from (x, y) lies in [inner, outer] and returns the extended slice.
// The IDs come in grid-cell order, not sorted by distance: callers that
// sample from the band uniformly need no order, and skipping the sort keeps
// the cost linear in the number of covering cells plus the nodes of the
// cells that straddle a band edge. Each covering cell is classified by a
// box that holds all its nodes (the node extents of its grid column and
// row): a cell wholly beyond outer or wholly inside inner is skipped, a
// cell wholly within the band is appended without testing its nodes, and
// only the rest are tested node by node — the output is exactly what
// testing every node would give. Passing a reused dst[:0] makes a call
// allocation-free once dst has grown to the band's size. It is the
// primitive behind the ring-band fake-endpoint selection strategy. On
// mutable graphs it scans every node.
func (g *Graph) AppendNodesInBand(dst []NodeID, x, y, inner, outer float64) []NodeID {
	if outer < 0 {
		return dst
	}
	in2, out2 := float64(inner*inner), float64(outer*outer)
	if inner <= 0 {
		in2 = 0
	}
	inBand := func(n *Node) bool {
		d2 := sqDist(n.X-x, n.Y-y)
		return d2 <= out2 && d2 >= in2
	}
	if !g.frozen {
		for i := range g.nodes {
			if inBand(&g.nodes[i]) {
				dst = append(dst, g.nodes[i].ID)
			}
		}
		return dst
	}
	idx := g.grid
	x0 := int((x - outer - idx.minX) / idx.cellW)
	x1 := int((x + outer - idx.minX) / idx.cellW)
	y0 := int((y - outer - idx.minY) / idx.cellH)
	y1 := int((y + outer - idx.minY) / idx.cellH)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= idx.cols {
		x1 = idx.cols - 1
	}
	if y1 >= idx.rows {
		y1 = idx.rows - 1
	}
	for cy := y0; cy <= y1; cy++ {
		row := idx.cells[cy*idx.cols:]
		nearY, farY := axisSpan(y, idx.rowMin[cy], idx.rowMax[cy])
		for cx := x0; cx <= x1; cx++ {
			cell := row[cx]
			if len(cell) == 0 {
				continue
			}
			nearX, farX := axisSpan(x, idx.colMin[cx], idx.colMax[cx])
			near, far := nearX+nearY, farX+farY
			switch {
			case near > out2 || far < in2:
				// Wholly beyond the outer circle or inside the inner one.
			case near >= in2 && far <= out2:
				dst = append(dst, cell...)
			default:
				for _, id := range cell {
					if inBand(&g.nodes[id]) {
						dst = append(dst, id)
					}
				}
			}
		}
	}
	return dst
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
