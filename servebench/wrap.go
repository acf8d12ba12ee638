package main

// The benchmark observes the program only through the seams it hands to it:
// the executor passed to obfsvc.New, the handlers passed to protocol.ServeMux
// for the server, router and shards, the connections it dials, and its own
// calls to Router.UpdateWeights. Nothing here edits or reaches into a
// package.

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/obfsvc"
	"opaque/internal/protocol"
)

// layer names one recorded span's boundary.
type layer uint8

const (
	layerClient layer = iota // client request, generator → obfuscator → generator
	layerExec                // executor batch, obfuscator → server or router → obfuscator
	layerServer              // server handler (single-server stacks)
	layerRouter              // router handler
	layerShard               // shard server handler
	layerUpdate              // Router.UpdateWeights call
)

var layerNames = [...]string{"client", "exec", "server", "router", "shard", "update"}

func (l layer) String() string { return layerNames[l] }

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the recorder's base. qid is the first QueryID the layer saw; spans of one
// batch resolve it to the executor batch's first QueryID, their trace id.
type span struct {
	layer      layer
	shard      int8
	start, end int64
	qid        uint64
	queries    int32
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// execBatch is what the executor wrapper keeps of one traced batch, so that
// client requests can be linked to the batch that carried them.
type execBatch struct {
	start, end int64
	queries    []protocol.ServerQuery
}

// recorder collects spans and counters from every wrapper of one stack.
type recorder struct {
	base   time.Time
	fs, ft int

	tracing atomic.Bool
	mu      sync.Mutex
	spans   []span
	batches []execBatch

	// Always counted, traced or not.
	privacyViolations atomic.Int64
	pairs             atomic.Int64 // Σ|S|·|T| the executor sent
	minShardPairs     atomic.Int64
	inflightMax       atomic.Int64
	execSeq           atomic.Int64

	// Self-test fault injection: the executor batch with this sequence
	// number gets one query's source set cut below fS (corruptSourcesAt) or
	// every candidate cost of its first reply raised (corruptCostAt). 0 = off.
	corruptSourcesAt int64
	corruptCostAt    int64
}

func newRecorder(fs, ft int) *recorder {
	r := &recorder{base: time.Now(), fs: fs, ft: ft}
	r.minShardPairs.Store(math.MaxInt64)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns and clears everything recorded so far.
func (r *recorder) take() ([]span, []execBatch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, b := r.spans, r.batches
	r.spans, r.batches = nil, nil
	return s, b
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// execWrap is the obfsvc.BatchExecutor the benchmark hands to obfsvc.New: it
// forwards to the real multiplexed executor and times every batch.
type execWrap struct {
	inner *obfsvc.MuxExecutor
	rec   *recorder
}

// Execute implements obfsvc.QueryExecutor.
func (e *execWrap) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	replies, errs := e.ExecuteBatch([]protocol.ServerQuery{q})
	return replies[0], errs[0]
}

// ExecuteBatch implements obfsvc.BatchExecutor.
func (e *execWrap) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	var pairs int64
	for _, q := range qs {
		pairs += int64(len(q.Sources) * len(q.Dests))
	}
	e.rec.pairs.Add(pairs)
	seq := e.rec.execSeq.Add(1)
	if seq == e.rec.corruptSourcesAt && len(qs[0].Sources) >= e.rec.fs {
		qs = append([]protocol.ServerQuery(nil), qs...)
		qs[0].Sources = qs[0].Sources[:e.rec.fs-1]
	}
	tracing := e.rec.tracing.Load()
	start := e.rec.now()
	replies, errs := e.inner.ExecuteBatch(qs)
	if tracing {
		end := e.rec.now()
		e.rec.mu.Lock()
		e.rec.spans = append(e.rec.spans, span{layer: layerExec, start: start, end: end, qid: qs[0].QueryID, queries: int32(len(qs))})
		e.rec.batches = append(e.rec.batches, execBatch{start: start, end: end, queries: qs})
		e.rec.mu.Unlock()
	}
	if seq == e.rec.corruptCostAt && errs[0] == nil {
		paths := append([]protocol.CandidatePath(nil), replies[0].Paths...)
		for i := range paths {
			paths[i].Cost++
		}
		replies[0].Paths = paths
	}
	return replies, errs
}

// handlerWrap is the protocol.MuxHandler (and MuxBatchStreamer) the
// benchmark passes to protocol.ServeMux for a server, the router or a shard.
// At the stack's entry layer it enforces the privacy floor: every
// obfuscated query must carry |S| ≥ fS and |T| ≥ fT.
type handlerWrap struct {
	inner    protocol.MuxHandler
	rec      *recorder
	layer    layer
	shard    int8
	entry    bool
	inflight atomic.Int64
}

// queriesOf returns the obfuscated queries a message carries, nil for
// anything else (weight updates pass through untimed).
func queriesOf(msg any) []protocol.ServerQuery {
	switch m := msg.(type) {
	case protocol.ServerQuery:
		return []protocol.ServerQuery{m}
	case protocol.BatchQuery:
		return m.Queries
	}
	return nil
}

// HandleMux implements protocol.MuxHandler.
func (h *handlerWrap) HandleMux(msg any, info protocol.ReqInfo) (any, error) {
	qs := queriesOf(msg)
	if len(qs) == 0 {
		return h.inner.HandleMux(msg, info)
	}
	done := h.enter(qs)
	defer done()
	return h.inner.HandleMux(msg, info)
}

// HandleMuxBatch implements protocol.MuxBatchStreamer; the servers and the
// router all stream batches, so the wrapper forwards to the inner streamer.
func (h *handlerWrap) HandleMuxBatch(b protocol.BatchQuery, info protocol.ReqInfo, emit func(protocol.BatchItem)) error {
	if len(b.Queries) == 0 {
		return h.inner.(protocol.MuxBatchStreamer).HandleMuxBatch(b, info, emit)
	}
	done := h.enter(b.Queries)
	defer done()
	return h.inner.(protocol.MuxBatchStreamer).HandleMuxBatch(b, info, emit)
}

func (h *handlerWrap) enter(qs []protocol.ServerQuery) func() {
	for _, q := range qs {
		if h.entry && (len(q.Sources) < h.rec.fs || len(q.Dests) < h.rec.ft) {
			h.rec.privacyViolations.Add(1)
		}
		if h.layer == layerShard {
			storeMin(&h.rec.minShardPairs, int64(len(q.Sources)*len(q.Dests)))
		}
	}
	counted := h.layer != layerRouter
	if counted {
		storeMax(&h.rec.inflightMax, h.inflight.Add(1))
	}
	tracing := h.rec.tracing.Load()
	var start int64
	if tracing {
		start = h.rec.now()
	}
	return func() {
		if counted {
			h.inflight.Add(-1)
		}
		if tracing {
			h.rec.add(span{layer: h.layer, shard: h.shard, start: start, end: h.rec.now(), qid: qs[0].QueryID, queries: int32(len(qs))})
		}
	}
}

// byteCounter counts the bytes one role's connections carried.
type byteCounter struct{ read, written atomic.Int64 }

func (c *byteCounter) total() int64 { return c.read.Load() + c.written.Load() }

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.read.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.written.Add(int64(n))
	return n, err
}

// dialMux opens one multiplexed connection; its bytes land in c unless c is
// nil.
func dialMux(addr string, c *byteCounter, hello protocol.Hello) (*protocol.MuxClient, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := raw
	if c != nil {
		conn = countingConn{Conn: raw, c: c}
	}
	mc, err := protocol.NewMuxClient(conn, hello)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return mc, nil
}
