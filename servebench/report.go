package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"opaque/internal/ch"
	"opaque/internal/obfsvc"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// snapshot is the public counters of every layer at one instant; per-layer
// metrics are differences between two snapshots around the traced phase.
type snapshot struct {
	obf      obfsvc.Stats
	counters map[string]int64 // server counters summed over servers, plus router counters
	settled  int64
	queries  int64
	cache    search.TreeCacheStats
	pool     search.WorkspacePoolStats
	mtm      ch.MTMStats
	recustMS float64 // slowest shard's last re-customization
	pairs    int64
	mallocs  uint64
	alloc    uint64
	gcs      uint32
	client   int64 // bytes on the client connection
	replyIn  int64 // bytes the obfuscator read from the server or router
}

var serverCounters = []string{"ch_queries", "mtm_queries", "fallback_queries", "overlay_stale_queries", "recustomize_runs", "cells_recustomized"}
var routerCounters = []string{"fleet_queries", "fleet_subqueries", "fleet_generation_skew", "fleet_shard_retries"}

func takeSnapshot(st *stack) snapshot {
	sn := snapshot{obf: st.svc.Stats(), counters: make(map[string]int64)}
	for _, srv := range st.servers {
		m := srv.Metrics()
		for _, name := range serverCounters {
			sn.counters[name] += m.Counter(name)
		}
		sn.recustMS = math.Max(sn.recustMS, m.Gauge("recustomize_last_ms"))
		stats, n := srv.TotalStats()
		sn.settled += int64(stats.SettledNodes)
		sn.queries += int64(n)
		tc := srv.TreeCacheStats()
		sn.cache.Hits += tc.Hits
		sn.cache.Misses += tc.Misses
		ws := srv.WorkspacePoolStats()
		sn.pool.Gets += ws.Gets
		sn.pool.Fresh += ws.Fresh
		mt := srv.MTMStats()
		sn.mtm.Tables += mt.Tables
		sn.mtm.BucketEntriesScanned += mt.BucketEntriesScanned
		sn.mtm.ArenaHighWater = max(sn.mtm.ArenaHighWater, mt.ArenaHighWater)
	}
	if st.router != nil {
		m := st.router.Metrics()
		for _, name := range routerCounters {
			sn.counters[name] = m.Counter(name)
		}
	}
	sn.pairs = st.rec.pairs.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn.mallocs, sn.alloc, sn.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	sn.client = st.clientBytes.total()
	sn.replyIn = st.execBytes.read.Load()
	return sn
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// trace is the traced phase's spans, grouped and linked.
type trace struct {
	byLayer map[layer][]span
	// traceOf maps every QueryID the executor sent to its batch's first
	// QueryID, the trace id all spans of that batch share.
	traceOf map[uint64]uint64
	// client[i] is the executor batch traced sample i waited on (-1: none
	// found).
	client []int
}

func linkTrace(ph *phases) *trace {
	tr := &trace{byLayer: make(map[layer][]span), traceOf: make(map[uint64]uint64)}
	for _, s := range ph.spans {
		tr.byLayer[s.layer] = append(tr.byLayer[s.layer], s)
	}
	bySource := make(map[roadnet.NodeID][]int)
	for bi, b := range ph.batches {
		id := b.queries[0].QueryID
		for _, q := range b.queries {
			tr.traceOf[q.QueryID] = id
			for _, v := range q.Sources {
				bySource[v] = append(bySource[v], bi)
			}
		}
	}
	// A client request waited on the batch that ran inside its own interval
	// and carried a query holding both its endpoints.
	tr.client = make([]int, len(ph.traced.samples))
	for i := range ph.traced.samples {
		s := &ph.traced.samples[i]
		tr.client[i] = -1
		for _, bi := range bySource[s.trip.Source] {
			b := ph.batches[bi]
			if b.start < s.sent || b.end > s.done || !carries(b, s.trip.Source, s.trip.Dest) {
				continue
			}
			tr.client[i] = bi
			break
		}
	}
	return tr
}

func carries(b execBatch, s, t roadnet.NodeID) bool {
	for _, q := range b.queries {
		if contains(q.Sources, s) && contains(q.Dests, t) {
			return true
		}
	}
	return false
}

func contains(xs []roadnet.NodeID, v roadnet.NodeID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// children returns, for every span of parent, the spans of child that share
// its trace id and lie inside its interval.
func (tr *trace) children(parent, child layer) [][]span {
	byTrace := make(map[uint64][]span)
	for _, c := range tr.byLayer[child] {
		id := tr.traceOf[c.qid]
		byTrace[id] = append(byTrace[id], c)
	}
	out := make([][]span, len(tr.byLayer[parent]))
	for i, p := range tr.byLayer[parent] {
		for _, c := range byTrace[tr.traceOf[p.qid]] {
			if c.start >= p.start && c.end <= p.end {
				out[i] = append(out[i], c)
			}
		}
	}
	return out
}

// selfTimes returns every span's duration minus the part of its interval
// its children cover.
func selfTimes(parents []span, kids [][]span) []time.Duration {
	out := make([]time.Duration, len(parents))
	for i, p := range parents {
		out[i] = p.dur() - covered(kids[i])
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	var total, end int64
	sorted := append([]span(nil), spans...)
	for i := 1; i < len(sorted); i++ { // insertion sort: a handful of spans
		for j := i; j > 0 && sorted[j].start < sorted[j-1].start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, s := range sorted {
		start := max(s.start, end)
		if s.end > start {
			total += s.end - start
			end = s.end
		}
	}
	return time.Duration(total)
}

// reportLayers fills the per-layer metrics of a traced run.
func reportLayers(res *result, st *stack, ph *phases, tr *trace, ups []updateSample) {
	b, a := ph.before, ph.after
	d := func(name string) float64 { return float64(a.counters[name] - b.counters[name]) }
	samples := ph.traced.samples
	requests := float64(a.obf.Requests - b.obf.Requests)
	batches := float64(a.obf.Batches - b.obf.Batches)
	entry := layerServer
	if st.router != nil {
		entry = layerRouter
	}

	// Generator and obfuscator.
	late := make([]time.Duration, len(samples))
	lat := make([]time.Duration, len(samples))
	for i := range samples {
		late[i] = time.Duration(samples[i].sent - samples[i].due)
		lat[i] = time.Duration(samples[i].done - samples[i].sent)
	}
	res.add("loadgen.late_p99_ms", "ms", msQuantiles(late, 0.99)[0])
	obfNanos := float64(a.obf.ObfuscationNanos - b.obf.ObfuscationNanos)
	filtNanos := float64(a.obf.FilterNanos - b.obf.FilterNanos)
	res.add("obfuscate.busy_ms_per_req", "ms", ratio(obfNanos/1e6, requests))
	res.add("obfuscate.pairs_per_req", "count", ratio(float64(a.pairs-b.pairs), requests))
	res.add("obfsvc.batch_size_mean", "count", ratio(requests, batches))
	res.add("filter.busy_ms_per_req", "ms", ratio(filtNanos/1e6, requests))

	// Stage accounting: every linked request's time splits into the wait
	// before its executor batch started (batching window, obfuscation and
	// the client hop), the executor round trip, and the time after it
	// (filter and the reply hop). Obfuscation and filter times are the
	// service's per-batch means.
	var pre, exec, e2e []time.Duration
	for i, bi := range tr.client {
		if bi < 0 {
			continue
		}
		s, eb := &samples[i], ph.batches[bi]
		pre = append(pre, time.Duration(eb.start-s.sent))
		exec = append(exec, time.Duration(eb.end-eb.start))
		e2e = append(e2e, time.Duration(s.done-s.sent))
	}
	sa := stageAccount{
		linked: ratio(float64(len(e2e)), float64(len(samples))),
		pre:    meanMS(pre),
		preP50: msQuantiles(pre, 0.5)[0],
		obf:    ratio(obfNanos/1e6, batches),
		exec:   meanMS(exec),
		filt:   ratio(filtNanos/1e6, batches),
		e2e:    meanMS(e2e),
		window: float64(st.sp.window()) / 1e6,
	}
	res.add("obfsvc.wait_ms_mean", "ms", meanMS(lat)-(sa.obf+sa.exec+sa.filt))
	res.add("stage.e2e_ms_mean", "ms", sa.e2e)
	res.add("stage.residual_ms", "ms", sa.residual())
	res.add("stage.linked_ratio", "ratio", sa.linked)
	res.stageFaults = sa.faults()
	verdict := "accounted"
	if len(res.stageFaults) > 0 {
		verdict = "NOT accounted: " + strings.Join(res.stageFaults, "; ")
	}
	res.note("stage accounting over %d linked requests: wait %.3f (median %.3f, batching window %.3f) + obfuscate %.3f + executor %.3f + filter %.3f = %.3f ms vs end-to-end %.3f ms (residual %.3f ms, tolerance %.3f ms): %s",
		len(e2e), sa.pre-sa.obf, sa.preP50-sa.obf, sa.window, sa.obf, sa.exec, sa.filt, sa.pre+sa.exec+sa.filt, sa.e2e, sa.residual(), sa.tolerance(), verdict)

	// Protocol hop between the obfuscator and the server or router.
	execSpans := tr.byLayer[layerExec]
	q := msQuantiles(durations(execSpans), 0.5, 0.99)
	res.add("protocol.exec_ms_p50", "ms", q[0])
	res.add("protocol.exec_ms_p99", "ms", q[1])
	res.add("protocol.overhead_ms_p50", "ms", msQuantiles(selfTimes(execSpans, tr.children(layerExec, entry)), 0.5)[0])
	res.add("protocol.reply_bytes_per_req", "B", ratio(float64(a.replyIn-b.replyIn), requests))
	res.add("protocol.client_bytes_per_req", "B", ratio(float64(a.client-b.client), float64(len(samples))))

	// Servers (the shards, on the fleet).
	srvSpans := append(append([]span(nil), tr.byLayer[layerServer]...), tr.byLayer[layerShard]...)
	q = msQuantiles(durations(srvSpans), 0.5, 0.99)
	res.add("server.batch_ms_p50", "ms", q[0])
	res.add("server.batch_ms_p99", "ms", q[1])
	res.add("server.inflight_max", "count", float64(st.rec.inflightMax.Load()))
	for _, name := range []string{"ch_queries", "mtm_queries", "fallback_queries", "overlay_stale_queries"} {
		res.add("server."+name, "count", d(name))
	}
	res.add("server.settled_per_query", "count", ratio(float64(a.settled-b.settled), float64(a.queries-b.queries)))
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	res.add("search.tree_cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	res.add("search.workspace_fresh_ratio", "ratio", ratio(float64(a.pool.Fresh-b.pool.Fresh), float64(a.pool.Gets-b.pool.Gets)))

	// Overlay engines. The MTM counters restart with every re-customization,
	// so their differences are clamped at zero under churn.
	tables := math.Max(0, float64(a.mtm.Tables-b.mtm.Tables))
	res.add("ch.mtm_tables", "count", tables)
	res.add("ch.bucket_entries_scanned_per_table", "count", ratio(math.Max(0, float64(a.mtm.BucketEntriesScanned-b.mtm.BucketEntriesScanned)), tables))
	res.add("ch.arena_high_water", "count", float64(a.mtm.ArenaHighWater))
	res.add("ch.recustomize_runs", "count", d("recustomize_runs"))
	res.add("ch.recustomize_last_ms", "ms", a.recustMS)
	res.add("ch.cells_recustomized", "count", d("cells_recustomized"))
	var lags, acks []time.Duration
	for _, u := range ups {
		if u.due < ph.traced.from || u.due >= ph.traced.to {
			continue
		}
		acks = append(acks, time.Duration(u.acked-u.due))
		if u.fresh > 0 {
			lags = append(lags, time.Duration(u.fresh-u.acked))
		}
	}
	res.add("server.refresh_lag_ms_p50", "ms", msQuantiles(lags, 0.5)[0])

	// Fleet.
	routerSpans := tr.byLayer[layerRouter]
	res.add("fleet.route_ms_p50", "ms", msQuantiles(durations(routerSpans), 0.5)[0])
	q = msQuantiles(durations(tr.byLayer[layerShard]), 0.5, 0.99)
	res.add("fleet.shard_ms_p50", "ms", q[0])
	res.add("fleet.shard_ms_p99", "ms", q[1])
	var merge []time.Duration
	for i, kids := range tr.children(layerRouter, layerShard) {
		var slowest time.Duration
		for _, k := range kids {
			slowest = max(slowest, k.dur())
		}
		if len(kids) > 0 {
			merge = append(merge, routerSpans[i].dur()-slowest)
		}
	}
	res.add("fleet.merge_ms_p50", "ms", msQuantiles(merge, 0.5)[0])
	res.add("fleet.subqueries_per_query", "count", ratio(d("fleet_subqueries"), d("fleet_queries")))
	res.add("fleet.generation_skew", "count", d("fleet_generation_skew"))
	res.add("fleet.shard_retries", "count", d("fleet_shard_retries"))
	minPairs := st.rec.minShardPairs.Load()
	if minPairs == math.MaxInt64 {
		minPairs = 0
	}
	res.add("fleet.min_shard_pairs", "count", float64(minPairs))
	res.add("fleet.update_p50_ms", "ms", msQuantiles(acks, 0.5)[0])

	// Runtime.
	n := float64(len(samples))
	res.add("runtime.allocs_per_req", "count", ratio(float64(a.mallocs-b.mallocs), n))
	res.add("runtime.alloc_bytes_per_req", "B", ratio(float64(a.alloc-b.alloc), n))
	res.add("runtime.gc_cycles", "count", float64(a.gcs-b.gcs))

	// Whole run, and the cost of tracing: the traced phase repeats the
	// untraced open loop's schedule.
	res.add("client.err_ratio", "ratio", ratio(float64(res.failed), float64(res.attempted)))
	traced := make([]time.Duration, len(samples))
	for i := range samples {
		traced[i] = samples[i].latency()
	}
	res.add("client.lat_p99_ms", "ms", msQuantiles(traced, 0.99)[0])
	base := make([]time.Duration, len(ph.open.samples))
	for i := range ph.open.samples {
		base[i] = ph.open.samples[i].latency()
	}
	res.add("trace.overhead_ms_p50", "ms", msQuantiles(traced, 0.5)[0]-msQuantiles(base, 0.5)[0])

	// Self time per layer, for the record.
	clientSelf := make([]time.Duration, 0, len(e2e))
	for i := range e2e {
		clientSelf = append(clientSelf, e2e[i]-exec[i])
	}
	self := fmt.Sprintf("mean self time (ms): client %.3f, exec %.3f, %s %.3f",
		meanMS(clientSelf), meanMS(selfTimes(execSpans, tr.children(layerExec, entry))),
		entry, meanMS(selfTimes(tr.byLayer[entry], tr.children(entry, layerShard))))
	if shards := tr.byLayer[layerShard]; len(shards) > 0 {
		self += fmt.Sprintf(", shard %.3f", meanMS(durations(shards)))
	}
	res.note("%s", self)
}

// stageAccount is the ROADMAP "E21 latency budget": the traced end-to-end
// mean of the linked requests split into batching wait, obfuscation,
// executor round trip and filter. Times are milliseconds.
type stageAccount struct {
	linked      float64 // share of traced requests linked to their executor batch
	pre, preP50 float64 // client send → executor start, mean and median
	obf         float64 // ObfuscationNanos per batch
	exec        float64 // executor round trip, mean
	filt        float64 // FilterNanos per batch
	e2e         float64 // client send → reply, mean
	window      float64 // the obfuscator's batching window
}

// Stage accounting tolerance: 10 % of the end-to-end mean or 0.5 ms,
// whichever is larger.
const (
	stageTolerance   = 0.10
	stageToleranceMS = 0.5
)

func (a stageAccount) tolerance() float64 {
	return math.Max(stageTolerance*a.e2e, stageToleranceMS)
}

// residual is the end-to-end time the stages leave over: the reply hop from
// the obfuscator back to the client.
func (a stageAccount) residual() float64 { return a.e2e - (a.pre + a.exec + a.filt) }

// faults lists every way the stages fail to account for the end-to-end
// time. Each check can fail on its own stage: the residual tests the
// filter and the reply hop; obfuscation must fit in the time before the
// executor started; and the typical request's wait beyond obfuscation must
// fit in the batching window, or the obfuscation figure is too small or the
// window is not the one configured. The median is used there because a few
// requests queue behind CPU-bound work on a loaded host.
func (a stageAccount) faults() []string {
	var f []string
	tol := a.tolerance()
	if a.linked < 0.99 {
		f = append(f, fmt.Sprintf("only %.1f%% of requests linked to an executor batch", 100*a.linked))
	}
	if r := a.residual(); math.Abs(r) > tol {
		f = append(f, fmt.Sprintf("residual %.3f ms exceeds the tolerance %.3f ms", r, tol))
	}
	if a.obf > a.pre {
		f = append(f, fmt.Sprintf("obfuscation %.3f ms per batch exceeds the %.3f ms requests spent before the executor", a.obf, a.pre))
	}
	if w := a.preP50 - a.obf; w > a.window+tol {
		f = append(f, fmt.Sprintf("median wait %.3f ms exceeds the %.3f ms batching window by more than the tolerance %.3f ms", w, a.window, tol))
	}
	return f
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Layer   string  `json:"layer"`
	Shard   int     `json:"shard,omitempty"`
	Trace   uint64  `json:"trace"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Queries int     `json:"queries,omitempty"`
}

// writeSpans writes the traced phase's spans, one JSON object per line,
// client spans included (trace 0 when no executor batch was linked).
func writeSpans(o options, sp spec, ph *phases, tr *trace) error {
	if o.outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i := range ph.traced.samples {
		s := &ph.traced.samples[i]
		rec := spanRecord{Layer: layerClient.String(), StartMS: ms(s.sent), EndMS: ms(s.done)}
		if bi := tr.client[i]; bi >= 0 {
			rec.Trace = ph.batches[bi].queries[0].QueryID
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range ph.spans {
		rec := spanRecord{Layer: s.layer.String(), Shard: int(s.shard), Trace: tr.traceOf[s.qid], StartMS: ms(s.start), EndMS: ms(s.end), Queries: int(s.queries)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
