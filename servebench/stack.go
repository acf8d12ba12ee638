package main

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"opaque/internal/ch"
	"opaque/internal/fleet"
	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
)

// stack is one wired serving path: client connection → obfuscator →
// (router →) server(s), every hop one loopback TCP connection.
type stack struct {
	sp  spec
	g   *roadnet.Graph
	rec *recorder

	servers []*server.Server
	router  *fleet.Router
	part    *roadnet.Partition // the shared overlay's partition (stackFleet)
	svc     *obfsvc.Service
	client  *protocol.MuxClient

	// Byte counters: the client connection and the executor connection
	// (obfuscator ↔ server or router).
	clientBytes, execBytes *byteCounter

	// Teardown, in order: each step closes one hop and waits for the serving
	// goroutines behind it.
	stops []func()
}

// serveOn listens on a loopback port and serves h there with
// protocol.ServeMux until stop is called.
func (st *stack) serveOn(h protocol.MuxHandler, hello func() protocol.Hello) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = protocol.ServeMux(ln, h, protocol.MuxServerConfig{Hello: hello})
	}()
	st.stops = append(st.stops, func() { ln.Close(); wg.Wait() })
	return ln.Addr().String(), nil
}

// buildStack generates the fixture and wires the workload's stack. It returns
// once the stack has served its first request.
func buildStack(sp spec) (*stack, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = sp.nodes
	netCfg.Seed = sp.mapSeed
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, fmt.Errorf("generating map: %w", err)
	}
	st := &stack{sp: sp, g: g, rec: newRecorder(sp.fs, sp.ft), clientBytes: &byteCounter{}, execBytes: &byteCounter{}}
	if err := st.wire(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) wire() error {
	sp, g := st.sp, st.g
	var entry string
	switch sp.stack {
	case stackSSMD, stackHybrid:
		cfg := server.DefaultConfig()
		if sp.stack == stackSSMD {
			cfg.Strategy = search.StrategySSMD
			cfg.TreeCache = treeCacheSize
		} else {
			cfg.Strategy = server.StrategyHybrid
			cfg.BuildCH = true
		}
		srv, err := server.New(g, cfg)
		if err != nil {
			return fmt.Errorf("building server: %w", err)
		}
		st.servers = []*server.Server{srv}
		h := &handlerWrap{inner: srv.MuxHandler(), rec: st.rec, layer: layerServer, entry: true}
		if entry, err = st.serveOn(h, srv.HelloInfo); err != nil {
			return err
		}
	case stackFleet:
		part, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: sp.cells})
		if err != nil {
			return fmt.Errorf("partitioning map: %w", err)
		}
		st.part = part
		overlay, err := ch.BuildCustomizablePartitioned(g, part)
		if err != nil {
			return fmt.Errorf("building overlay: %w", err)
		}
		var och1 bytes.Buffer
		if err := ch.Write(overlay, &och1); err != nil {
			return fmt.Errorf("encoding overlay: %w", err)
		}
		dialers := make([]fleet.Dialer, fleetShards)
		for i := range dialers {
			loaded, err := ch.Read(bytes.NewReader(och1.Bytes()))
			if err != nil {
				return fmt.Errorf("loading overlay for shard %d: %w", i, err)
			}
			cfg := server.DefaultConfig()
			cfg.Strategy = server.StrategyHybrid
			cfg.CHOverlay = loaded
			srv, err := server.New(g, cfg)
			if err != nil {
				return fmt.Errorf("building shard %d: %w", i, err)
			}
			st.servers = append(st.servers, srv)
			h := &handlerWrap{inner: srv.MuxHandler(), rec: st.rec, layer: layerShard, shard: int8(i)}
			addr, err := st.serveOn(h, srv.HelloInfo)
			if err != nil {
				return err
			}
			dialers[i] = func() (*protocol.MuxClient, error) {
				return dialMux(addr, nil, protocol.Hello{Node: "router", Role: "router"})
			}
		}
		router, err := fleet.New(fleet.Config{Mode: fleet.ModePartition, Partition: part, UpdateQuorum: fleetShards}, dialers)
		if err != nil {
			return fmt.Errorf("building router: %w", err)
		}
		st.router = router
		// Shards stop after the router has dropped its connections to them.
		shardStops := st.stops
		st.stops = nil
		h := &handlerWrap{inner: router.MuxHandler(), rec: st.rec, layer: layerRouter, entry: true}
		if entry, err = st.serveOn(h, router.HelloInfo); err != nil {
			st.stops = append(st.stops, shardStops...)
			return err
		}
		st.stops = append(st.stops, router.Close)
		st.stops = append(st.stops, shardStops...)
	}

	mc, err := dialMux(entry, st.execBytes, protocol.Hello{Node: "obfuscator", Role: "obfuscator"})
	if err != nil {
		return fmt.Errorf("connecting obfuscator: %w", err)
	}
	exec := obfsvc.NewMuxExecutor(mc)
	// The obfuscator hop stops first: its listener and client connection,
	// then the executor connection toward the server or router.
	st.stops = append([]func(){func() { exec.Close() }}, st.stops...)

	obfCfg := obfsvc.DefaultConfig()
	obfCfg.BatchWindow = sp.window()
	var sel obfuscate.EndpointSelector = obfuscate.MustNewRingBandSelector(2000, 15000, 11)
	if sp.shared {
		sel = obfuscate.NewStickySelector(sel, 0)
	} else {
		obfCfg.Obfuscation.Mode = obfuscate.Independent
	}
	obfCfg.Obfuscation.Selector = sel
	svc, err := obfsvc.New(g, &execWrap{inner: exec, rec: st.rec}, obfCfg)
	if err != nil {
		return fmt.Errorf("building obfuscator: %w", err)
	}
	st.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = svc.ServeMux(ln, protocol.MuxServerConfig{})
	}()
	st.stops = append([]func(){func() { ln.Close(); wg.Wait() }}, st.stops...)

	client, err := dialMux(ln.Addr().String(), st.clientBytes, protocol.Hello{Node: "generator", Role: "client"})
	if err != nil {
		return fmt.Errorf("connecting client: %w", err)
	}
	st.client = client
	st.stops = append([]func(){func() { client.Close() }}, st.stops...)

	// The stack is up once it has served a request.
	t := gen.QueryPair{Source: 0, Dest: roadnet.NodeID(g.NumNodes() - 1)}
	reply, err := st.ask(0, t)
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if !reply.Found {
		return fmt.Errorf("first request not served: %s", reply.Error)
	}
	return nil
}

// ask sends one client request over the generator's connection.
func (st *stack) ask(id uint64, t gen.QueryPair) (protocol.ClientReply, error) {
	res, err := st.client.Do(protocol.ClientRequest{
		RequestID: id, User: "u" + strconv.FormatUint(id%1024, 10), Source: t.Source, Dest: t.Dest, FS: st.sp.fs, FT: st.sp.ft,
	})
	if err != nil {
		return protocol.ClientReply{}, err
	}
	reply, ok := res.(protocol.ClientReply)
	if !ok {
		return protocol.ClientReply{}, fmt.Errorf("unexpected reply type %T", res)
	}
	return reply, nil
}

// close stops every hop, front to back, and waits for its goroutines.
func (st *stack) close() {
	done := make(chan struct{})
	go func() {
		for _, stop := range st.stops {
			stop()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// A hop that does not drain in 30 s would hang the run; the
		// process exits shortly after and takes it down.
	}
}
