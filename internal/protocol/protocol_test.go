package protocol

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/search"
)

func TestWrapUnwrapRoundTrip(t *testing.T) {
	messages := []any{
		ClientRequest{RequestID: 1, User: "alice", Source: 2, Dest: 3, FS: 4, FT: 5},
		ClientReply{RequestID: 1, Found: true, Path: []roadnet.NodeID{1, 2, 3}, Cost: 7},
		ServerQuery{QueryID: 9, Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}},
		ServerReply{QueryID: 9, SettledNodes: 10, Paths: []CandidatePath{{Source: 1, Dest: 3, Found: true, Nodes: []roadnet.NodeID{1, 3}, Cost: 2}}},
		ErrorReply{RefID: 4, Message: "boom"},
	}
	for _, msg := range messages {
		env, err := Wrap(msg)
		if err != nil {
			t.Fatalf("Wrap(%T): %v", msg, err)
		}
		got, err := env.Unwrap()
		if err != nil {
			t.Fatalf("Unwrap(%T): %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip of %T: got %+v, want %+v", msg, got, msg)
		}
	}
}

func TestWrapPointerAndUnsupported(t *testing.T) {
	req := &ClientRequest{RequestID: 2}
	env, err := Wrap(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Unwrap()
	if err != nil {
		t.Fatal(err)
	}
	if got.(ClientRequest).RequestID != 2 {
		t.Error("pointer wrap lost data")
	}
	if _, err := Wrap(42); err == nil {
		t.Error("unsupported type accepted")
	}
	if _, err := (Envelope{Type: TypeClientRequest}).Unwrap(); err == nil {
		t.Error("envelope without payload accepted")
	}
	if _, err := (Envelope{Type: 99}).Unwrap(); err == nil {
		t.Error("unknown envelope type accepted")
	}
}

// TestGobCodecRoundTrip drives every message type through the mux envelope
// codec — the one gob decoder of network bytes — on one persistent stream,
// the way a connection carries them, with the deadline riding along.
func TestGobCodecRoundTrip(t *testing.T) {
	messages := []any{
		ClientRequest{RequestID: 1, User: "alice", Source: 2, Dest: 3, FS: 4, FT: 5, Profile: "am-peak"},
		ClientReply{RequestID: 1, Found: true, Path: []roadnet.NodeID{1, 2, 3}, Cost: 7},
		ServerQuery{QueryID: 7, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2, 3}, DistanceOnly: true},
		ServerReply{QueryID: 9, SettledNodes: 10, Generation: 2, ContentSum: 0xbeef, Paths: []CandidatePath{{Source: 1, Dest: 3, Found: true, Nodes: []roadnet.NodeID{1, 3}, Cost: 2}}},
		BatchQuery{BatchID: 5, Queries: []ServerQuery{{QueryID: 1, Sources: []roadnet.NodeID{4}, Dests: []roadnet.NodeID{5}}}},
		BatchItem{BatchID: 5, Index: 0, Reply: ServerReply{QueryID: 1}, Error: "x"},
		WeightUpdate{UpdateID: 3, Changes: []roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 4.5}}},
		WeightUpdateAck{UpdateID: 3, Generation: 4, ContentSum: 0xfeed},
		ErrorReply{RefID: 4, Message: "boom"},
	}
	enc, dec := newEnvelopeCodec(), newEnvelopeCodec()
	for i, msg := range messages {
		payload, err := enc.encode(msg, int64(i))
		if err != nil {
			t.Fatalf("encode(%T): %v", msg, err)
		}
		got, deadline, err := dec.decode(append([]byte(nil), payload...))
		if err != nil {
			t.Fatalf("decode(%T): %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("gob round trip of %T: got %+v, want %+v", msg, got, msg)
		}
		if deadline != int64(i) {
			t.Errorf("%T: deadline %d, want %d", msg, deadline, i)
		}
	}
	if _, err := enc.encode(42, 0); err == nil {
		t.Error("unsupported message type encoded")
	}
}

// FuzzEnvelopeDecode feeds arbitrary payloads to a fresh envelope decoder,
// as the first frame of a connection, and to one that has already decoded a
// valid envelope (so its stream holds registered type descriptions). Every
// input must yield a message or an error, never a panic.
func FuzzEnvelopeDecode(f *testing.F) {
	enc := newEnvelopeCodec()
	for _, msg := range []any{
		ServerQuery{QueryID: 7, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2, 3}},
		BatchQuery{BatchID: 5, Queries: []ServerQuery{{QueryID: 1, Sources: []roadnet.NodeID{4}, Dests: []roadnet.NodeID{5}}}},
		ClientRequest{RequestID: 1, User: "alice", Source: 2, Dest: 3, FS: 4, FT: 5},
	} {
		payload, err := enc.encode(msg, 99)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), payload...))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	warm, err := newEnvelopeCodec().encode(ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}}, 0)
	if err != nil {
		f.Fatal(err)
	}
	warm = append([]byte(nil), warm...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, _, err := newEnvelopeCodec().decode(data); err == nil && msg == nil {
			t.Fatal("decode accepted a payload without a message")
		}
		dec := newEnvelopeCodec()
		if _, _, err := dec.decode(warm); err != nil {
			t.Fatalf("warm-up envelope rejected: %v", err)
		}
		if msg, _, err := dec.decode(data); err == nil && msg == nil {
			t.Fatal("decode accepted a payload without a message")
		}
	})
}

func TestPathConversions(t *testing.T) {
	p := search.Path{Nodes: []roadnet.NodeID{1, 2, 3}, Cost: 9}
	c := CandidateFromPath(1, 3, p)
	if !c.Found || c.Source != 1 || c.Dest != 3 || c.Cost != 9 {
		t.Errorf("CandidateFromPath = %+v", c)
	}
	back := PathFromCandidate(c)
	if !reflect.DeepEqual(back.Nodes, p.Nodes) || back.Cost != p.Cost {
		t.Errorf("PathFromCandidate = %+v", back)
	}
	emptyCand := CandidateFromPath(1, 3, search.Path{})
	if emptyCand.Found {
		t.Error("empty path should convert to Found=false")
	}
	if !PathFromCandidate(emptyCand).Empty() {
		t.Error("not-found candidate should convert to empty path")
	}
}

// TestConnCallOverPipe drives one unary request/response exchange over an
// in-process net.Pipe connection served by ServeMuxConn.
func TestConnCallOverPipe(t *testing.T) {
	// Echo-style server: answers every ServerQuery with a reply carrying the
	// same query id.
	c := muxPair(t, MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		q, ok := msg.(ServerQuery)
		if !ok {
			return nil, fmt.Errorf("unexpected message %T", msg)
		}
		return ServerReply{QueryID: q.QueryID, SettledNodes: 42}, nil
	}), MuxServerConfig{})

	reply, err := c.Do(ServerQuery{QueryID: 11, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := reply.(ServerReply)
	if !ok || sr.QueryID != 11 || sr.SettledNodes != 42 {
		t.Errorf("Do reply = %+v", reply)
	}
}

// TestServeConnReportsHandlerErrors asserts a handler error reaches the peer
// as a RemoteError reply.
func TestServeConnReportsHandlerErrors(t *testing.T) {
	c := muxPair(t, MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		return nil, &net.AddrError{Err: "handler exploded", Addr: "x"}
	}), MuxServerConfig{})

	_, err := c.Do(ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{1}})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("expected RemoteError, got %v", err)
	}
}

// TestServeMuxAndDialMux runs the transport over real TCP: ServeMux on a
// listener, DialMux from a client.
func TestServeMuxAndDialMux(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeMux(ln, echoHandler, MuxServerConfig{Hello: func() Hello { return Hello{Role: "server"} }})
	}()
	defer func() {
		ln.Close()
		<-done
	}()

	conn, err := DialMux(ln.Addr().String(), Hello{Node: "test", Role: "client"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Peer().Role != "server" {
		t.Errorf("peer hello = %+v", conn.Peer())
	}
	reply, err := conn.Do(ServerQuery{QueryID: 5, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(ServerReply).QueryID != 5 {
		t.Errorf("reply = %+v", reply)
	}
	// Double close must be safe.
	if err := conn.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialMux("127.0.0.1:1", Hello{Role: "client"}); err == nil {
		t.Error("DialMux to a closed port succeeded")
	}
}
