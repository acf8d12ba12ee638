package protocol

// This file is the multiplexed transport every hop serves over: one
// persistent connection carries many concurrent requests as OPMX1 frames
// (frame.go), correlated by request ID. On top of the frame layer it provides
//
//   - a Hello/Welcome handshake: the dialling side announces itself, the
//     accepting side answers with its identity, data generation, weight
//     content checksum, partition shape and profile catalog — what a fleet
//     router needs to admit a shard;
//   - streaming batch replies: a BatchQuery is answered as one
//     FrameStreamItem per query, emitted as each query completes, closed by
//     FrameStreamEnd — the client reassembles the BatchReply;
//   - per-connection admission control: at most MaxInFlight requests run
//     concurrently (further frames stay unread, pushing back on the peer via
//     the transport), and above the ShedAt watermark incoming work is marked
//     for degradation so the handler can shed to distance-only evaluation.
//
// Payloads are gob-encoded Envelopes on one persistent stream per direction
// (type descriptions travel once per connection, not once per frame); a
// payload that fails to decode poisons the stream and closes the connection.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Hello is the handshake message both ends of a multiplexed connection
// exchange: the dialler sends its own (FrameHello), the accepter answers
// with its serving identity (FrameWelcome).
type Hello struct {
	// Node names the peer (an address or configured identity); Role is
	// "client", "obfuscator", "router" or "server".
	Node string
	Role string
	// Generation and ContentSum identify the metric a serving peer currently
	// answers under (see ServerReply.Generation/ContentSum); zero for peers
	// that do not serve queries.
	Generation uint64
	ContentSum uint64
	// Cells is the partition cell count of the serving peer's overlay (0 =
	// unpartitioned); Profiles its precustomized weight-profile catalog.
	Cells    int
	Profiles []string
	// MaxInFlight advertises the per-connection admission window the serving
	// peer enforces.
	MaxInFlight int
}

// Mux transport errors.
var (
	// ErrMuxClosed reports an operation on a multiplexed connection that has
	// failed or been closed; pending and future calls all return it (wrapped
	// around the terminal cause).
	ErrMuxClosed = errors.New("protocol: mux connection closed")
	// ErrHandshake reports a handshake that did not follow Hello/Welcome.
	ErrHandshake = errors.New("protocol: mux handshake failed")
	// ErrDeadlineExceeded reports a request whose deadline passed before a
	// reply arrived. The connection itself may be healthy (a slow peer) or
	// silently dead (a blackholed route) — the caller cannot tell, so fleet
	// routers treat it as a shard health failure.
	ErrDeadlineExceeded = errors.New("protocol: deadline exceeded")
)

// DeadlineExceededMsg is the RemoteError message the serving side answers
// with when it drops a request whose envelope deadline expired before
// evaluation started.
const DeadlineExceededMsg = "deadline exceeded before evaluation"

// IsDeadlineExceeded reports whether err is a deadline failure — either the
// local ErrDeadlineExceeded (no reply in time) or the peer's remote drop of
// expired work.
func IsDeadlineExceeded(err error) bool {
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, DeadlineExceededMsg)
}

// RemoteError is a failure reported by the peer's handler (a FrameErr
// answer). It is distinct from transport errors: the connection remains
// healthy and retrying on another connection will not help unless the
// request itself changes.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "protocol: remote error: " + e.Msg }

// envelopeCodec encodes and decodes envelopes on one persistent gob stream,
// buffering each message so it can travel as a frame payload. Not safe for
// concurrent use; callers serialise.
type envelopeCodec struct {
	buf bytes.Buffer
	enc *gob.Encoder
	dec *gob.Decoder
}

func newEnvelopeCodec() *envelopeCodec {
	c := &envelopeCodec{}
	c.enc = gob.NewEncoder(&c.buf)
	c.dec = gob.NewDecoder(&c.buf)
	return c
}

// encode appends msg's envelope (stamped with the request deadline, 0 =
// none) to the stream and returns its bytes, valid until the next encode
// call.
func (c *envelopeCodec) encode(msg any, deadline int64) ([]byte, error) {
	env, err := Wrap(msg)
	if err != nil {
		return nil, err
	}
	env.Deadline = deadline
	c.buf.Reset()
	if err := c.enc.Encode(env); err != nil {
		return nil, fmt.Errorf("protocol: encoding envelope: %w", err)
	}
	return c.buf.Bytes(), nil
}

// decode feeds one frame payload into the stream and decodes the envelope it
// carries, returning the message and the envelope deadline (Unix nanos, 0 =
// none).
func (c *envelopeCodec) decode(payload []byte) (any, int64, error) {
	c.buf.Write(payload)
	var env Envelope
	if err := c.dec.Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("protocol: decoding envelope: %w", err)
	}
	msg, err := env.Unwrap()
	return msg, env.Deadline, err
}

// helloCodec carries the handshake Hellos on their own self-contained gob
// payloads (the envelope streams start after the handshake).
func encodeHello(h Hello) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeHello(payload []byte) (Hello, error) {
	var h Hello
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h)
	return h, err
}

// muxEvent is one frame delivered to a waiting call.
type muxEvent struct {
	frameType FrameType
	msg       any
}

// muxCall is one in-flight request on a MuxClient. Streaming replies deliver
// several events; unary replies exactly one.
type muxCall struct {
	events chan muxEvent
}

// MuxClient is the dialling side of a multiplexed connection: any number of
// goroutines issue requests concurrently over one persistent framed
// connection. A transport failure fails every pending and future call with
// ErrMuxClosed (wrapping the cause); the client is then dead and a new one
// must be dialled.
type MuxClient struct {
	raw  net.Conn
	peer Hello

	sendMu sync.Mutex
	enc    *envelopeCodec

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*muxCall
	err     error // terminal cause, set once under mu

	closeOnce sync.Once
	done      chan struct{}
}

// DialMux connects to addr over TCP and performs the multiplexed handshake,
// announcing hello.
func DialMux(addr string, hello Hello) (*MuxClient, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial %s: %w", addr, err)
	}
	c, err := NewMuxClient(raw, hello)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// NewMuxClient wraps an established stream connection, sends hello and waits
// for the peer's welcome. On error the raw connection is left to the caller.
func NewMuxClient(raw net.Conn, hello Hello) (*MuxClient, error) {
	payload, err := encodeHello(hello)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding hello: %v", ErrHandshake, err)
	}
	if err := WriteFrame(raw, Frame{Type: FrameHello, Payload: payload}); err != nil {
		return nil, fmt.Errorf("%w: sending hello: %v", ErrHandshake, err)
	}
	f, err := ReadFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: reading welcome: %v", ErrHandshake, err)
	}
	if f.Type != FrameWelcome {
		return nil, fmt.Errorf("%w: expected welcome frame, got type %d", ErrHandshake, f.Type)
	}
	peer, err := decodeHello(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding welcome: %v", ErrHandshake, err)
	}
	c := &MuxClient{
		raw:     raw,
		peer:    peer,
		enc:     newEnvelopeCodec(),
		pending: make(map[uint64]*muxCall),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Peer returns the accepting side's Hello: its identity, generation, content
// checksum, partition shape and profile catalog — as of the handshake, or of
// the latest Ping pong, whichever is fresher.
func (c *MuxClient) Peer() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Err returns the terminal transport error, or nil while the connection is
// healthy.
func (c *MuxClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; pending calls fail with ErrMuxClosed.
func (c *MuxClient) Close() error {
	c.fail(ErrMuxClosed)
	return nil
}

// fail records the terminal cause once, closes the raw connection and fails
// every pending call.
func (c *MuxClient) fail(cause error) {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.err = cause
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		close(c.done)
		c.raw.Close()
		for _, call := range pending {
			close(call.events)
		}
	})
}

// readLoop delivers reply frames to their pending calls until the connection
// dies.
func (c *MuxClient) readLoop() {
	dec := newEnvelopeCodec()
	for {
		f, err := ReadFrame(c.raw)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
			return
		}
		if f.Type == FrameGoAway {
			c.fail(fmt.Errorf("%w: peer sent go-away", ErrMuxClosed))
			return
		}
		var msg any
		switch f.Type {
		case FrameStreamEnd:
			// No payload.
		case FramePong:
			// Pongs carry a self-contained Hello gob, outside the envelope
			// stream; a bad pong only fails the probe, not the connection.
			h, derr := decodeHello(f.Payload)
			if derr == nil {
				c.mu.Lock()
				c.peer = h
				c.mu.Unlock()
			}
			msg = h
		default:
			msg, _, err = dec.decode(f.Payload)
			if err != nil {
				// The per-direction gob stream is poisoned; nothing after
				// this frame can decode.
				c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
				return
			}
		}
		terminal := f.Type == FrameMsg || f.Type == FrameErr || f.Type == FrameStreamEnd || f.Type == FramePong
		c.mu.Lock()
		call := c.pending[f.ID]
		if call != nil && terminal {
			// Terminal frame for this ID: no more events will follow.
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if call == nil {
			continue // reply for a caller that gave up; drop
		}
		call.events <- muxEvent{frameType: f.Type, msg: msg}
		if terminal {
			close(call.events)
		}
	}
}

// register allocates a request ID and its pending call.
func (c *MuxClient) register() (uint64, *muxCall, error) {
	id := c.nextID.Add(1)
	// Stream replies can deliver many items before the caller drains them;
	// size the channel generously so the read loop never blocks on a slow
	// caller of a unary request (streaming callers drain promptly).
	call := &muxCall{events: make(chan muxEvent, 64)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", ErrMuxClosed, err)
	}
	c.pending[id] = call
	c.mu.Unlock()
	return id, call, nil
}

// send encodes and writes one request frame, stamping the envelope deadline
// (Unix nanos, 0 = none). When a deadline is set it doubles as the raw
// connection's write deadline, so a peer that stopped reading (a blackholed
// route pushing back through the transport) cannot wedge the sender forever.
func (c *MuxClient) send(id uint64, msg any, deadline int64) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	payload, err := c.enc.encode(msg, deadline)
	if err != nil {
		return err
	}
	if deadline != 0 {
		_ = c.raw.SetWriteDeadline(time.Unix(0, deadline))
		defer func() { _ = c.raw.SetWriteDeadline(time.Time{}) }()
	}
	if err := WriteFrame(c.raw, Frame{Type: FrameMsg, ID: id, Payload: payload}); err != nil {
		// A failed or timed-out write leaves a partial frame on the wire; the
		// connection is unusable either way.
		c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
		return fmt.Errorf("%w: %v", ErrMuxClosed, err)
	}
	return nil
}

// abandon forgets an in-flight call after a send failure.
func (c *MuxClient) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// deadlineNanos validates a deadline and converts it to envelope form. It
// returns an error when the deadline has already passed — the request must
// not be sent at all.
func deadlineNanos(deadline time.Time) (int64, error) {
	if deadline.IsZero() {
		return 0, nil
	}
	if !time.Now().Before(deadline) {
		return 0, fmt.Errorf("%w: before send", ErrDeadlineExceeded)
	}
	return deadline.UnixNano(), nil
}

// wait blocks for the next event of an in-flight call, bounded by deadline
// (zero = wait forever). A timeout abandons the call — a late reply is
// dropped by the read loop — and returns ErrDeadlineExceeded.
func (c *MuxClient) wait(id uint64, call *muxCall, timeout <-chan time.Time) (muxEvent, error) {
	select {
	case ev, ok := <-call.events:
		if !ok {
			return muxEvent{}, fmt.Errorf("%w: %v", ErrMuxClosed, c.Err())
		}
		return ev, nil
	case <-timeout:
		c.abandon(id)
		return muxEvent{}, fmt.Errorf("%w: no reply for request %d", ErrDeadlineExceeded, id)
	}
}

// deadlineTimer returns a channel firing at deadline (nil = never) and its
// stop function.
func deadlineTimer(deadline time.Time) (<-chan time.Time, func()) {
	if deadline.IsZero() {
		return nil, func() {}
	}
	tm := time.NewTimer(time.Until(deadline))
	return tm.C, func() { tm.Stop() }
}

// Do sends one unary request and waits for its reply. A FrameErr answer is
// returned as *RemoteError; a transport failure as ErrMuxClosed.
func (c *MuxClient) Do(msg any) (any, error) { return c.DoDeadline(msg, time.Time{}) }

// DoDeadline is Do with an absolute deadline (zero = none): the deadline
// rides in the request envelope so the serving side drops the work if it
// expires before evaluation, and the wait for the reply is bounded by the
// same clock — ErrDeadlineExceeded either way.
func (c *MuxClient) DoDeadline(msg any, deadline time.Time) (any, error) {
	dl, err := deadlineNanos(deadline)
	if err != nil {
		return nil, err
	}
	id, call, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.send(id, msg, dl); err != nil {
		c.abandon(id)
		return nil, err
	}
	timeout, stop := deadlineTimer(deadline)
	defer stop()
	ev, err := c.wait(id, call, timeout)
	if err != nil {
		return nil, err
	}
	switch ev.frameType {
	case FrameMsg:
		return ev.msg, nil
	case FrameErr:
		if er, isErr := ev.msg.(ErrorReply); isErr {
			return nil, &RemoteError{Msg: er.Message}
		}
		return nil, &RemoteError{Msg: fmt.Sprintf("malformed error reply %T", ev.msg)}
	default:
		return nil, fmt.Errorf("protocol: unexpected %d frame answering unary request", ev.frameType)
	}
}

// Ping probes the peer over the identity stream: a FramePing is answered
// inline by the serving side — before admission control, so a saturated but
// alive peer still pongs — with its current Hello, which also refreshes
// Peer(). The deadline bounds the whole probe (zero = wait forever, which is
// almost never what a health checker wants).
func (c *MuxClient) Ping(deadline time.Time) (Hello, error) {
	if _, err := deadlineNanos(deadline); err != nil {
		return Hello{}, err
	}
	id, call, err := c.register()
	if err != nil {
		return Hello{}, err
	}
	c.sendMu.Lock()
	if !deadline.IsZero() {
		_ = c.raw.SetWriteDeadline(deadline)
	}
	err = WriteFrame(c.raw, Frame{Type: FramePing, ID: id})
	if !deadline.IsZero() {
		_ = c.raw.SetWriteDeadline(time.Time{})
	}
	c.sendMu.Unlock()
	if err != nil {
		c.abandon(id)
		c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
		return Hello{}, fmt.Errorf("%w: %v", ErrMuxClosed, err)
	}
	timeout, stop := deadlineTimer(deadline)
	defer stop()
	ev, err := c.wait(id, call, timeout)
	if err != nil {
		return Hello{}, err
	}
	if ev.frameType != FramePong {
		return Hello{}, fmt.Errorf("protocol: unexpected %d frame answering ping", ev.frameType)
	}
	h, ok := ev.msg.(Hello)
	if !ok {
		return Hello{}, fmt.Errorf("protocol: malformed pong payload %T", ev.msg)
	}
	return h, nil
}

// DoBatch sends a batch query and reassembles its streamed reply: one
// BatchItem per query in any completion order, closed by a stream end.
// Per-query failures land in the returned BatchReply.Errors; the error
// return is reserved for whole-batch and transport failures, and for a peer
// that answers with anything but the stream (a unary FrameMsg included).
func (c *MuxClient) DoBatch(b BatchQuery) (BatchReply, error) {
	return c.DoBatchDeadline(b, time.Time{})
}

// DoBatchDeadline is DoBatch with an absolute deadline (zero = none)
// stamped into the request envelope and bounding the streamed reply drain.
func (c *MuxClient) DoBatchDeadline(b BatchQuery, deadline time.Time) (BatchReply, error) {
	dl, err := deadlineNanos(deadline)
	if err != nil {
		return BatchReply{}, err
	}
	id, call, err := c.register()
	if err != nil {
		return BatchReply{}, err
	}
	if err := c.send(id, b, dl); err != nil {
		c.abandon(id)
		return BatchReply{}, err
	}
	timeout, stop := deadlineTimer(deadline)
	defer stop()
	reply := BatchReply{
		BatchID: b.BatchID,
		Replies: make([]ServerReply, len(b.Queries)),
		Errors:  make([]string, len(b.Queries)),
	}
	for {
		ev, werr := c.wait(id, call, timeout)
		if werr != nil {
			return BatchReply{}, werr
		}
		switch ev.frameType {
		case FrameStreamItem:
			item, ok := ev.msg.(BatchItem)
			if !ok {
				return BatchReply{}, fmt.Errorf("protocol: unexpected stream item %T", ev.msg)
			}
			if item.Index < 0 || item.Index >= len(b.Queries) {
				return BatchReply{}, fmt.Errorf("protocol: stream item index %d outside batch of %d", item.Index, len(b.Queries))
			}
			reply.Replies[item.Index] = item.Reply
			reply.Errors[item.Index] = item.Error
		case FrameStreamEnd:
			return reply, nil
		case FrameErr:
			if er, ok := ev.msg.(ErrorReply); ok {
				return BatchReply{}, &RemoteError{Msg: er.Message}
			}
			return BatchReply{}, &RemoteError{Msg: fmt.Sprintf("malformed error reply %T", ev.msg)}
		default:
			// Connection-level frames never reach a registered call; anything
			// else here is a peer protocol bug, not something to spin on.
			return BatchReply{}, fmt.Errorf("protocol: unexpected %d frame in batch reply stream", ev.frameType)
		}
	}
}

// ReqInfo carries per-request serving context to a MuxHandler.
type ReqInfo struct {
	// Shed is true when the connection is above its ShedAt watermark: the
	// handler should degrade the answer (distance-only evaluation) rather
	// than refuse it.
	Shed bool
	// Deadline is the request's absolute deadline (zero = none). The serve
	// loop already drops work whose deadline passed before evaluation began;
	// handlers may use the remaining budget to bound their own work.
	Deadline time.Time
}

// MuxHandler answers unary messages arriving on a multiplexed connection.
type MuxHandler interface {
	HandleMux(msg any, info ReqInfo) (any, error)
}

// MuxHandlerFunc adapts a function to MuxHandler.
type MuxHandlerFunc func(msg any, info ReqInfo) (any, error)

// HandleMux implements MuxHandler.
func (f MuxHandlerFunc) HandleMux(msg any, info ReqInfo) (any, error) { return f(msg, info) }

// MuxBatchStreamer is an optional MuxHandler extension for serving sides
// that stream batch replies: emit is called once per query as it completes
// (safe to call concurrently), and the transport closes the stream when
// HandleMuxBatch returns. Returning an error fails the whole batch with one
// FrameErr instead.
type MuxBatchStreamer interface {
	HandleMuxBatch(b BatchQuery, info ReqInfo, emit func(BatchItem)) error
}

// MuxServerConfig parameterises the serving side of the multiplexed
// transport.
type MuxServerConfig struct {
	// Hello produces the welcome sent to each connecting peer; re-evaluated
	// per connection so it carries the current generation. Nil sends a zero
	// Hello.
	Hello func() Hello
	// MaxInFlight caps concurrently executing requests per connection;
	// further frames stay unread (transport backpressure). <= 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// ShedAt is the admission-control watermark: when, counting itself, at
	// least ShedAt requests are in flight on the connection, the request is
	// marked for degradation (shed=true — servers answer distance-only from
	// the many-to-many engine instead of queueing full path unpacking).
	// 0 disables shedding; 1 sheds everything.
	ShedAt int
}

// DefaultMaxInFlight is the per-connection admission window used when
// MuxServerConfig.MaxInFlight is unset.
const DefaultMaxInFlight = 64

// muxServerConn is the serving side of one multiplexed connection.
type muxServerConn struct {
	raw    net.Conn
	sendMu sync.Mutex
	enc    *envelopeCodec
}

// reply writes one frame, serialising with all other writers on the
// connection.
func (sc *muxServerConn) reply(f FrameType, id uint64, msg any) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	var payload []byte
	if msg != nil {
		var err error
		payload, err = sc.enc.encode(msg, 0)
		if err != nil {
			return err
		}
	}
	return WriteFrame(sc.raw, Frame{Type: f, ID: id, Payload: payload})
}

// replyRaw writes one frame with a pre-encoded payload (a self-contained gob,
// like the handshake frames), bypassing the per-connection envelope stream.
func (sc *muxServerConn) replyRaw(f FrameType, id uint64, payload []byte) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	return WriteFrame(sc.raw, Frame{Type: f, ID: id, Payload: payload})
}

// ServeMuxConn serves one multiplexed connection: handshake, then one
// goroutine per request under the admission window, until the connection
// fails or closes. Handler errors are reported to the peer as FrameErr and
// do not terminate the connection.
func ServeMuxConn(raw net.Conn, h MuxHandler, cfg MuxServerConfig) error {
	defer raw.Close()
	f, err := ReadFrame(raw)
	if err != nil {
		return fmt.Errorf("%w: reading hello: %v", ErrHandshake, err)
	}
	if f.Type != FrameHello {
		return fmt.Errorf("%w: expected hello frame, got type %d", ErrHandshake, f.Type)
	}
	if _, err := decodeHello(f.Payload); err != nil {
		return fmt.Errorf("%w: decoding hello: %v", ErrHandshake, err)
	}
	var hello Hello
	if cfg.Hello != nil {
		hello = cfg.Hello()
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if hello.MaxInFlight == 0 {
		hello.MaxInFlight = maxInFlight
	}
	payload, err := encodeHello(hello)
	if err != nil {
		return fmt.Errorf("%w: encoding welcome: %v", ErrHandshake, err)
	}
	if err := WriteFrame(raw, Frame{Type: FrameWelcome, Payload: payload}); err != nil {
		return fmt.Errorf("%w: sending welcome: %v", ErrHandshake, err)
	}

	sc := &muxServerConn{raw: raw, enc: newEnvelopeCodec()}
	dec := newEnvelopeCodec()
	slots := make(chan struct{}, maxInFlight)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, err := ReadFrame(raw)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if f.Type == FrameGoAway {
			return nil
		}
		if f.Type == FramePing {
			// Answered inline, before the admission slot gate, so a shard
			// saturated with work still heartbeats. The pong carries a fresh
			// Hello — every probe refreshes the peer's view of our identity.
			var hello Hello
			if cfg.Hello != nil {
				hello = cfg.Hello()
			}
			if hello.MaxInFlight == 0 {
				hello.MaxInFlight = maxInFlight
			}
			payload, err := encodeHello(hello)
			if err != nil {
				return fmt.Errorf("protocol: encoding pong: %v", err)
			}
			if err := sc.replyRaw(FramePong, f.ID, payload); err != nil {
				return err
			}
			continue
		}
		if f.Type != FrameMsg {
			return fmt.Errorf("protocol: unexpected %d frame from mux peer", f.Type)
		}
		// Decode in read order — the per-direction gob stream demands it —
		// then hand off to a bounded worker.
		msg, dlNanos, err := dec.decode(f.Payload)
		if err != nil {
			return err
		}
		var deadline time.Time
		if dlNanos != 0 {
			deadline = time.Unix(0, dlNanos)
			if !time.Now().Before(deadline) {
				// Expired before admission: refuse without burning a slot.
				_ = sc.reply(FrameErr, f.ID, ErrorReply{Message: DeadlineExceededMsg})
				continue
			}
		}
		slots <- struct{}{} // blocks at MaxInFlight: transport backpressure
		n := inFlight.Add(1)
		shed := cfg.ShedAt > 0 && n >= int64(cfg.ShedAt)
		wg.Add(1)
		go func(id uint64, msg any, info ReqInfo) {
			defer func() {
				inFlight.Add(-1)
				<-slots
				wg.Done()
			}()
			if !info.Deadline.IsZero() && !time.Now().Before(info.Deadline) {
				// Expired while queued behind the slot gate: drop the work
				// instead of evaluating an answer nobody is waiting for.
				_ = sc.reply(FrameErr, id, ErrorReply{Message: DeadlineExceededMsg})
				return
			}
			if b, ok := msg.(BatchQuery); ok {
				if streamer, ok := h.(MuxBatchStreamer); ok {
					err := streamer.HandleMuxBatch(b, info, func(item BatchItem) {
						_ = sc.reply(FrameStreamItem, id, item)
					})
					if err != nil {
						_ = sc.reply(FrameErr, id, ErrorReply{RefID: b.BatchID, Message: err.Error()})
						return
					}
					_ = sc.reply(FrameStreamEnd, id, nil)
					return
				}
			}
			res, err := h.HandleMux(msg, info)
			if err != nil {
				_ = sc.reply(FrameErr, id, ErrorReply{Message: err.Error()})
				return
			}
			_ = sc.reply(FrameMsg, id, res)
		}(f.ID, msg, ReqInfo{Shed: shed, Deadline: deadline})
	}
}

// ServeMux accepts connections from ln and serves each as a multiplexed
// connection on its own goroutine until the listener closes. It returns the
// accept error that terminated the loop.
func ServeMux(ln net.Listener, h MuxHandler, cfg MuxServerConfig) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeMuxConn(raw, h, cfg)
		}()
	}
}
