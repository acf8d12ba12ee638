// Package protocol defines the messages exchanged between the three OPAQUE
// roles (client, obfuscator, directions search server) and the transport that
// carries them: the OPMX1 multiplexed framed transport (frame.go, mux.go),
// which every networked hop of the cmd/ binaries speaks over TCP and
// in-process harnesses drive over net.Pipe.
//
// The message boundary mirrors Figure 6 of the paper:
//
//	client      → obfuscator : ClientRequest  ⟨u, (s,t), fS, fT⟩   (secure channel)
//	obfuscator  → server     : ServerQuery    Q(S, T)
//	server      → obfuscator : ServerReply    candidate result paths
//	obfuscator  → client     : ClientReply    P(s, t)
//
// On top of the per-query exchange, BatchQuery carries a whole batch of
// obfuscated queries in one round trip, answered by one BatchItem per query,
// so a networked obfuscator can hand the server's batch engine an entire
// obfuscation plan (all Q(S, T) of one batching window) and amortise both
// framing and evaluation.
package protocol

import (
	"fmt"

	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// MessageType tags a framed message on the wire.
type MessageType uint8

// Message type constants.
const (
	TypeClientRequest MessageType = iota + 1
	TypeClientReply
	TypeServerQuery
	TypeServerReply
	TypeError
	TypeBatchQuery
	// TypeBatchReply is reserved: batch replies stream as BatchItem frames
	// and never travel as one message. The value stays so later type
	// numbers do not shift.
	TypeBatchReply
	TypeBatchItem
	TypeWeightUpdate
	TypeWeightUpdateAck
)

// ClientRequest is the client-to-obfuscator request over the secure channel.
type ClientRequest struct {
	RequestID uint64
	User      string
	Source    roadnet.NodeID
	Dest      roadnet.NodeID
	FS        int
	FT        int
	// Profile optionally names a server-side weight profile (a precustomized
	// time-of-day metric, e.g. "am-peak") the query should be answered under.
	// Empty means the live metric.
	Profile string
}

// ClientReply is the obfuscator-to-client answer: the requested path.
type ClientReply struct {
	RequestID uint64
	Found     bool
	Path      []roadnet.NodeID
	Cost      float64
	// Error carries a human-readable failure description when Found is
	// false because of an error (as opposed to an unreachable destination).
	Error string
}

// ServerQuery is one obfuscated path query Q(S, T) sent to the server. It
// deliberately carries no user identifiers: the server must not learn who is
// asking, only the anonymised endpoint sets.
type ServerQuery struct {
	QueryID uint64
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Profile optionally routes the query to a named precustomized weight
	// profile layer instead of the live metric. The profile name is regime
	// information ("plan for the morning peak"), not user identity: every
	// member of a shared query necessarily travels under the same profile,
	// so it reveals nothing about who is inside the query.
	Profile string
	// DistanceOnly asks for the |S|×|T| cost table without materialised node
	// sequences — the degraded answer an overloaded server sheds to (the
	// many-to-many engine computes it without unpacking a single path). The
	// multiplexed transport sets it on admission-control shedding; replies
	// to such queries carry Degraded.
	DistanceOnly bool
}

// CandidatePath is one (s, t, path) triple of a ServerReply.
type CandidatePath struct {
	Source roadnet.NodeID
	Dest   roadnet.NodeID
	Nodes  []roadnet.NodeID
	Cost   float64
	Found  bool
}

// ServerReply returns every candidate result path of one obfuscated query.
type ServerReply struct {
	QueryID uint64
	Paths   []CandidatePath
	// SettledNodes and PageFaults let experiments observe the server-side
	// cost without another channel; a production server would omit them.
	// PageFaults is exact under sequential evaluation and an upper bound
	// when the query overlapped others in a batch (the buffer pool's fault
	// counter is shared across in-flight queries).
	SettledNodes int
	PageFaults   int64
	// Generation and ContentSum identify the metric this reply was computed
	// under: the server's data generation and the weight-content checksum of
	// the graph snapshot served. The fleet router refuses to merge partial
	// tables whose ContentSums differ (or are 0 = unknown — the server could
	// not pin a stable identity because an update raced the evaluation), so
	// a distributed answer never mixes generations across shards. Generation
	// numbers are per-server and not comparable across shards; ContentSum
	// is content-derived and is. Profile replies carry Generation 0 (profile
	// metrics never change); a reply whose identity an update raced carries
	// 0 in both.
	Generation uint64
	ContentSum uint64
	// Profile echoes the weight profile the query was answered under ("" =
	// live metric); the router refuses to merge partials whose echoed
	// profiles differ.
	Profile string
	// Degraded marks a distance-only reply: admission control shed the query
	// to the many-to-many distance table and no node sequences were
	// materialised (every CandidatePath has nil Nodes).
	Degraded bool
}

// BatchQuery carries several obfuscated path queries to the server in one
// message, to be evaluated concurrently by the server's batch engine. Like
// ServerQuery it carries no user identifiers.
type BatchQuery struct {
	BatchID uint64
	Queries []ServerQuery
}

// BatchReply is a BatchQuery answer as MuxClient.DoBatch reassembles it from
// the streamed items: one reply per query, in query order. Queries that
// failed individually have their error message in Errors at the same index
// (empty string = success) rather than failing the whole batch.
type BatchReply struct {
	BatchID uint64
	Replies []ServerReply
	Errors  []string
}

// BatchItem is one query's result of a streaming batch reply: the
// multiplexed transport sends one BatchItem frame per query as it completes
// instead of buffering the whole BatchReply. Index is the query's position in
// the originating BatchQuery; Error carries the per-query failure ("" =
// success), mirroring BatchReply.Errors.
type BatchItem struct {
	BatchID uint64
	Index   int
	Reply   ServerReply
	Error   string
}

// WeightUpdate carries live arc weight changes to a server (or to the fleet
// router, which broadcasts them to every shard and replays the cumulative
// state to shards that reconnect). The changes flow into
// Server.UpdateWeights: snapshot swap, cache invalidation, background
// overlay re-customization.
type WeightUpdate struct {
	UpdateID uint64
	Changes  []roadnet.ArcWeightChange
}

// WeightUpdateAck acknowledges a WeightUpdate with the server's post-apply
// data generation and weight-content checksum — what the fleet router uses
// to observe shards converging on one metric.
type WeightUpdateAck struct {
	UpdateID   uint64
	Generation uint64
	ContentSum uint64
}

// ErrorReply reports a failure processing a query or request.
type ErrorReply struct {
	RefID   uint64
	Message string
}

// PathFromCandidate converts a wire CandidatePath back to a search.Path.
func PathFromCandidate(c CandidatePath) search.Path {
	if !c.Found {
		return search.Path{}
	}
	return search.Path{Nodes: append([]roadnet.NodeID(nil), c.Nodes...), Cost: c.Cost}
}

// CandidateFromPath converts a search.Path to its wire form for the pair
// (s, t).
func CandidateFromPath(s, t roadnet.NodeID, p search.Path) CandidatePath {
	return CandidatePath{
		Source: s,
		Dest:   t,
		Nodes:  append([]roadnet.NodeID(nil), p.Nodes...),
		Cost:   p.Cost,
		Found:  !p.Empty(),
	}
}

// Envelope wraps any protocol message with its type tag for gob framing.
type Envelope struct {
	Type MessageType
	// Deadline is the request's absolute deadline in Unix nanoseconds (0 =
	// none). It rides in the envelope so every hop of a multiplexed chain
	// (obfuscator → router → shard) sees the same wall-clock budget: the
	// serving side drops work whose deadline expired before evaluation
	// started instead of burning cycles on an answer nobody is waiting for.
	Deadline  int64
	Request   *ClientRequest
	Reply     *ClientReply
	Query     *ServerQuery
	Result    *ServerReply
	Batch     *BatchQuery
	BatchItem *BatchItem
	Update    *WeightUpdate
	UpdateAck *WeightUpdateAck
	Err       *ErrorReply
}

// Wrap builds an Envelope from a concrete message. It returns an error for
// unsupported message types.
func Wrap(msg any) (Envelope, error) {
	switch m := msg.(type) {
	case ClientRequest:
		return Envelope{Type: TypeClientRequest, Request: &m}, nil
	case *ClientRequest:
		return Envelope{Type: TypeClientRequest, Request: m}, nil
	case ClientReply:
		return Envelope{Type: TypeClientReply, Reply: &m}, nil
	case *ClientReply:
		return Envelope{Type: TypeClientReply, Reply: m}, nil
	case ServerQuery:
		return Envelope{Type: TypeServerQuery, Query: &m}, nil
	case *ServerQuery:
		return Envelope{Type: TypeServerQuery, Query: m}, nil
	case ServerReply:
		return Envelope{Type: TypeServerReply, Result: &m}, nil
	case *ServerReply:
		return Envelope{Type: TypeServerReply, Result: m}, nil
	case BatchQuery:
		return Envelope{Type: TypeBatchQuery, Batch: &m}, nil
	case *BatchQuery:
		return Envelope{Type: TypeBatchQuery, Batch: m}, nil
	case BatchItem:
		return Envelope{Type: TypeBatchItem, BatchItem: &m}, nil
	case *BatchItem:
		return Envelope{Type: TypeBatchItem, BatchItem: m}, nil
	case WeightUpdate:
		return Envelope{Type: TypeWeightUpdate, Update: &m}, nil
	case *WeightUpdate:
		return Envelope{Type: TypeWeightUpdate, Update: m}, nil
	case WeightUpdateAck:
		return Envelope{Type: TypeWeightUpdateAck, UpdateAck: &m}, nil
	case *WeightUpdateAck:
		return Envelope{Type: TypeWeightUpdateAck, UpdateAck: m}, nil
	case ErrorReply:
		return Envelope{Type: TypeError, Err: &m}, nil
	case *ErrorReply:
		return Envelope{Type: TypeError, Err: m}, nil
	default:
		return Envelope{}, fmt.Errorf("protocol: unsupported message type %T", msg)
	}
}

// Unwrap returns the concrete message held by the envelope.
func (e Envelope) Unwrap() (any, error) {
	switch e.Type {
	case TypeClientRequest:
		if e.Request == nil {
			return nil, fmt.Errorf("protocol: client request envelope without payload")
		}
		return *e.Request, nil
	case TypeClientReply:
		if e.Reply == nil {
			return nil, fmt.Errorf("protocol: client reply envelope without payload")
		}
		return *e.Reply, nil
	case TypeServerQuery:
		if e.Query == nil {
			return nil, fmt.Errorf("protocol: server query envelope without payload")
		}
		return *e.Query, nil
	case TypeServerReply:
		if e.Result == nil {
			return nil, fmt.Errorf("protocol: server reply envelope without payload")
		}
		return *e.Result, nil
	case TypeBatchQuery:
		if e.Batch == nil {
			return nil, fmt.Errorf("protocol: batch query envelope without payload")
		}
		return *e.Batch, nil
	case TypeBatchItem:
		if e.BatchItem == nil {
			return nil, fmt.Errorf("protocol: batch item envelope without payload")
		}
		return *e.BatchItem, nil
	case TypeWeightUpdate:
		if e.Update == nil {
			return nil, fmt.Errorf("protocol: weight update envelope without payload")
		}
		return *e.Update, nil
	case TypeWeightUpdateAck:
		if e.UpdateAck == nil {
			return nil, fmt.Errorf("protocol: weight update ack envelope without payload")
		}
		return *e.UpdateAck, nil
	case TypeError:
		if e.Err == nil {
			return nil, fmt.Errorf("protocol: error envelope without payload")
		}
		return *e.Err, nil
	default:
		return nil, fmt.Errorf("protocol: unknown message type %d", e.Type)
	}
}
