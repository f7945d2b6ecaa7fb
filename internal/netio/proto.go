package netio

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"bohr/internal/engine"
	"bohr/internal/obs"
)

// MsgType discriminates wire messages.
type MsgType uint8

// The protocol's message types. Requests flow controller→worker or
// worker→worker (transfers); every request gets exactly one response.
const (
	MsgHello MsgType = iota + 1
	MsgHelloOK
	MsgPut // store records for a dataset
	MsgPutOK
	MsgStats // dataset statistics + probe cells
	MsgStatsOK
	MsgScore // score a probe against local data
	MsgScoreOK
	MsgMove // select records and push them to a peer
	MsgMoveOK
	MsgTransfer // records arriving from a peer (movement)
	MsgTransferOK
	MsgRunMap // run map+combine and scatter intermediate to peers
	MsgRunMapOK
	MsgIntermediate // intermediate records arriving for a query
	MsgIntermediateOK
	MsgReduce // combine received intermediate, return output
	MsgReduceOK
	MsgErr
)

// ErrCode classifies a worker-reported error so callers can tell transient
// failures (worth retrying) from requests that can never succeed.
type ErrCode uint8

const (
	// CodeUnknown is the zero value: an unclassified error.
	CodeUnknown ErrCode = iota
	// CodeBadRequest marks a malformed request (unknown message type,
	// inconsistent fields). Resending the same bytes cannot help.
	CodeBadRequest
	// CodeNotFound marks a request naming a dataset, schema, or dimension
	// the worker does not hold. Fatal for this request.
	CodeNotFound
	// CodeUnavailable marks a transient dependency failure: a peer push
	// failed, intermediates have not arrived, the worker is shutting
	// down. Retrying later may succeed.
	CodeUnavailable
)

func (c ErrCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeNotFound:
		return "not-found"
	case CodeUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// RemoteError is a typed error from a worker: which site failed, which
// request it was serving, and whether a retry can help.
type RemoteError struct {
	Site int
	Req  MsgType
	Code ErrCode
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netio: site %d (req=%d, %s): %s", e.Site, e.Req, e.Code, e.Msg)
}

// Retryable reports whether the same request could succeed later.
func (e *RemoteError) Retryable() bool { return e.Code == CodeUnavailable }

// IsRetryable reports whether err is worth retrying: an unavailable
// RemoteError, or any transport-level failure (timeouts, refused or reset
// connections, mid-stream EOF — the peer may come back).
func IsRetryable(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Retryable()
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// QueryDTO is the wire form of a query: functions cannot travel over gob,
// so live queries are restricted to projection + combine (the scan /
// aggregation classes), which is what the SQL front end produces anyway.
type QueryDTO struct {
	ID      string
	Dataset string
	// Dims are the schema attributes to project the key onto (empty keeps
	// the full key).
	Dims    []string
	Combine engine.CombineOp
}

// ProbeCellDTO is one probe record on the wire: a cell of the sender's
// column, its projected key and record count.
type ProbeCellDTO = engine.Cell

// Envelope is the single wire message shape. Only the fields relevant to
// Type are populated.
type Envelope struct {
	Type    MsgType
	Site    int
	Dataset string
	Schema  []string
	Records []engine.KV
	Query   QueryDTO
	// TaskFrac drives intermediate scattering during RunMap.
	TaskFrac []float64
	// Peers maps site index → dial address.
	Peers []string
	// Cells carries probe cells (MsgStats response, MsgScore request).
	Cells []ProbeCellDTO
	// Dims selects the projection for stats/probes.
	Dims []string
	// TopK bounds the probe cells returned by MsgStats.
	TopK int
	// Count carries record counts (move size, expected intermediates...).
	Count int
	// Dst is the destination address for MsgMove.
	Dst string
	// Similar selects similarity-aware record selection for MsgMove.
	Similar bool
	// Score is the similarity score (MsgScoreOK).
	Score float64
	// Expected is the number of intermediate records the reducer must
	// have received before reducing (MsgReduce).
	Expected int
	// PerSite carries per-site record counts (MsgRunMapOK: how many
	// intermediate records were routed to each site).
	PerSite []int
	// Err carries the error text for MsgErr.
	Err string
	// Code classifies MsgErr responses (see ErrCode).
	Code ErrCode
	// TimeoutS bounds the server-side wait for MsgReduce, in seconds.
	// Zero keeps the worker's default.
	TimeoutS float64

	// TraceID propagates the distributed trace context (requests): a
	// non-empty TraceID asks the worker to record a span subtree and a
	// per-request metric snapshot for this request and ship both back in
	// its response. Workers forward the context on the peer pushes a
	// request triggers (scatter, move transfer), so a response subtree
	// can itself contain grafted peer subtrees.
	TraceID string
	// ParentSpan names the requester-side span the response subtree will
	// be grafted under (diagnostic context carried with the trace).
	ParentSpan string
	// TraceWall asks the worker to stamp wall-clock durations on its
	// spans; set when the requesting collector was built with
	// obs.WithWallClock. Without it the shipped subtree carries structure
	// and byte/record metrics only, keeping traced runs deterministic.
	TraceWall bool
	// Trace is the worker's finished span subtree for this request
	// (responses to traced requests).
	Trace *obs.Span
	// Metrics is the worker's per-request metric snapshot — bytes moved
	// per peer, record counts — merged into the requester's collector
	// (responses to traced requests).
	Metrics *obs.Snapshot
}

// maxMsgBytes bounds a single message to keep a misbehaving peer from
// exhausting memory.
const maxMsgBytes = 64 << 20

// WriteMsg writes one length-prefixed gob-encoded envelope.
func WriteMsg(w io.Writer, env *Envelope) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("netio: encode: %w", err)
	}
	if buf.Len() > maxMsgBytes {
		return fmt.Errorf("netio: message of %d bytes exceeds limit", buf.Len())
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("netio: write header: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("netio: write body: %w", err)
	}
	return nil
}

// ReadMsg reads one length-prefixed envelope.
func ReadMsg(r io.Reader) (*Envelope, error) {
	env, _, err := readMsgTimed(r)
	return env, err
}

// readMsgTimed is ReadMsg plus the gob-decode duration, measured apart
// from the socket read so workers can attribute a "deserialize" span to
// traced requests without charging it the idle wait for the frame.
func readMsgTimed(r io.Reader) (*Envelope, time.Duration, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err // io.EOF propagates cleanly for connection close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMsgBytes {
		return nil, 0, fmt.Errorf("netio: message of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("netio: read body: %w", err)
	}
	env := &Envelope{}
	start := time.Now()
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(env); err != nil {
		return nil, 0, fmt.Errorf("netio: decode: %w", err)
	}
	return env, time.Since(start), nil
}

// call sends a request and reads the single response, translating MsgErr.
func call(rw io.ReadWriter, req *Envelope) (*Envelope, error) {
	if err := WriteMsg(rw, req); err != nil {
		return nil, err
	}
	resp, err := ReadMsg(rw)
	if err != nil {
		return nil, err
	}
	if resp.Type == MsgErr {
		return nil, &RemoteError{Site: resp.Site, Req: req.Type, Code: resp.Code, Msg: resp.Err}
	}
	return resp, nil
}
