// Package transport provides the message-passing substrate used by every
// protocol in this repository: an in-process simulated network with fault
// injection (used by tests, benchmarks and the in-process cluster) and a
// TCP transport with length-prefixed frames (used by the cmd/ daemons).
// The TCP transport gives each outbound connection one writer goroutine
// that sends every frame queued since its last write in one write, and
// reads inbound connections through a buffer, so a burst of frames
// costs a few system calls rather than one or two per frame. A sender
// blocks while 1 MiB is queued on its connection, and a failed write
// drops the connection and the frames queued on it, which counts as
// loss.
//
// All protocols are written against the Transport/Endpoint interfaces and
// never assume reliable or ordered delivery beyond what the implementation
// documents: frames may be dropped, delayed or duplicated by a faulty
// in-process network, and TCP connections may fail. Protocol correctness
// under loss is the job of the protocol (retransmission in Paxos and in
// the client proxies), not of the transport.
package transport

import "errors"

// Addr identifies a logical endpoint. The in-process network treats the
// address as an opaque key. The TCP transport expects the form
// "host:port/logical", where host:port names the owning process and
// logical names the endpoint within it.
type Addr string

// Errors returned by transports.
var (
	// ErrClosed is returned when sending through or listening on a
	// transport that has been closed.
	ErrClosed = errors.New("transport: closed")
	// ErrDuplicateAddr is returned by Listen when the address is taken.
	ErrDuplicateAddr = errors.New("transport: address already in use")
	// ErrNoRoute is returned when the destination cannot be resolved.
	ErrNoRoute = errors.New("transport: no route to address")
	// ErrFrameTooLarge is returned by Send when a frame exceeds the
	// transport's wire limit (see MaxFrameSize); nothing is written and
	// the connection remains usable.
	ErrFrameTooLarge = errors.New("transport: frame exceeds wire limit")
)

// Transport sends frames between logical endpoints.
//
// Send is asynchronous and best-effort: a nil error means the frame was
// accepted for delivery, not that it arrived. Implementations must be
// safe for concurrent use.
type Transport interface {
	// Listen registers a logical endpoint and returns it. The endpoint
	// receives every frame addressed to addr from that point on.
	Listen(addr Addr) (Endpoint, error)
	// Send enqueues one frame for delivery to the endpoint listening on
	// the destination address. The caller retains ownership of nothing:
	// the frame must not be modified after Send returns.
	Send(to Addr, frame []byte) error
	// Close releases the transport and closes all endpoints created
	// through it.
	Close() error
}

// Endpoint is a registered receiver of frames.
type Endpoint interface {
	// Addr returns the address this endpoint is listening on.
	Addr() Addr
	// Recv returns the channel of inbound frames. The channel is closed
	// when the endpoint is closed.
	Recv() <-chan []byte
	// Close unregisters the endpoint and closes its receive channel.
	Close() error
}
