package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
)

// maxFrameSize bounds a single frame on the wire (16 MiB). On the read
// side a larger length prefix indicates a corrupt stream and kills the
// connection; on the send side an oversized frame is rejected with
// ErrFrameTooLarge before any bytes are written, so the connection
// stays usable.
const maxFrameSize = 16 << 20

// MaxFrameSize is the TCP transport's wire limit for a single frame
// (including the logical-name header).
const MaxFrameSize = maxFrameSize

// pendingMax bounds the encoded frames an outbound connection holds for
// its writer. A sender whose frame would push the buffer past it waits
// until the writer takes the buffer, the backpressure a blocking Write
// gives; a larger frame waits for an empty buffer and goes out alone.
const pendingMax = 1 << 20

// readBufSize is an inbound connection's read buffer: one Read brings in
// every frame that fits, instead of two Reads per frame.
const readBufSize = 64 << 10

// TCPNode is the Transport of one process in a TCP deployment. A node
// listens on a single host:port and multiplexes any number of logical
// endpoints over it. Addresses have the form "host:port/logical".
//
// Frames are length-prefixed: 4-byte big-endian total length, 2-byte
// logical-name length, logical name, payload. Outbound connections are
// cached per remote host:port and re-dialled on demand after failures.
// Each outbound connection has one writer goroutine: Send encodes the
// frame into the connection's pending buffer and returns, and the writer
// hands everything pending to one Write, so frames sent while a Write is
// in progress leave together in the next. Send blocks while the pending
// buffer holds pendingMax (1 MiB). A failed Write drops the connection
// and the frames still pending with it, which counts as loss.
type TCPNode struct {
	listener net.Listener
	hostPort string

	mu        sync.Mutex
	endpoints map[string]*tcpEndpoint // keyed by logical name
	conns     map[string]*tcpConn     // keyed by remote host:port
	inbound   map[net.Conn]struct{}   // accepted connections
	closed    bool

	wg sync.WaitGroup

	framesSent, framesReceived atomic.Uint64
	writes, reads, sendWaits   atomic.Uint64
}

// TCPCounters reports a node's wire work since it started.
type TCPCounters struct {
	// FramesSent counts the frames queued on outbound connections and
	// FramesReceived the frames read off inbound ones (frames between
	// endpoints of this node never touch a connection).
	FramesSent, FramesReceived uint64
	// Writes counts the Write calls on outbound connections and Reads
	// the Read calls on inbound ones.
	Writes, Reads uint64
	// SendWaits counts the sends that found the pending buffer full and
	// waited for the writer.
	SendWaits uint64
}

// Counters returns the node's wire counters.
func (n *TCPNode) Counters() TCPCounters {
	return TCPCounters{
		FramesSent:     n.framesSent.Load(),
		FramesReceived: n.framesReceived.Load(),
		Writes:         n.writes.Load(),
		Reads:          n.reads.Load(),
		SendWaits:      n.sendWaits.Load(),
	}
}

// tcpConn is one outbound connection and the frames queued for its
// writer goroutine (writeLoop).
type tcpConn struct {
	conn net.Conn

	mu sync.Mutex
	// room is broadcast when the writer takes pending and when the
	// connection dies.
	room    sync.Cond
	pending []byte
	// err is why the connection died; nil while it is alive.
	err error
	// wake holds a token while pending is non-empty and the writer has
	// not taken it. It is sent to and closed under mu, so a send never
	// meets a closed channel.
	wake chan struct{}
}

func newTCPConn(conn net.Conn) *tcpConn {
	tc := &tcpConn{conn: conn, wake: make(chan struct{}, 1)}
	tc.room.L = &tc.mu
	return tc
}

// full reports whether a frame of size bytes must wait for the writer:
// the connection is alive and its pending frames leave no room for it.
// A frame larger than pendingMax fits once nothing is pending.
func (tc *tcpConn) full(size int) bool {
	return tc.err == nil && len(tc.pending) > 0 && len(tc.pending)+size > pendingMax
}

// kill marks the connection dead with cause err, releases its waiting
// senders, stops its writer and closes it. Only the first call counts.
func (tc *tcpConn) kill(err error) {
	tc.mu.Lock()
	if tc.err == nil {
		tc.err = err
		tc.pending = nil
		close(tc.wake)
		tc.room.Broadcast()
	}
	tc.mu.Unlock()
	_ = tc.conn.Close()
}

// NewTCPNode starts a node listening on the given host:port. Use ":0" to
// pick a free port; the effective address is available via HostPort.
func NewTCPNode(listen string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("tcp listen: %w", err)
	}
	n := &TCPNode{
		listener:  ln,
		hostPort:  ln.Addr().String(),
		endpoints: make(map[string]*tcpEndpoint),
		conns:     make(map[string]*tcpConn),
		inbound:   make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// HostPort returns the host:port this node listens on.
func (n *TCPNode) HostPort() string { return n.hostPort }

// Addr builds a full address for a logical endpoint on this node.
func (n *TCPNode) Addr(logical string) Addr {
	return Addr(n.hostPort + "/" + logical)
}

// Listen implements Transport. The address must name this node
// ("host:port/logical" with a matching host:port) or be a bare logical
// name, in which case it is resolved against this node.
func (n *TCPNode) Listen(addr Addr) (Endpoint, error) {
	hostPort, logical, err := splitTCPAddr(addr)
	if err != nil {
		return nil, err
	}
	if hostPort == "" {
		hostPort = n.hostPort
	}
	if hostPort != n.hostPort {
		return nil, fmt.Errorf("listen on %q: node is %q: %w", addr, n.hostPort, ErrNoRoute)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[logical]; ok {
		return nil, ErrDuplicateAddr
	}
	ep := &tcpEndpoint{
		node:    n,
		addr:    Addr(hostPort + "/" + logical),
		logical: logical,
		queue:   newFrameQueue(),
	}
	n.endpoints[logical] = ep
	return ep, nil
}

// Send implements Transport.
func (n *TCPNode) Send(to Addr, frame []byte) error {
	hostPort, logical, err := splitTCPAddr(to)
	if err != nil {
		return err
	}
	if hostPort == "" || hostPort == n.hostPort {
		return n.deliverLocal(logical, frame)
	}
	return n.sendRemote(hostPort, logical, frame)
}

func (n *TCPNode) deliverLocal(logical string, frame []byte) error {
	n.mu.Lock()
	ep, ok := n.endpoints[logical]
	n.mu.Unlock()
	if !ok {
		return ErrNoRoute
	}
	if !ep.queue.push(frame) {
		return ErrClosed
	}
	return nil
}

func (n *TCPNode) sendRemote(hostPort, logical string, frame []byte) error {
	if 2+len(logical)+len(frame) > maxFrameSize {
		// Reject before writing: a frame this large would make the
		// receiver's readLoop kill the connection as corrupt.
		return fmt.Errorf("tcp send to %s: frame %d bytes: %w", hostPort, len(frame), ErrFrameTooLarge)
	}
	tc, err := n.getConn(hostPort)
	if err != nil {
		return err
	}
	size := 6 + len(logical) + len(frame)
	tc.mu.Lock()
	if tc.full(size) {
		n.sendWaits.Add(1)
		for tc.full(size) {
			tc.room.Wait()
		}
	}
	if tc.err != nil {
		err := tc.err
		tc.mu.Unlock()
		return fmt.Errorf("tcp send to %s: %w", hostPort, err)
	}
	if len(tc.pending) == 0 {
		select {
		case tc.wake <- struct{}{}:
		default:
		}
	}
	tc.pending = binary.BigEndian.AppendUint32(tc.pending, uint32(2+len(logical)+len(frame)))
	tc.pending = binary.BigEndian.AppendUint16(tc.pending, uint16(len(logical)))
	tc.pending = append(tc.pending, logical...)
	tc.pending = append(tc.pending, frame...)
	tc.mu.Unlock()
	n.framesSent.Add(1)
	return nil
}

// writeLoop is tc's writer: on each wake it takes the whole pending
// buffer, leaving the one it wrote last in its place, and hands it to
// one Write. It returns when the connection dies.
func (n *TCPNode) writeLoop(hostPort string, tc *tcpConn) {
	var spare []byte
	for range tc.wake {
		tc.mu.Lock()
		if tc.err != nil {
			tc.mu.Unlock()
			return
		}
		buf := tc.pending
		tc.pending = spare[:0]
		tc.room.Broadcast()
		tc.mu.Unlock()

		n.writes.Add(1)
		if _, err := tc.conn.Write(buf); err != nil {
			n.dropConn(hostPort, tc, err)
			return
		}
		// Keep a buffer one oversized frame grew for no longer than it
		// takes to write it.
		if cap(buf) > pendingMax {
			buf = nil
		}
		spare = buf
	}
}

func (n *TCPNode) getConn(hostPort string) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if tc, ok := n.conns[hostPort]; ok {
		n.mu.Unlock()
		return tc, nil
	}
	n.mu.Unlock()

	conn, err := net.Dial("tcp", hostPort)
	if err != nil {
		return nil, fmt.Errorf("tcp dial %s: %w", hostPort, err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = conn.Close()
		return nil, ErrClosed
	}
	if tc, ok := n.conns[hostPort]; ok {
		// Lost the race; keep the existing connection.
		_ = conn.Close()
		return tc, nil
	}
	tc := newTCPConn(conn)
	n.conns[hostPort] = tc
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		pprof.Do(context.Background(), pprof.Labels("role", "tcp_writer"), func(context.Context) {
			n.writeLoop(hostPort, tc)
		})
	}()
	return tc, nil
}

func (n *TCPNode) dropConn(hostPort string, tc *tcpConn, err error) {
	n.mu.Lock()
	if n.conns[hostPort] == tc {
		delete(n.conns, hostPort)
	}
	n.mu.Unlock()
	tc.kill(err)
}

// Close implements Transport.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*tcpEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = make(map[string]*tcpEndpoint)
	conns := n.conns
	n.conns = make(map[string]*tcpConn)
	inbound := n.inbound
	n.inbound = make(map[net.Conn]struct{})
	n.mu.Unlock()

	_ = n.listener.Close()
	for _, tc := range conns {
		tc.kill(ErrClosed)
	}
	for conn := range inbound {
		_ = conn.Close()
	}
	n.wg.Wait()
	for _, ep := range eps {
		ep.queue.close()
	}
	return nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReaderSize(countingReader{conn, &n.reads}, readBufSize)
	var header [4]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(header[:])
		if size < 2 || size > maxFrameSize {
			return
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		n.framesReceived.Add(1)
		nameLen := int(binary.BigEndian.Uint16(body[:2]))
		if 2+nameLen > len(body) {
			return
		}
		logical := string(body[2 : 2+nameLen])
		frame := body[2+nameLen:]
		// Frames for unknown endpoints are dropped, like loss.
		_ = n.deliverLocal(logical, frame)
	}
}

// countingReader counts the Read calls that reach an inbound connection.
type countingReader struct {
	r     io.Reader
	reads *atomic.Uint64
}

func (c countingReader) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.r.Read(p)
}

var _ Transport = (*TCPNode)(nil)

type tcpEndpoint struct {
	node    *TCPNode
	addr    Addr
	logical string
	queue   *frameQueue

	closeOnce sync.Once
}

func (e *tcpEndpoint) Addr() Addr          { return e.addr }
func (e *tcpEndpoint) Recv() <-chan []byte { return e.queue.out }

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.node.mu.Lock()
		if e.node.endpoints[e.logical] == e {
			delete(e.node.endpoints, e.logical)
		}
		e.node.mu.Unlock()
		e.queue.close()
	})
	return nil
}

var _ Endpoint = (*tcpEndpoint)(nil)

// splitTCPAddr splits "host:port/logical" into its parts. Logical
// names may themselves contain slashes ("g0/coord0"), so the host:port
// prefix is recognised by its colon: an address whose first segment
// has no colon is a bare logical name on this node.
func splitTCPAddr(addr Addr) (hostPort, logical string, err error) {
	s := string(addr)
	i := strings.IndexByte(s, '/')
	if i < 0 || !strings.Contains(s[:i], ":") {
		return "", s, nil
	}
	hostPort, logical = s[:i], s[i+1:]
	if logical == "" {
		return "", "", errors.New("transport: empty logical name in " + s)
	}
	return hostPort, logical, nil
}
