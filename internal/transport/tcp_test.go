package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func newTestNode(t *testing.T) *TCPNode {
	t.Helper()
	n, err := NewTCPNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPNode: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestTCPLocalDelivery(t *testing.T) {
	n := newTestNode(t)
	ep, err := n.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := n.Send(n.Addr("svc"), []byte("local")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := string(recvOne(t, ep)); got != "local" {
		t.Fatalf("recv = %q", got)
	}
}

func TestTCPRemoteDelivery(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	ep, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 100_000)
	if err := a.Send(b.Addr("svc"), payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := recvOne(t, ep)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestTCPManyFramesOrdered(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	ep, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const count = 2000
	for i := 0; i < count; i++ {
		frame := []byte{byte(i), byte(i >> 8)}
		if err := a.Send(b.Addr("svc"), frame); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		frame := recvOne(t, ep)
		if got := int(frame[0]) | int(frame[1])<<8; got != i {
			t.Fatalf("frame %d out of order: got %d", i, got)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	epA, err := a.Listen("svc")
	if err != nil {
		t.Fatalf("Listen a: %v", err)
	}
	epB, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen b: %v", err)
	}
	if err := a.Send(b.Addr("svc"), []byte("ping")); err != nil {
		t.Fatalf("Send ping: %v", err)
	}
	if got := string(recvOne(t, epB)); got != "ping" {
		t.Fatalf("b recv = %q", got)
	}
	if err := b.Send(a.Addr("svc"), []byte("pong")); err != nil {
		t.Fatalf("Send pong: %v", err)
	}
	if got := string(recvOne(t, epA)); got != "pong" {
		t.Fatalf("a recv = %q", got)
	}
}

func TestTCPUnknownLogicalDropped(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	// Nothing listening on "ghost": the frame must be silently dropped
	// without killing the connection.
	if err := a.Send(b.Addr("ghost"), []byte("lost")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ep, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := a.Send(b.Addr("svc"), []byte("ok")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := string(recvOne(t, ep)); got != "ok" {
		t.Fatalf("recv = %q", got)
	}
}

func TestTCPSendToDeadNode(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	addr := b.Addr("svc")
	if err := b.Close(); err != nil {
		t.Fatalf("Close b: %v", err)
	}
	// Dial fails or the write eventually errors; either way Send must
	// not hang and should eventually report a problem.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(addr, []byte("x")); err != nil {
			return
		}
	}
	t.Fatal("Send to dead node never returned an error")
}

func TestTCPListenWrongHost(t *testing.T) {
	a := newTestNode(t)
	if _, err := a.Listen("1.2.3.4:9/svc"); err == nil {
		t.Fatal("Listen on foreign host:port succeeded, want error")
	}
}

func TestSplitTCPAddr(t *testing.T) {
	tests := []struct {
		give         Addr
		wantHostPort string
		wantLogical  string
		wantErr      bool
	}{
		{give: "127.0.0.1:80/a", wantHostPort: "127.0.0.1:80", wantLogical: "a"},
		{give: "bare", wantHostPort: "", wantLogical: "bare"},
		{give: "g0/coord0", wantHostPort: "", wantLogical: "g0/coord0"},
		{give: "h:1/a/b", wantHostPort: "h:1", wantLogical: "a/b"},
		{give: "h:1/", wantErr: true},
	}
	for _, tt := range tests {
		hostPort, logical, err := splitTCPAddr(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("splitTCPAddr(%q): no error", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("splitTCPAddr(%q): %v", tt.give, err)
			continue
		}
		if hostPort != tt.wantHostPort || logical != tt.wantLogical {
			t.Errorf("splitTCPAddr(%q) = (%q, %q), want (%q, %q)",
				tt.give, hostPort, logical, tt.wantHostPort, tt.wantLogical)
		}
	}
}

// stallWriter connects n to a raw peer that does not read, with a small
// send buffer, and sends it an 8 MiB frame. It returns once n's writer
// is inside the Write of that frame: the Write cannot finish until the
// peer reads, so every frame sent meanwhile stays pending. read restores
// the send buffer and returns the peer's side of the connection.
func stallWriter(t *testing.T, n *TCPNode) (to Addr, first []byte, read func() *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	// Cleanups run last in, first out: the listener closes first, so an
	// Accept that never returned cannot hold up this receive.
	t.Cleanup(func() {
		if conn, ok := <-accepted; ok {
			_ = conn.Close()
		}
	})
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		defer close(accepted)
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	hostPort := ln.Addr().String()
	tc, err := n.getConn(hostPort)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.conn.(*net.TCPConn).SetWriteBuffer(32 << 10); err != nil {
		t.Fatal(err)
	}
	to, first = Addr(hostPort+"/sink"), pattern(0, 8<<20)
	if err := n.Send(to, first); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.Counters().Writes == 1 }, "the writer takes the first frame")

	read = func() *bufio.Reader {
		t.Helper()
		conn, ok := <-accepted
		if !ok {
			t.Fatal("raw peer accepted no connection")
		}
		t.Cleanup(func() { _ = conn.Close() })
		// A small send buffer waits out a delayed ACK per buffer.
		_ = tc.conn.(*net.TCPConn).SetWriteBuffer(4 << 20)
		if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return bufio.NewReader(conn)
	}
	return to, first, read
}

// readRawFrame reads one frame off the wire and returns its payload.
func readRawFrame(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	var header [6]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(header[:4])-2)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return body[binary.BigEndian.Uint16(header[4:]):]
}

// waitUntil yields until cond holds, failing after a hang timeout.
func waitUntil(t *testing.T, cond func() bool, desc string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", desc)
		}
		runtime.Gosched()
	}
}

// pattern returns size bytes that differ from those of another seed.
func pattern(seed, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// Frames sent while a Write is in progress leave together: 1 000 frames
// from 4 goroutines queued behind a stalled 8 MiB Write go out in at most
// 3 more Writes, byte-identical and in each sender's order.
func TestTCPWriterCoalescesBurst(t *testing.T) {
	n := newTestNode(t)
	to, first, read := stallWriter(t, n)

	const senders, perSender = 4, 250
	frame := func(s, i int) []byte {
		return append([]byte{byte(s), byte(i), byte(i >> 8)}, pattern(s+i, 20+i%50)...)
	}
	errs := make(chan error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := n.Send(to, frame(s, i)); err != nil {
					errs <- fmt.Errorf("sender %d frame %d: %w", s, i, err)
					return
				}
			}
		}(s)
	}
	queued := make(chan struct{})
	go func() {
		wg.Wait()
		close(queued)
	}()
	select {
	case <-queued:
	case <-time.After(10 * time.Second):
		t.Fatalf("senders blocked behind the stalled Write after %d sends waited", n.Counters().SendWaits)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	r := read()
	if got := readRawFrame(t, r); !bytes.Equal(got, first) {
		t.Fatalf("first frame: %d bytes, not the 8 MiB frame sent", len(got))
	}
	var next [senders]int
	for k := 0; k < senders*perSender; k++ {
		got := readRawFrame(t, r)
		s, i := int(got[0]), int(got[1])|int(got[2])<<8
		if s >= senders || i != next[s] {
			t.Fatalf("frame %d is sender %d's frame %d, want its frame %d", k, s, i, next[s])
		}
		if !bytes.Equal(got, frame(s, i)) {
			t.Fatalf("sender %d frame %d corrupted", s, i)
		}
		next[s]++
	}
	c := n.Counters()
	if c.FramesSent != 1+senders*perSender || c.Writes > 1+3 {
		t.Fatalf("%d frames went out in %d writes, want %d in at most 4", c.FramesSent, c.Writes, 1+senders*perSender)
	}
}

// Close releases a sender waiting for room in a full pending buffer, and
// returns only once the connection's writer has exited.
func TestTCPCloseReleasesBlockedSender(t *testing.T) {
	n := newTestNode(t)
	to, _, _ := stallWriter(t, n)

	errc := make(chan error, 1)
	go func() {
		frame := make([]byte, 256<<10)
		for {
			if err := n.Send(to, frame); err != nil {
				errc <- err
				return
			}
		}
	}()
	waitUntil(t, func() bool { return n.Counters().SendWaits == 1 }, "a sender finds the pending buffer full")

	closed := make(chan struct{})
	go func() {
		_ = n.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung: the writer did not exit")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Send returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the blocked sender")
	}
}

// A frame larger than the pending bound, sent while frames are pending,
// waits for them to go and then goes out intact in a Write of its own.
func TestTCPOversizedFrameAfterPending(t *testing.T) {
	n := newTestNode(t)
	to, first, read := stallWriter(t, n)

	const small = 10
	for i := 0; i < small; i++ {
		if err := n.Send(to, pattern(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	huge := pattern(1, 2<<20)
	errc := make(chan error, 1)
	go func() { errc <- n.Send(to, huge) }()
	waitUntil(t, func() bool { return n.Counters().SendWaits == 1 }, "the 2 MiB frame waits behind the pending ones")

	r := read()
	if got := readRawFrame(t, r); !bytes.Equal(got, first) {
		t.Fatalf("first frame: %d bytes, not the 8 MiB frame sent", len(got))
	}
	for i := 0; i < small; i++ {
		if got := readRawFrame(t, r); !bytes.Equal(got, pattern(i, 100)) {
			t.Fatalf("small frame %d corrupted", i)
		}
	}
	if got := readRawFrame(t, r); !bytes.Equal(got, huge) {
		t.Fatalf("2 MiB frame: got %d bytes, not the frame sent", len(got))
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send 2 MiB: %v", err)
	}
	if c := n.Counters(); c.Writes != 3 {
		t.Fatalf("%d writes, want 3: the stalled frame, the small ones, the 2 MiB one alone", c.Writes)
	}
}

// The counters count every frame that crosses a connection, and none
// that a node delivers to its own endpoints.
func TestTCPCountersCountFrames(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	ep, err := b.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	local, err := a.Listen("local")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(a.Addr("local"), []byte("here")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, local)

	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr("svc"), pattern(i, 1+i%300)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		if got := recvOne(t, ep); !bytes.Equal(got, pattern(i, 1+i%300)) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
	ca, cb := a.Counters(), b.Counters()
	if ca.FramesSent != count || cb.FramesReceived != count {
		t.Fatalf("a sent %d frames and b received %d, want %d each", ca.FramesSent, cb.FramesReceived, count)
	}
	if ca.Writes == 0 || ca.Writes > count || cb.Reads == 0 {
		t.Fatalf("%d frames in %d writes and %d reads", count, ca.Writes, cb.Reads)
	}
	if ca.FramesReceived != 0 || cb.FramesSent != 0 {
		t.Fatalf("the one-way stream counted %d frames into a and %d out of b", ca.FramesReceived, cb.FramesSent)
	}
}
