package proxy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

func recvBatch(t *testing.T, ep transport.Endpoint) (uint32, *paxos.Batch) {
	t.Helper()
	select {
	case frame := <-ep.Recv():
		g, b, ok := paxos.ParseProposeBatch(frame)
		if !ok {
			t.Fatalf("received frame is not a propose-batch")
		}
		return g, b
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for a sealed batch")
		return 0, nil
	}
}

// recvItems collects sealed batches until they carry n items and
// returns the items in arrival order.
func recvItems(t *testing.T, ep transport.Endpoint, n int) [][]byte {
	t.Helper()
	var items [][]byte
	for len(items) < n {
		_, b := recvBatch(t, ep)
		items = append(items, b.Items...)
	}
	if len(items) != n {
		t.Fatalf("sealed batches carry %d items, want %d", len(items), n)
	}
	return items
}

// startLoaded starts a proxy whose endpoint already holds frames: they
// have all reached the endpoint's receive channel before the proxy's
// loop first runs, so what it seals depends on the frames alone and not
// on how the sender and the proxy were scheduled. (A proxy seals when
// its endpoint runs dry; frames sent to a running one may be sealed in
// any number of batches.) len(frames) must fit the channel's buffer.
func startLoaded(t *testing.T, net *transport.MemNetwork, cfg Config, frames [][]byte) *Proxy {
	t.Helper()
	p, err := newProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ep, err = net.Listen(cfg.Addr); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := net.Send(cfg.Addr, f); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(p.ep.Recv()) < len(frames); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the endpoint", len(p.ep.Recv()), len(frames))
		}
	}
	go p.run()
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// TestProxyBatchSeal: with a count threshold of 4, eight proposals
// waiting at the endpoint yield exactly two sealed batches carrying the
// values in admission order.
func TestProxyBatchSeal(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord, err := net.Listen("g7/coord0")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for i := 0; i < 8; i++ {
		frames = append(frames, paxos.NewProposeFrame(7, []byte{byte(i)}))
	}
	p := startLoaded(t, net, Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 7, Coordinators: []transport.Addr{"g7/coord0"}}},
		Transport: net,
		BatchMax:  4,
	}, frames)

	var got [][]byte
	for len(got) < 8 {
		g, b := recvBatch(t, coord)
		if g != 7 {
			t.Fatalf("batch for group %d, want 7", g)
		}
		if len(b.Items) != 4 {
			t.Fatalf("batch of %d items, want 4", len(b.Items))
		}
		got = append(got, b.Items...)
	}
	for i, v := range got {
		if len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("item %d = %v, want [%d]", i, v, i)
		}
	}
	c := p.Counters()
	if c.Queued != 8 || c.Batches != 2 || c.Commands != 8 {
		t.Fatalf("counters = %+v, want queued 8, batches 2, commands 8", c)
	}
	if mb := c.MeanBatch(); mb != 4 {
		t.Fatalf("mean batch = %v, want 4", mb)
	}
}

// TestProxyIdleSeal: a lone command is sealed as soon as the endpoint
// has nothing more — there is no delay to wait out, and no timer in the
// proxy that could impose one.
func TestProxyIdleSeal(t *testing.T) {
	for pt, i := reflect.TypeOf(Proxy{}), 0; i < pt.NumField(); i++ {
		switch pt.Field(i).Type {
		case reflect.TypeOf((*time.Timer)(nil)), reflect.TypeOf((*time.Ticker)(nil)):
			t.Fatalf("Proxy.%s is a timer: sealing must be event-driven", pt.Field(i).Name)
		}
	}
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord, err := net.Listen("g0/coord0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Start(Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}},
		Transport: net,
		BatchMax:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 3; i++ {
		if err := net.Send("proxy0", paxos.NewProposeFrame(0, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		_, b := recvBatch(t, coord)
		if len(b.Items) != 1 || b.Items[0][0] != byte(i) {
			t.Fatalf("lone command %d sealed as %v", i, b.Items)
		}
	}
}

// TestProxyBurstSeal: a burst that is waiting when the proxy gets to
// run is sealed on count, not one frame per command — at most
// ceil(n/BatchMax) frames, plus one for a pump hand-off that splits the
// burst.
func TestProxyBurstSeal(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord, err := net.Listen("g0/coord0")
	if err != nil {
		t.Fatal(err)
	}
	const n, batchMax = 300, 64
	var frames [][]byte
	for i := 0; i < n; i++ {
		frames = append(frames, paxos.NewProposeFrame(0, []byte{byte(i), byte(i >> 8)}))
	}
	p := startLoaded(t, net, Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}},
		Transport: net,
		BatchMax:  batchMax,
	}, frames)
	for i, it := range recvItems(t, coord, n) {
		if len(it) != 2 || int(it[0])|int(it[1])<<8 != i {
			t.Fatalf("item %d = %v", i, it)
		}
	}
	if b, most := p.Counters().Batches, uint64((n+batchMax-1)/batchMax+1); b > most {
		t.Fatalf("burst of %d sealed as %d frames, want <= %d", n, b, most)
	}
}

// TestProxyCoordinatorFailover: when the believed coordinator is
// unreachable the proxy rotates to the next candidate for the same
// sealed batch.
func TestProxyCoordinatorFailover(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	standby, err := net.Listen("g0/coord1")
	if err != nil {
		t.Fatal(err)
	}
	// "g0/coord0" never listens: mem transport fails the send with
	// ErrNoRoute, which is the proxy's cue to rotate.
	p, err := Start(Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0", "g0/coord1"}}},
		Transport: net,
		BatchMax:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 2; i++ {
		if err := net.Send("proxy0", paxos.NewProposeFrame(0, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	recvItems(t, standby, 2)
}

// TestProxyIgnoresForeignFrames: frames for unknown groups and
// non-propose frames are dropped without wedging the proxy.
func TestProxyIgnoresForeignFrames(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord, err := net.Listen("g0/coord0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Start(Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}},
		Transport: net,
		BatchMax:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_ = net.Send("proxy0", []byte{1, 2, 3})                       // garbage
	_ = net.Send("proxy0", paxos.NewProposeFrame(9, []byte("x"))) // unknown group
	_ = net.Send("proxy0", paxos.NewProposeFrame(0, []byte("a")))
	_ = net.Send("proxy0", paxos.NewProposeFrame(0, []byte("b")))
	if items := recvItems(t, coord, 2); !bytes.Equal(items[0], []byte("a")) || !bytes.Equal(items[1], []byte("b")) {
		t.Fatalf("sealed %v, want [a b]", items)
	}
}

// TestRelayBroadcast: a relay re-broadcasts every inbound frame to all
// its targets, in order, without decoding.
func TestRelayBroadcast(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	var eps []transport.Endpoint
	for i := 0; i < 2; i++ {
		ep, err := net.Listen(transport.Addr(fmt.Sprintf("learner%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	r, err := StartRelay(RelayConfig{
		Addr:      "relay0",
		Targets:   []transport.Addr{"learner0", "learner1"},
		Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 3; i++ {
		if err := net.Send("relay0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ep := range eps {
		for i := 0; i < 3; i++ {
			select {
			case frame := <-ep.Recv():
				if len(frame) != 1 || frame[0] != byte(i) {
					t.Fatalf("target %s frame %d = %v", ep.Addr(), i, frame)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("target %s: timed out waiting for frame %d", ep.Addr(), i)
			}
		}
	}
}

// TestProxyPipeline runs the full compartmentalized ordering path at
// the paxos level: client frames -> proxy (sealed batches) ->
// coordinator -> acceptors -> striped relays -> learner. 100 commands
// must arrive decided, in admission order, and the coordinator must
// have admitted them in >= 4x fewer frames than commands.
func TestProxyPipeline(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	accAddrs := []transport.Addr{"g0/acc0", "g0/acc1", "g0/acc2"}
	for i, a := range accAddrs {
		acc, err := paxos.StartAcceptor(paxos.AcceptorConfig{GroupID: 0, ID: uint32(i), Addr: a, Transport: net})
		if err != nil {
			t.Fatal(err)
		}
		defer acc.Close()
	}

	relayAddrs := []transport.Addr{"g0/relay0", "g0/relay1"}
	for _, a := range relayAddrs {
		r, err := StartRelay(RelayConfig{Addr: a, Targets: []transport.Addr{"r0/g0"}, Transport: net})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
	}

	coordAddrs := []transport.Addr{"g0/coord0"}
	coord, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
		GroupID:      0,
		CandidateIdx: 0,
		Candidates:   coordAddrs,
		Acceptors:    accAddrs,
		Learners:     []transport.Addr{"r0/g0"},
		Relays:       relayAddrs,
		Transport:    net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	learner, err := paxos.StartLearner(paxos.LearnerConfig{
		GroupID:      0,
		Addr:         "r0/g0",
		Transport:    net,
		Coordinators: coordAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	cursor := learner.NewCursor()

	// The commands wait at the proxy's endpoint when it starts, so they
	// are sealed on count (a running proxy that keeps up with its sender
	// forwards commands as they come and compresses nothing).
	const n = 100
	var frames [][]byte
	for i := 0; i < n; i++ {
		frames = append(frames, paxos.NewProposeFrame(0, []byte{byte(i)}))
	}
	startLoaded(t, net, Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: coordAddrs}},
		Transport: net,
		BatchMax:  25,
	}, frames)

	var got []byte
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		type res struct {
			b  *paxos.Batch
			ok bool
		}
		ch := make(chan res, 1)
		go func() {
			b, _, ok := cursor.Next()
			ch <- res{b, ok}
		}()
		select {
		case r := <-ch:
			if !r.ok {
				t.Fatalf("cursor closed after %d/%d commands", len(got), n)
			}
			if r.b.Skip {
				continue
			}
			for _, it := range r.b.Items {
				got = append(got, it[0])
			}
		case <-deadline:
			t.Fatalf("timed out after %d/%d commands", len(got), n)
		}
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("decided[%d] = %d, want %d", i, got[i], i)
		}
	}
	c := coord.Counters()
	if c.InboundCommands != n {
		t.Fatalf("coordinator admitted %d commands, want %d", c.InboundCommands, n)
	}
	if fpc := c.FramesPerCommand(); fpc > 0.25 {
		t.Fatalf("frames per command = %v (frames %d), want <= 0.25", fpc, c.InboundFrames)
	}
}

// sinkTransport swallows sends; it isolates the proxy's own admission
// cost for the allocation assertions.
type sinkTransport struct{}

func (sinkTransport) Listen(addr transport.Addr) (transport.Endpoint, error) {
	return nil, transport.ErrClosed
}
func (sinkTransport) Send(to transport.Addr, frame []byte) error { return nil }
func (sinkTransport) Close() error                               { return nil }

// benchProxy builds a proxy plus one Propose frame carrying a real
// encoded request, and returns the offset of the request's Seq field
// within the frame: the benchmarks mutate it in place per iteration so
// every admitted command carries a fresh request id and the dedup
// window probes (and misses) exactly like live traffic.
func benchProxy(tb testing.TB) (p *Proxy, frame []byte, seqOff int) {
	tb.Helper()
	p, err := newProxy(Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}},
		Transport: sinkTransport{},
		BatchMax:  64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	value := command.AppendRequest(nil, &command.Request{
		Client: 7, Seq: 1, Cmd: 1, Input: make([]byte, 16), Reply: "client0",
	})
	frame = paxos.NewProposeFrame(0, value)
	return p, frame, len(frame) - len(value) + 8
}

// TestProxySubmitAllocs pins the zero-alloc admission path: amortized
// over a full batch, sealing is the only allocation (the batch frame
// itself), well under 1/8 alloc per admitted command.
func TestProxySubmitAllocs(t *testing.T) {
	p, frame, seqOff := benchProxy(t)
	var seq uint64
	perBatch := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			seq++
			binary.LittleEndian.PutUint64(frame[seqOff:], seq)
			p.admit(frame)
		}
	})
	if perCmd := perBatch / 64; perCmd > 0.125 {
		t.Fatalf("proxy admission allocates %.3f allocs/command (%.1f per sealed batch), want <= 0.125", perCmd, perBatch)
	}
}

// BenchmarkProxySubmit measures the proxy admission hot path
// (parse + dedup probe + buffer + amortized seal) per command.
func BenchmarkProxySubmit(b *testing.B) {
	p, frame, seqOff := benchProxy(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(frame[seqOff:], uint64(i+1))
		p.admit(frame)
	}
	p.sealAll()
}

// proposeReq wraps an encoded request in a Propose frame for group 0.
func proposeReq(client, seq uint64) []byte {
	value := command.AppendRequest(nil, &command.Request{
		Client: client, Seq: seq, Cmd: 1, Input: make([]byte, 16), Reply: "client0",
	})
	return paxos.NewProposeFrame(0, value)
}

// TestProxyDedupWindowSheds forces a client double-submit through the
// proxy: the retransmission must be shed (never reach the sealed
// batch), the Shed counter must record it, and — because a shed clears
// its slot — a THIRD copy of the same request must pass through again,
// preserving liveness when the shed copy was the only one in flight.
func TestProxyDedupWindowSheds(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord, err := net.Listen("g0/coord0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Start(Config{
		Addr:      "proxy0",
		Groups:    []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}},
		Transport: net,
		BatchMax:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	send := func(frame []byte) {
		t.Helper()
		if err := net.Send("proxy0", frame); err != nil {
			t.Fatal(err)
		}
	}
	send(proposeReq(1, 1))
	send(proposeReq(1, 1)) // retransmission: shed
	send(proposeReq(1, 2))
	send(proposeReq(2, 1))
	items := recvItems(t, coord, 3) // the dup is shed
	ids := make([][2]uint64, len(items))
	for i, it := range items {
		c, s, ok := command.PeekRequestID(it)
		if !ok {
			t.Fatalf("item %d: not a request encoding", i)
		}
		ids[i] = [2]uint64{c, s}
	}
	want := [][2]uint64{{1, 1}, {1, 2}, {2, 1}}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("batch ids = %v, want %v", ids, want)
		}
	}
	// The shed cleared (1,1)'s slot: a third copy passes through.
	send(proposeReq(1, 1))
	send(proposeReq(1, 3))
	send(proposeReq(1, 4))
	items = recvItems(t, coord, 3) // the post-shed copy is readmitted
	if c, s, _ := command.PeekRequestID(items[0]); c != 1 || s != 1 {
		t.Fatalf("readmitted id = (%d,%d), want (1,1)", c, s)
	}
	cnt := p.Counters()
	if cnt.Shed != 1 || cnt.Queued != 6 {
		t.Fatalf("counters = %+v, want Shed 1, Queued 6", cnt)
	}
}

// TestProxyDedupIsPerGroup: a multi-group command (subset routing)
// submits one Propose frame per destination group with the SAME
// request id; the dedup window must pass every group's copy.
func TestProxyDedupIsPerGroup(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	coord0, err := net.Listen("g0/coord0")
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := net.Listen("g1/coord0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Start(Config{
		Addr: "proxy0",
		Groups: []multicast.GroupConfig{
			{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}},
			{ID: 1, Coordinators: []transport.Addr{"g1/coord0"}},
		},
		Transport: net,
		BatchMax:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	value := command.AppendRequest(nil, &command.Request{
		Client: 1, Seq: 1, Cmd: 1, Input: make([]byte, 16), Reply: "client0",
	})
	for _, g := range []uint32{0, 1} {
		if err := net.Send("proxy0", paxos.NewProposeFrame(g, value)); err != nil {
			t.Fatal(err)
		}
	}
	for _, coord := range []transport.Endpoint{coord0, coord1} {
		recvItems(t, coord, 1)
	}
	if cnt := p.Counters(); cnt.Shed != 0 || cnt.Queued != 2 {
		t.Fatalf("counters = %+v, want Shed 0, Queued 2 (per-group copies both pass)", cnt)
	}
}
