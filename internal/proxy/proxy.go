// Package proxy implements the compartmentalized ordering-layer tiers
// of Whittaker et al., "Scaling Replicated State Machines with
// Compartmentalization", adapted to the multicast substrate:
//
//   - Proxy: a stateless proxy-proposer. Clients submit Propose frames
//     to any proxy; the proxy classifies them by group, accumulates
//     per-group batches and forwards each sealed batch to the group's
//     believed leader as ONE ProposeBatch frame. A batch is sealed when
//     it holds BatchMax commands or as soon as nothing more is readable
//     on the proxy's endpoint: an idle proxy adds no delay, a loaded one
//     batches whatever arrived while it was busy.
//     The leader's inbound admission work drops from one frame per
//     command to one frame per proxy batch, and the proxy tier scales
//     out by just adding proxies — they share no state. A per-proxy
//     recent-request window additionally sheds client retransmissions
//     of recently admitted requests before they cost the leader
//     anything; it is an optimization only — exactly-once semantics
//     remain the replicas' at-most-once cache's job.
//
//   - Relay: a decision fan-out stage. A leader configured with relays
//     stripes its decision (and optimistic) pushes across them instead
//     of broadcasting to every learner itself; each relay re-broadcasts
//     the frames it receives to all learners.
//
// Both roles are crash-stop and hold no durable state: a dead proxy
// surfaces to clients as a distinct submit error (the client library
// rotates to a surviving proxy), and a lost relay stripe is recovered
// by learner gap retransmission against the coordinator.
package proxy

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

// Config configures one proxy-proposer.
type Config struct {
	// Addr is the proxy's listen address.
	Addr transport.Addr
	// Groups are the multicast groups the proxy forwards to; a Propose
	// frame for an unknown group id is dropped.
	Groups []multicast.GroupConfig
	// Transport carries the proxy's traffic.
	Transport transport.Transport
	// BatchMax seals a group's batch when it holds this many commands
	// (every batch is sealed anyway once the endpoint runs dry).
	// Default 64.
	BatchMax int
	// DedupWindow sizes the proxy's recent-request window (rounded up
	// to a power of two): a direct-mapped cache of (client, seq) ids
	// that sheds client retransmissions before they reach the leader's
	// batch path. 0 selects the default (4096 ids); negative disables
	// shedding. Values too short to carry a request id bypass the
	// window untouched.
	DedupWindow int
	// CPU optionally meters the proxy's busy time.
	CPU *bench.RoleMeter
	// Trace optionally stamps sampled commands at the proxy-seal stage
	// boundary (and carries trace context across the wire: inbound
	// tags are absorbed, sealed batches are re-tagged).
	Trace *obs.Tracer
	// Journal optionally records seal/shed events in the flight
	// recorder.
	Journal *obs.Journal
}

func (c *Config) fillDefaults() {
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 4096
	}
}

// Counters is a snapshot of one proxy's forwarding work.
type Counters struct {
	// Queued is the number of Propose frames admitted.
	Queued uint64
	// Batches is the number of sealed ProposeBatch frames forwarded.
	Batches uint64
	// Commands is the number of commands those batches carried.
	Commands uint64
	// Shed is the number of Propose frames dropped by the dedup window
	// as retransmissions of a recently admitted request.
	Shed uint64
}

// MeanBatch is the average commands per sealed batch; 0 when nothing
// was forwarded.
func (c Counters) MeanBatch() float64 {
	if c.Batches == 0 {
		return 0
	}
	return float64(c.Commands) / float64(c.Batches)
}

// groupBuf accumulates one group's pending commands. The items slice
// header is pooled (reset to items[:0] on seal) so steady-state
// admission performs no per-command allocation; the sealed frame is
// the single allocation per batch (it must be fresh — the transport
// retains sent frames).
type groupBuf struct {
	id    uint32
	items [][]byte
	// believed indexes the coordinator candidate the proxy currently
	// forwards to; rotated when a send fails.
	believed int
}

// dedupSlot is one entry of the direct-mapped recent-request window.
// The group is part of the identity: a multi-group command (subset
// routing) legitimately submits one Propose frame PER destination
// group with the same request id, and those copies must all pass. The
// used flag distinguishes an empty slot from the legal id (0, 0).
type dedupSlot struct {
	client, seq uint64
	group       uint32
	used        bool
}

// Proxy is one stateless proxy-proposer. See the package comment.
type Proxy struct {
	cfg  Config
	ep   transport.Endpoint
	bufs []groupBuf
	gidx map[uint32]int // group id -> bufs index
	// dedup is the recent-request window (nil when disabled); accessed
	// only from the run goroutine, so it needs no lock.
	dedup     []dedupSlot
	dedupMask uint64

	queued   atomic.Uint64
	batches  atomic.Uint64
	commands atomic.Uint64
	shed     atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// Start launches a proxy listening on cfg.Addr.
func Start(cfg Config) (*Proxy, error) {
	p, err := newProxy(cfg)
	if err != nil {
		return nil, err
	}
	ep, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("proxy %s listen: %w", cfg.Addr, err)
	}
	p.ep = ep
	go p.run()
	return p, nil
}

// newProxy builds the proxy state without listening; benchmarks drive
// admit/sealAll directly against it.
func newProxy(cfg Config) (*Proxy, error) {
	cfg.fillDefaults()
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("proxy %s: no groups", cfg.Addr)
	}
	p := &Proxy{
		cfg:  cfg,
		bufs: make([]groupBuf, len(cfg.Groups)),
		gidx: make(map[uint32]int, len(cfg.Groups)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i, g := range cfg.Groups {
		p.bufs[i] = groupBuf{id: g.ID, items: make([][]byte, 0, cfg.BatchMax)}
		p.gidx[g.ID] = i
	}
	if cfg.DedupWindow > 0 {
		n := 1
		for n < cfg.DedupWindow {
			n <<= 1
		}
		p.dedup = make([]dedupSlot, n)
		p.dedupMask = uint64(n - 1)
	}
	return p, nil
}

// Close stops the proxy and waits for its goroutine.
func (p *Proxy) Close() error {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	err := p.ep.Close()
	<-p.done
	return err
}

// Counters returns a snapshot of the proxy's forwarding counters. Safe
// to call concurrently.
func (p *Proxy) Counters() Counters {
	return Counters{
		Queued:   p.queued.Load(),
		Batches:  p.batches.Load(),
		Commands: p.commands.Load(),
		Shed:     p.shed.Load(),
	}
}

// run admits frames for as long as the endpoint has one ready and seals
// every group's batch the moment it has none: after each admit the proxy
// either has more to read or seals, so nothing ever waits on a timer.
func (p *Proxy) run() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case frame, ok := <-p.ep.Recv():
			if !ok {
				return
			}
			t0 := time.Now()
			p.admit(frame)
		drain:
			for {
				select {
				case frame, ok := <-p.ep.Recv():
					if !ok {
						break drain
					}
					p.admit(frame)
				default:
					break drain
				}
			}
			p.sealAll()
			p.cfg.CPU.Add(time.Since(t0))
		}
	}
}

// admit classifies one client frame and buffers its value, sealing the
// group's batch at BatchMax. This is the hot path: ParsePropose does
// not allocate and the buffered value aliases the frame.
func (p *Proxy) admit(frame []byte) {
	// Fold a client-shipped trace tag (the submit stamp) into the
	// local tracer before the value is buffered; the tag is stripped
	// so it is not duplicated into the sealed batch.
	frame = p.cfg.Trace.AbsorbTags(frame)
	group, value, ok := paxos.ParsePropose(frame)
	if !ok {
		return
	}
	gi, ok := p.gidx[group]
	if !ok {
		return
	}
	if p.dedup != nil {
		if client, seq, idOK := command.PeekRequestID(value); idOK {
			slot := &p.dedup[dedupIndex(client, seq, group)&p.dedupMask]
			if slot.used && slot.client == client && slot.seq == seq && slot.group == group {
				// A retransmission of a request admitted within the
				// window: shed it, and CLEAR the slot so a further
				// retransmission of the same id passes through. That
				// keeps the window safe against false liveness loss —
				// if the first copy was lost downstream of the proxy,
				// the client's second retransmission still reaches the
				// replicas' at-most-once cache, which is the actual
				// correctness mechanism; the window only thins the
				// common duplicate storm.
				slot.used = false
				p.shed.Add(1)
				p.cfg.Journal.EmitID(obs.EvProxyShed, client, seq)
				return
			}
			*slot = dedupSlot{client: client, seq: seq, group: group, used: true}
		}
	}
	p.queued.Add(1)
	b := &p.bufs[gi]
	b.items = append(b.items, value)
	if len(b.items) >= p.cfg.BatchMax {
		p.seal(gi)
	}
}

// dedupIndex mixes a per-group request id into a table index
// (splitmix64-style finalizer) so clients with adjacent ids spread
// across the window.
func dedupIndex(client, seq uint64, group uint32) uint64 {
	x := client*0x9e3779b97f4a7c15 + seq + uint64(group)<<56
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sealAll flushes every non-empty group buffer (the endpoint ran dry).
func (p *Proxy) sealAll() {
	for gi := range p.bufs {
		if len(p.bufs[gi].items) > 0 {
			p.seal(gi)
		}
	}
}

// seal forwards one group's pending commands as a single ProposeBatch
// frame and resets the pooled buffer. On a send failure it rotates
// through the group's remaining coordinator candidates (the batch is
// best-effort, like direct submission: client retransmission recovers
// anything lost).
func (p *Proxy) seal(gi int) {
	b := &p.bufs[gi]
	frame := paxos.NewProposeBatchFrame(b.id, b.items)
	n := len(b.items)
	for _, item := range b.items {
		p.cfg.Trace.Stamp(obs.StageProxySeal, item)
		// Re-tag the sealed batch with each sampled item's trace
		// context so the (possibly out-of-process) leader inherits the
		// submit/seal stamps; a no-op for unsampled items.
		frame = p.cfg.Trace.AppendTagForValue(frame, item)
	}
	p.cfg.Journal.Emit(obs.EvProxySeal, uint64(b.id), uint64(n))
	clear(b.items)
	b.items = b.items[:0]
	cands := p.cfg.Groups[gi].Coordinators
	for try := 0; try < len(cands); try++ {
		target := cands[b.believed%len(cands)]
		if p.cfg.Transport.Send(target, frame) == nil {
			break
		}
		b.believed++
	}
	p.batches.Add(1)
	p.commands.Add(uint64(n))
}
