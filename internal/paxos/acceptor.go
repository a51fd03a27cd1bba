package paxos

import (
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/transport"
)

// AcceptorConfig configures one acceptor of one group.
type AcceptorConfig struct {
	GroupID uint32
	// ID is this acceptor's index within the group (0-based).
	ID uint32
	// Addr is the endpoint the acceptor listens on.
	Addr transport.Addr
	// Transport carries the acceptor's traffic.
	Transport transport.Transport
	// CPU optionally meters the acceptor's busy time.
	CPU *bench.RoleMeter
}

// acceptorRetain is how many instances below the leader's decided
// frontier an acceptor keeps: slack for a standby whose own frontier
// lags the leader's, so that after a fail-over it can still complete its
// log from phase 1 instead of the retransmission path.
const acceptorRetain = 1024

// Acceptor is the voting role of Paxos. It maintains a single promised
// ballot covering all instances (Multi-Paxos) and a map of accepted
// (instance, ballot, value) triples, kept in memory. The log is
// truncated behind the leader: every Phase2a carries the leader's
// decided frontier, the acceptor drops what lies more than
// acceptorRetain instances below it and remembers that trim mark, and
// Phase1b reports the mark so a new leader never proposes into the
// trimmed (decided) prefix.
type Acceptor struct {
	cfg AcceptorConfig
	ep  transport.Endpoint

	mu       sync.Mutex
	promised Ballot
	accepted map[uint64]acceptedEntry
	// trimmed is the trim mark: every instance below it is decided and
	// no longer held here.
	trimmed uint64

	done chan struct{}
}

// StartAcceptor launches an acceptor; it runs until Close.
func StartAcceptor(cfg AcceptorConfig) (*Acceptor, error) {
	ep, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("acceptor %d/%d listen: %w", cfg.GroupID, cfg.ID, err)
	}
	a := &Acceptor{
		cfg:      cfg,
		ep:       ep,
		accepted: make(map[uint64]acceptedEntry),
		done:     make(chan struct{}),
	}
	go a.run()
	return a, nil
}

// Close stops the acceptor and waits for its goroutine to exit.
func (a *Acceptor) Close() error {
	err := a.ep.Close()
	<-a.done
	return err
}

// Promised returns the current promised ballot (for tests).
func (a *Acceptor) Promised() Ballot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promised
}

// AcceptedCount returns the number of accepted instances (for tests).
func (a *Acceptor) AcceptedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.accepted)
}

// Trimmed returns the trim mark (for tests).
func (a *Acceptor) Trimmed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.trimmed
}

func (a *Acceptor) run() {
	defer close(a.done)
	for frame := range a.ep.Recv() {
		t0 := time.Now()
		a.handle(frame)
		a.cfg.CPU.Add(time.Since(t0))
	}
}

func (a *Acceptor) handle(frame []byte) {
	m, err := decodeMessage(frame)
	if err != nil || m.Group != a.cfg.GroupID {
		return
	}
	switch m.Type {
	case msgPhase1a:
		a.handlePhase1a(m)
	case msgPhase2a:
		a.handlePhase2a(m)
	default:
		// Acceptors ignore everything else.
	}
}

func (a *Acceptor) handlePhase1a(m *message) {
	a.mu.Lock()
	if m.Ballot <= a.promised {
		promised := a.promised
		a.mu.Unlock()
		a.send(m.Addr, &message{
			Type:   msgNack,
			Group:  a.cfg.GroupID,
			Ballot: promised,
		})
		return
	}
	a.promised = m.Ballot
	// Report accepted values from the requested instance onward so the
	// new coordinator can complete in-flight instances.
	var entries []acceptedEntry
	for inst, e := range a.accepted {
		if inst >= m.Instance {
			entries = append(entries, acceptedEntry{Instance: inst, Ballot: e.Ballot, Value: e.Value})
		}
	}
	trimmed := a.trimmed
	a.mu.Unlock()
	a.send(m.Addr, &message{
		Type:      msgPhase1b,
		Group:     a.cfg.GroupID,
		Ballot:    m.Ballot,
		Acceptor:  a.cfg.ID,
		Instance2: Instance2{To: trimmed},
		Entries:   entries,
	})
}

func (a *Acceptor) handlePhase2a(m *message) {
	a.mu.Lock()
	if m.Ballot < a.promised {
		promised := a.promised
		a.mu.Unlock()
		a.send(m.Addr, &message{
			Type:   msgNack,
			Group:  a.cfg.GroupID,
			Ballot: promised,
		})
		return
	}
	a.promised = m.Ballot
	if m.Instance >= a.trimmed {
		a.accepted[m.Instance] = acceptedEntry{Instance: m.Instance, Ballot: m.Ballot, Value: m.Value}
	}
	// m.To is the leader's decided frontier. Instances are dense, so the
	// walk from the old mark to the new one visits each entry once.
	if m.To > acceptorRetain {
		for mark := m.To - acceptorRetain; a.trimmed < mark; a.trimmed++ {
			delete(a.accepted, a.trimmed)
		}
	}
	a.mu.Unlock()
	a.send(m.Addr, &message{
		Type:     msgPhase2b,
		Group:    a.cfg.GroupID,
		Ballot:   m.Ballot,
		Instance: m.Instance,
		Acceptor: a.cfg.ID,
	})
}

func (a *Acceptor) send(to transport.Addr, m *message) {
	if to == "" {
		return
	}
	// Best effort: the coordinator retries through protocol timeouts.
	_ = a.cfg.Transport.Send(to, encodeMessage(m))
}
