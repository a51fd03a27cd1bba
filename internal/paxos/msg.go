// Package paxos implements the consensus substrate of the multicast
// library: one sequence of Multi-Paxos instances per multicast group
// (paper §VI-A). Each group has a coordinator (with standby candidates
// for fail-over), a set of acceptors (the experiments use 3, tolerating
// one acceptor failure), and learners that receive decisions in
// instance order.
//
// Values are opaque byte slices; the coordinator batches proposals into
// batch values of up to BatchMaxBytes (8 KB in the paper) and order is
// established on batches. Idle coordinators can emit "skip" batches so
// that downstream deterministic merges never stall on a silent group
// (the Multi-Ring Paxos mechanism).
package paxos

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/psmr/psmr/internal/transport"
)

// Ballot numbers a round of leadership. It encodes the candidate index
// in the low 16 bits so that distinct candidates never collide:
// ballot = round<<16 | candidateIdx, round >= 1. Zero means "no ballot".
type Ballot uint64

// MakeBallot builds a ballot for a candidate in a given round.
func MakeBallot(round uint64, candidateIdx int) Ballot {
	return Ballot(round<<16 | uint64(candidateIdx)&0xffff)
}

// Candidate returns the candidate index encoded in the ballot.
func (b Ballot) Candidate() int { return int(b & 0xffff) }

// Round returns the leadership round encoded in the ballot.
func (b Ballot) Round() uint64 { return uint64(b) >> 16 }

func (b Ballot) String() string {
	return fmt.Sprintf("b%d.%d", b.Round(), b.Candidate())
}

// msgType discriminates protocol messages.
type msgType uint8

const (
	msgPropose msgType = iota + 1
	msgPhase1a
	msgPhase1b
	msgPhase2a
	msgPhase2b
	msgNack
	msgDecision
	msgLearnReq
	msgHeartbeat
	// msgOptimistic carries a leader's proposal to the learners BEFORE
	// phase 2 completes (optimistic atomic broadcast à la "Optimistic
	// Parallel State-Machine Replication", Marandi & Pedone): Instance
	// is the leader's optimistic sequence number (NOT a consensus
	// instance), Ballot scopes the sequence to one leadership term.
	// The stream is best-effort — duplicated, reordered or never-decided
	// optimistic values are permitted and must never affect the decided
	// log.
	msgOptimistic
	// msgProposeBatch carries a proxy-sealed batch of client proposals
	// in one frame (the compartmentalized proxy-proposer tier): Value is
	// a batchKindNormal batch encoding whose items are the individual
	// proposal values, in the proxy's admission order. The leader
	// unpacks the items into its current consensus batch, so its
	// inbound work drops from one frame per command to one frame per
	// proxy batch while slot accounting, optimistic delivery and skip
	// suppression keep operating per command.
	msgProposeBatch
)

func (t msgType) String() string {
	switch t {
	case msgPropose:
		return "propose"
	case msgPhase1a:
		return "phase1a"
	case msgPhase1b:
		return "phase1b"
	case msgPhase2a:
		return "phase2a"
	case msgPhase2b:
		return "phase2b"
	case msgNack:
		return "nack"
	case msgDecision:
		return "decision"
	case msgLearnReq:
		return "learnreq"
	case msgHeartbeat:
		return "heartbeat"
	case msgOptimistic:
		return "optimistic"
	case msgProposeBatch:
		return "proposebatch"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// acceptedEntry is one accepted (instance, ballot, value) triple
// reported in a phase 1b message.
type acceptedEntry struct {
	Instance uint64
	Ballot   Ballot
	Value    []byte
}

// message is the single wire structure for all protocol messages; the
// type selects which fields are meaningful.
type message struct {
	Type     msgType
	Group    uint32
	Ballot   Ballot
	Instance uint64 // or fromInstance for phase1a/learnreq
	Instance2
	Acceptor uint32
	Flags    uint8
	Addr     transport.Addr // reply-to address
	Value    []byte
	Entries  []acceptedEntry // phase1b only
}

// Instance2 is a second instance field: learnreq "to"; on phase2a the
// leader's decided frontier, on phase1b the acceptor's trim mark (see
// Acceptor). Named type only to document intent in the struct.
type Instance2 = struct{ To uint64 }

// Flags.
const flagForwarded uint8 = 1 // propose already forwarded once

// errBadMessage reports a corrupt or truncated frame.
var errBadMessage = errors.New("paxos: bad message")

// NewDecisionFrame builds a Decision frame for a learner. It exists for
// tests and tools that need to inject a decided value directly into a
// learner without running a coordinator.
func NewDecisionFrame(group uint32, instance uint64, value []byte) []byte {
	return encodeMessage(&message{
		Type:     msgDecision,
		Group:    group,
		Instance: instance,
		Value:    value,
	})
}

// NewOptimisticFrame builds an Optimistic frame for a learner: the
// value a leader holding ballot proposes as its optSeq-th optimistic
// delivery. It exists for tests that exercise the optimistic stream
// (duplication, reordering, never-decided values) without a
// coordinator.
func NewOptimisticFrame(group uint32, ballot Ballot, optSeq uint64, value []byte) []byte {
	return encodeMessage(&message{
		Type:     msgOptimistic,
		Group:    group,
		Ballot:   ballot,
		Instance: optSeq,
		Value:    value,
	})
}

// ParsePropose reads the group id and proposal value out of a Propose
// frame without allocating; the value aliases the frame. It is the
// proxy tier's admission parser: a proxy classifies each client frame
// by group and re-frames the values as a ProposeBatch, so this path
// must stay allocation-free.
func ParsePropose(frame []byte) (group uint32, value []byte, ok bool) {
	if len(frame) < headerLen || msgType(frame[0]) != msgPropose {
		return 0, nil, false
	}
	group = binary.LittleEndian.Uint32(frame[1:5])
	addrLen := int(binary.LittleEndian.Uint16(frame[34:36]))
	rest := frame[headerLen:]
	if len(rest) < addrLen+4 {
		return 0, nil, false
	}
	rest = rest[addrLen:]
	valLen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < valLen {
		return 0, nil, false
	}
	return group, rest[:valLen:valLen], true
}

// NewProposeBatchFrame builds a ProposeBatch frame carrying items (the
// values of individual Propose frames) in admission order. Decoding via
// decodeMessage + DecodeBatch yields the items back.
func NewProposeBatchFrame(group uint32, items [][]byte) []byte {
	return newBatchFrame(msgProposeBatch, group, "", items)
}

// headerLen is the fixed part of every frame: type, group, ballot,
// instance, to, acceptor, flags and the address length.
const headerLen = 36

// Offsets of the fields a leader patches into a Phase2a frame it built
// before the instance was assigned (newBatchFrame at flush time,
// Coordinator.propose at instance-assignment time).
const (
	ballotOff   = 5
	instanceOff = 13
	toOff       = 21
)

// newBatchFrame builds a frame of type t whose Value is the
// batchKindNormal encoding of items, fused into the frame encode: a
// proxy seals a batch, and a leader flushes one, with exactly one
// allocation and one copy of the payload. Ballot, instance and to are
// left zero.
func newBatchFrame(t msgType, group uint32, addr transport.Addr, items [][]byte) []byte {
	valSize := normalBatchSize(items)
	buf := make([]byte, headerLen, headerLen+len(addr)+4+valSize+4)
	buf[0] = byte(t)
	binary.LittleEndian.PutUint32(buf[1:], group)
	binary.LittleEndian.PutUint16(buf[34:], uint16(len(addr)))
	buf = append(buf, addr...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(valSize))
	buf = appendNormalBatch(buf, items)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // entryCount
	return buf
}

// frameValue returns the Value of a frame this package encoded, aliasing
// it (capacity clipped, so nothing can grow into the frame's tail). The
// coordinator uses it to keep ONE buffer per batch: the pending value
// aliases the Phase2a frame, the decisions log aliases the Decision
// frame the learners were handed.
func frameValue(frame []byte) []byte {
	off := headerLen + int(binary.LittleEndian.Uint16(frame[34:36]))
	n := int(binary.LittleEndian.Uint32(frame[off:]))
	off += 4
	return frame[off : off+n : off+n]
}

// ParseProposeBatch decodes a ProposeBatch frame back into its group
// id and batch (the inverse of NewProposeBatchFrame); item slices alias
// the frame. Used by tests and tools inspecting proxy output.
func ParseProposeBatch(frame []byte) (group uint32, batch *Batch, ok bool) {
	m, err := decodeMessage(frame)
	if err != nil || m.Type != msgProposeBatch {
		return 0, nil, false
	}
	b, err := DecodeBatch(m.Value)
	if err != nil {
		return 0, nil, false
	}
	return m.Group, b, true
}

// encodeMessage renders m as a frame.
func encodeMessage(m *message) []byte {
	size := headerLen + len(m.Addr) + 4 + len(m.Value) + 4
	for _, e := range m.Entries {
		size += 8 + 8 + 4 + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint32(buf, m.Group)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Ballot))
	buf = binary.LittleEndian.AppendUint64(buf, m.Instance)
	buf = binary.LittleEndian.AppendUint64(buf, m.To)
	buf = binary.LittleEndian.AppendUint32(buf, m.Acceptor)
	buf = append(buf, m.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Addr)))
	buf = append(buf, m.Addr...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Value)))
	buf = append(buf, m.Value...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.Instance)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Ballot))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

// decodeMessage parses a frame. Byte slices in the result alias the
// frame.
func decodeMessage(frame []byte) (*message, error) {
	if len(frame) < headerLen {
		return nil, errBadMessage
	}
	m := &message{Type: msgType(frame[0])}
	m.Group = binary.LittleEndian.Uint32(frame[1:5])
	m.Ballot = Ballot(binary.LittleEndian.Uint64(frame[5:13]))
	m.Instance = binary.LittleEndian.Uint64(frame[13:21])
	m.To = binary.LittleEndian.Uint64(frame[21:29])
	m.Acceptor = binary.LittleEndian.Uint32(frame[29:33])
	m.Flags = frame[33]
	addrLen := int(binary.LittleEndian.Uint16(frame[34:36]))
	rest := frame[headerLen:]
	if len(rest) < addrLen+4 {
		return nil, errBadMessage
	}
	m.Addr = transport.Addr(rest[:addrLen])
	rest = rest[addrLen:]
	valLen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < valLen+4 {
		return nil, errBadMessage
	}
	m.Value = rest[:valLen:valLen]
	rest = rest[valLen:]
	entryCount := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if entryCount > 0 {
		m.Entries = make([]acceptedEntry, 0, entryCount)
		for i := 0; i < entryCount; i++ {
			if len(rest) < 20 {
				return nil, errBadMessage
			}
			e := acceptedEntry{
				Instance: binary.LittleEndian.Uint64(rest[:8]),
				Ballot:   Ballot(binary.LittleEndian.Uint64(rest[8:16])),
			}
			vl := int(binary.LittleEndian.Uint32(rest[16:20]))
			rest = rest[20:]
			if len(rest) < vl {
				return nil, errBadMessage
			}
			e.Value = rest[:vl:vl]
			rest = rest[vl:]
			m.Entries = append(m.Entries, e)
		}
	}
	return m, nil
}
