package spsmr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

// testReplica wires one Paxos group and one sP-SMR replica over an
// in-process network; requests are injected by proposing encoded
// frames straight to the group coordinator, responses are collected on
// a probe endpoint.
type testReplica struct {
	net     *transport.MemNetwork
	group   multicast.GroupConfig
	replica *Replica
	probe   transport.Endpoint
}

func startTestReplica(t *testing.T, kind sched.SchedulerKind, workers int, svc command.Service) *testReplica {
	t.Helper()
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })

	const gid = 1
	accAddrs := make([]transport.Addr, 3)
	for i := range accAddrs {
		accAddrs[i] = transport.Addr(fmt.Sprintf("acc%d", i))
	}
	candAddrs := []transport.Addr{"coord0"}
	for i := range accAddrs {
		a, err := paxos.StartAcceptor(paxos.AcceptorConfig{
			GroupID: gid, ID: uint32(i), Addr: accAddrs[i], Transport: net,
		})
		if err != nil {
			t.Fatalf("StartAcceptor: %v", err)
		}
		t.Cleanup(func() { _ = a.Close() })
	}
	co, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
		GroupID:      gid,
		CandidateIdx: 0,
		Candidates:   candAddrs,
		Acceptors:    accAddrs,
		Learners:     []transport.Addr{paxos.LearnerAddr(0, gid)},
		Transport:    net,
	})
	if err != nil {
		t.Fatalf("StartCoordinator: %v", err)
	}
	t.Cleanup(func() { _ = co.Close() })

	group := multicast.GroupConfig{ID: gid, Coordinators: candAddrs, Acceptors: accAddrs}
	rep, err := StartReplica(ReplicaConfig{
		ReplicaID: 0,
		Workers:   workers,
		Service:   svc,
		Spec:      kvstore.Spec(),
		Group:     group,
		Transport: net,
		Scheduler: kind,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { _ = rep.Close() })

	probe, err := net.Listen("probe")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return &testReplica{net: net, group: group, replica: rep, probe: probe}
}

// submit proposes one encoded request to the group coordinator.
func (r *testReplica) submit(t *testing.T, req *command.Request) {
	t.Helper()
	req.Reply = "probe"
	frame := paxos.NewProposeFrame(r.group.ID, command.AppendRequest(nil, req))
	if err := r.net.Send(r.group.Coordinators[0], frame); err != nil {
		t.Fatalf("propose: %v", err)
	}
}

func (r *testReplica) recvResponse(t *testing.T) *command.Response {
	t.Helper()
	select {
	case frame := <-r.probe.Recv():
		resp, err := command.DecodeResponse(frame)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		return resp
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for response")
		return nil
	}
}

// Both engines must drive the full delivery path: ordered stream in,
// executed commands and responses out, global commands included.
func TestReplicaExecutesOrderedStream(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			st := kvstore.New()
			st.Preload(100)
			r := startTestReplica(t, kind, 4, st)

			// Keyed update, then read it back.
			r.submit(t, &command.Request{
				Client: 1, Seq: 1, Cmd: kvstore.CmdUpdate,
				Input: kvstore.EncodeKeyValue(7, []byte("abcdefgh")),
			})
			if resp := r.recvResponse(t); resp.Seq != 1 || resp.Output[0] != kvstore.OK {
				t.Fatalf("update response %+v", resp)
			}
			r.submit(t, &command.Request{
				Client: 1, Seq: 2, Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(7),
			})
			resp := r.recvResponse(t)
			value, code := kvstore.DecodeReadOutput(resp.Output)
			if code != kvstore.OK || string(value) != "abcdefgh" {
				t.Fatalf("read back %q code %d", value, code)
			}

			// Global command (insert) through the barrier path, then read.
			r.submit(t, &command.Request{
				Client: 1, Seq: 3, Cmd: kvstore.CmdInsert,
				Input: kvstore.EncodeKeyValue(1000, []byte("inserted")),
			})
			if resp := r.recvResponse(t); resp.Seq != 3 || resp.Output[0] != kvstore.OK {
				t.Fatalf("insert response %+v", resp)
			}
			r.submit(t, &command.Request{
				Client: 1, Seq: 4, Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(1000),
			})
			resp = r.recvResponse(t)
			value, code = kvstore.DecodeReadOutput(resp.Output)
			if code != kvstore.OK || string(value) != "inserted" {
				t.Fatalf("read back %q code %d", value, code)
			}
		})
	}
}

// A retransmitted request must be answered again but executed once.
func TestReplicaAtMostOnce(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			svc := &countingStore{Store: kvstore.New()}
			svc.Preload(10)
			r := startTestReplica(t, kind, 2, svc)

			req := &command.Request{
				Client: 3, Seq: 1, Cmd: kvstore.CmdUpdate,
				Input: kvstore.EncodeKeyValue(1, []byte("xxxxxxxx")),
			}
			r.submit(t, req)
			first := r.recvResponse(t)
			retry := *req
			r.submit(t, &retry)
			second := r.recvResponse(t)
			if first.Output[0] != kvstore.OK || second.Output[0] != kvstore.OK {
				t.Fatalf("responses %v / %v", first.Output, second.Output)
			}
			svc.mu.Lock()
			got := svc.updates
			svc.mu.Unlock()
			if got != 1 {
				t.Fatalf("update executed %d times, want 1", got)
			}
		})
	}
}

func TestReplicaCloseIdempotent(t *testing.T) {
	st := kvstore.New()
	r := startTestReplica(t, sched.KindScan, 1, st)
	if err := r.replica.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.replica.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// countingStore counts update executions under a lock (workers may run
// concurrently).
type countingStore struct {
	*kvstore.Store
	mu      sync.Mutex
	updates int
}

func (c *countingStore) Execute(cmd command.ID, input []byte) []byte {
	if cmd == kvstore.CmdUpdate {
		c.mu.Lock()
		c.updates++
		c.mu.Unlock()
	}
	return c.Store.Execute(cmd, input)
}
