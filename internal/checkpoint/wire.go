package checkpoint

// Replica-side assembly shared by every replica kind (sP-SMR,
// optimistic, single-group core): the service check and recovery fetch
// that must happen BEFORE the learner starts (Prepare), and the
// plumbing — store, driver, retain floor, state-transfer server,
// decided-suffix replay — wired up once the learner is listening
// (Wire). Keeping it here means a transfer-protocol fix lands in one
// place instead of three StartReplica functions.

import (
	"fmt"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// Bootstrap is the outcome of a recovery fetch: everything a
// restarting replica needs before and after starting its learner.
type Bootstrap struct {
	// Restored is the peer checkpoint the service was restored from
	// (nil when the peer had none — suffix-only recovery).
	Restored *Checkpoint
	// Suffix holds the peer's retained decided batch values from
	// SuffixStart on, to replay through the local learner.
	Suffix      [][]byte
	SuffixStart uint64
}

// Start returns the learner start instance: the restored checkpoint's
// position, or 0. Nil-safe (fresh start).
func (b *Bootstrap) Start() uint64 {
	if b == nil || b.Restored == nil {
		return 0
	}
	return b.Restored.Instance
}

// ReplicaConfig is one replica's checkpoint and recovery configuration,
// the same for every replica kind.
type ReplicaConfig struct {
	Config    Config
	ReplicaID int
	Transport transport.Transport
	// Service is the replica's state machine; it must implement
	// command.Snapshotter when checkpointing is enabled.
	Service command.Service
	// RecoverPeers, when non-empty, are the live replicas' state-transfer
	// endpoints to bootstrap from (requires checkpointing enabled).
	RecoverPeers []transport.Addr
	// FetchTimeout bounds each peer fetch during recovery. Default 2s.
	FetchTimeout time.Duration
}

// Learner is what the plumbing needs from the replica's learner
// (implemented by *paxos.Learner).
type Learner interface {
	LogSource
	// SetRetainFloor keeps decided batches from instance on for peer
	// catch-up.
	SetRetainFloor(instance uint64)
	// Replay injects one fetched decided value into the learner's own
	// endpoint as an ordinary decision.
	Replay(instance uint64, value []byte)
}

// Prepare is the half of a replica's checkpoint wiring that runs BEFORE
// its learner starts (and, for optimistic replicas, before any
// speculation is admitted): it checks the service can be snapshotted
// and, with RecoverPeers set, fetches the newest peer checkpoint plus
// decided suffix and restores the service. The bootstrap is nil on a
// fresh start.
func Prepare(cfg ReplicaConfig) (*Bootstrap, error) {
	snap, _ := cfg.Service.(command.Snapshotter)
	if cfg.Config.Enabled() && snap == nil {
		return nil, fmt.Errorf("checkpoint: checkpointing requires the service to implement command.Snapshotter, got %T", cfg.Service)
	}
	if len(cfg.RecoverPeers) == 0 {
		return nil, nil
	}
	if !cfg.Config.Enabled() {
		return nil, fmt.Errorf("checkpoint: recovery requires checkpointing enabled")
	}
	res, err := Fetch(cfg.Transport, cfg.RecoverPeers, cfg.ReplicaID, cfg.FetchTimeout)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: recover replica %d: %w", cfg.ReplicaID, err)
	}
	boot := &Bootstrap{Suffix: res.Suffix, SuffixStart: res.SuffixStart}
	if res.Checkpoint != nil {
		if err := snap.Restore(res.Checkpoint.State); err != nil {
			return nil, fmt.Errorf("checkpoint: restore snapshot at %d: %w", res.Checkpoint.Instance, err)
		}
		boot.Restored = res.Checkpoint
	}
	return boot, nil
}

// Plumbing is a replica's running checkpoint machinery.
type Plumbing struct {
	Driver *Driver
	Server *Server
}

// Wire is the half that runs once the learner (started at boot.Start())
// is listening: it builds the store (seeded from the bootstrap), the
// driver, the retain floor and the state-transfer server, and replays
// the fetched suffix. snapshot serializes the service at the quiesce
// point (false = shutting down); nil selects the service's own
// Snapshot. Checkpointing must be enabled (Prepare has validated the
// service).
func Wire(cfg ReplicaConfig, boot *Bootstrap, learner Learner, snapshot func() ([]byte, bool)) (*Plumbing, error) {
	if snapshot == nil {
		snap := cfg.Service.(command.Snapshotter)
		snapshot = func() ([]byte, bool) { return snap.Snapshot(), true }
	}
	store := NewStore(cfg.Config.Retain)
	driver := NewDriver(cfg.Config, store, snapshot, learner.SetRetainFloor)
	// Retain everything from our start until the first checkpoint
	// makes an earlier prefix reconstructible.
	learner.SetRetainFloor(boot.Start())
	if boot != nil && boot.Restored != nil {
		// Seed the store so this replica can serve peers in turn.
		store.Put(*boot.Restored)
		driver.RecordRestore(boot.Restored)
	}
	srv, err := StartServer(ServerConfig{
		Addr:      ServerAddr(cfg.ReplicaID),
		Transport: cfg.Transport,
		Store:     store,
		Log:       learner,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: start server: %w", err)
	}
	if boot != nil {
		// Replay the fetched decided suffix through the normal delivery
		// path: frames land on our own learner in instance order;
		// anything beyond the live frontier is deduplicated and holes
		// to the live stream heal via gap retransmission.
		for i, value := range boot.Suffix {
			learner.Replay(boot.SuffixStart+uint64(i), value)
		}
	}
	return &Plumbing{Driver: driver, Server: srv}, nil
}
