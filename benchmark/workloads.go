package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/lz4"
	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/workload"
)

// Load shape shared by every workload.
const (
	replicas  = 2
	acceptors = 3
	workers   = 2
	kvKeys    = 100_000

	fsFiles    = 256
	fsFileSize = 64 << 10
	fsIOSize   = 1 << 10
	fsBlocks   = fsFileSize / fsIOSize
	fsTime     = int64(1_700_000_000_000_000_000)

	// collideHot is workload.KVCollisionMix's hot key set: the only
	// keys kv_collide_opt ever writes.
	collideHot = 16
)

// workloadDef is one benchmark workload: a deployment plus a traffic mix.
type workloadDef struct {
	name string
	// rate is the open-loop offered load in commands per second over
	// all connections: a constant, calibrated once to about 20 % of the
	// build host's closed-loop median and never derived at run time, so
	// that latency on two commits is read at the same load. (At 40 % a
	// busy spell on the host, a quarter of the processor time gone,
	// tripled the tail latencies; at 20 % it moves them by a tenth.)
	rate float64
	// window is the closed loop's outstanding requests per connection
	// (closedWindow unless the workload cannot take that much).
	window int
	// tcp hosts the cluster on one transport.TCPNode and the clients on
	// a second one in this process.
	tcp bool
	// fs selects the netfs service; the key-value store otherwise.
	fs bool
	// config fills the deployment-specific part of psmr.Config, every
	// setting it leaves alone at the product default.
	config func(cfg *psmr.Config)
	// tune moves settings away from the product defaults where the
	// defaults cannot run without failed requests (nil for three of the
	// four workloads). A --trace 1 run also runs trials without it and
	// reports how many of them stalled (multicast.stalled_trials).
	tune func(cfg *psmr.Config)
	// gen is the key-value traffic mix (nil for fs).
	gen workload.Generator
	// preloaded reports whether a read of key must return the preloaded
	// value, i.e. whether the workload never writes key.
	preloaded func(key uint64) bool
	// headStart is the number of keys inserted through the replicated
	// path, in one burst, between set-up and warm-up (part of the tuning,
	// see kv_read_psmr; not counted in setup_s).
	headStart int
	// conserved is the number of low keys whose values must still sum
	// to the preloaded sum after the run (0 = not a pure-transfer mix).
	conserved uint64
}

var workloads = []*workloadDef{
	{
		name:   "kv_read_psmr",
		rate:   31_000,
		config: func(cfg *psmr.Config) { cfg.Mode = psmr.ModePSMR },
		tune: func(cfg *psmr.Config) {
			// The default 1 ms skip ticker is faster than this sandbox's
			// timers tick (about 1.1 ms). Tickers that cannot keep their
			// period drop ticks, each group's on its own, and every
			// dropped tick leaves that group's stream one merge round
			// behind for good: with the default nearly half the trials
			// ran with the merge lagging (README, known anomalies). A
			// period the timers can keep leaves the lag rare enough to
			// measure around.
			cfg.SkipInterval = 2 * time.Millisecond
		},
		gen:       workload.KVReads(workload.Uniform{N: kvKeys}),
		preloaded: func(uint64) bool { return true },
		// Inserts are global commands: they are ordered by the serial
		// group, and a burst of them is the one thing that moves the
		// serial group's stream ahead of the worker groups' in the
		// deterministic merge (a coordinator's skip padding tops a tick
		// up to the merge weight, so only real traffic beyond the weight
		// gains ground). Ahead is the side on which a dropped skip tick
		// costs nothing. Without the head start the two sides start level,
		// every tick the serial group drops leaves the workers' commands
		// waiting one more round, for good, and a fifth of the trials ran
		// at a fraction of the others' speed (README, known anomalies).
		headStart: 20_000,
	},
	{
		name: "kv_skew_spsmr",
		rate: 26_000,
		config: func(cfg *psmr.Config) {
			cfg.Mode = psmr.ModeSPSMR
			cfg.Scheduler = psmr.SchedIndex
			cfg.Proxies = 2
			cfg.FanoutDegree = 2
		},
		gen:       skewMix(workload.NewZipf(1.0, kvKeys)),
		preloaded: func(uint64) bool { return false },
	},
	{
		name: "kv_collide_opt",
		rate: 10_000,
		// Half the other workloads' window: with 64 outstanding per
		// connection one optimistic replica in ten trials fell behind
		// its peer and never caught up (ghost evictions, rollbacks
		// thousands of commands deep; README, known anomalies), and a
		// benchmark's workloads must not fail.
		window: closedWindow / 2,
		config: func(cfg *psmr.Config) {
			cfg.Mode = psmr.ModeSPSMR
			cfg.Scheduler = psmr.SchedIndex
			cfg.Optimistic = true
			cfg.OptimisticReSpeculate = true
			cfg.OptimisticReorder = 16
		},
		gen:       workload.KVCollisionMix(workload.Uniform{N: kvKeys}, 10),
		preloaded: func(key uint64) bool { return key >= collideHot },
		conserved: collideHot,
	},
	{
		name: "fs_write_tcp",
		rate: 12_000,
		tcp:  true,
		fs:   true,
		config: func(cfg *psmr.Config) {
			cfg.Mode = psmr.ModeSPSMR
			cfg.Scheduler = psmr.SchedScan
		},
	},
}

// closedWindow returns the workload's closed-loop window.
func (w *workloadDef) closedWindow() int {
	if w.window > 0 {
		return w.window
	}
	return closedWindow
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// skewMix is the paper's skewed read/update mix (Fig. 7) with a tenth of
// two-key transfers: 45 % reads, 45 % updates, 10 % transfers.
func skewMix(keys workload.KeyGen) workload.Generator {
	return workload.NewMix(
		workload.MixEntry{Weight: 45, Make: workload.KVReads(keys).Next},
		workload.MixEntry{Weight: 45, Make: workload.KVUpdates(keys).Next},
		workload.MixEntry{Weight: 10, Make: workload.KVTransfers(keys).Next},
	)
}

// spec returns the workload's C-Dep.
func (w *workloadDef) spec() cdep.Spec {
	if w.fs {
		return netfs.Spec()
	}
	return kvstore.Spec()
}

// streamSeed derives one connection's generator seed from the run seed.
func streamSeed(seed int64, conn int) int64 {
	return seed*1_000_003 + int64(conn)*7919 + 1
}

// markedService is a replica's service plus a count of executed marker
// commands, which is how a trial quiesces a replica before touching its
// state (the same device the root e2e tests use).
type markedService interface {
	command.Service
	markers() int64
	fingerprint() uint64
}

// markedStore counts executed inserts: an insert is a global barrier, so
// once a replica has executed the marker, everything ordered before it
// has finished there.
type markedStore struct {
	*kvstore.Store
	inserts atomic.Int64
}

func (m *markedStore) Execute(cmd command.ID, input []byte) []byte {
	out := m.Store.Execute(cmd, input)
	if cmd == kvstore.CmdInsert {
		m.inserts.Add(1)
	}
	return out
}

// SpeculateAt keeps the count on the optimistic replica's path.
func (m *markedStore) SpeculateAt(e mvstore.Epoch, cmd command.ID, input []byte) []byte {
	out := m.Store.SpeculateAt(e, cmd, input)
	if cmd == kvstore.CmdInsert {
		m.inserts.Add(1)
	}
	return out
}

func (m *markedStore) markers() int64      { return m.inserts.Load() }
func (m *markedStore) fingerprint() uint64 { return m.Store.Fingerprint() }

// markedFS counts executed utimens calls. netfs has no global command;
// a utimens on a path is ordered after every write to that path, so one
// marker per file quiesces the replica.
type markedFS struct {
	*netfs.Service
	utimens atomic.Int64
}

func (m *markedFS) Execute(cmd command.ID, input []byte) []byte {
	out := m.Service.Execute(cmd, input)
	if cmd == netfs.CmdUtimens {
		m.utimens.Add(1)
	}
	return out
}

func (m *markedFS) markers() int64      { return m.utimens.Load() }
func (m *markedFS) fingerprint() uint64 { return m.FS().Fingerprint() }

// newService builds one replica's preloaded service.
func (w *workloadDef) newService() markedService {
	if !w.fs {
		st := kvstore.New()
		st.Preload(kvKeys)
		return &markedStore{Store: st}
	}
	svc := netfs.NewService()
	fs := svc.FS()
	for d := 0; d < 8; d++ {
		fs.Mkdir(fmt.Sprintf("/data%d", d), 0o755, fsTime)
	}
	content := make([]byte, fsFileSize)
	for i := range content {
		content[i] = byte(i * 31)
	}
	for i := 0; i < fsFiles; i++ {
		fd, _ := fs.Create(fsPath(i), 0o644, fsTime)
		fs.Write(fd, 0, content, fsTime)
		fs.Release(fd)
	}
	return &markedFS{Service: svc}
}

func fsPath(i int) string { return fmt.Sprintf("/data%d/file%d", i%8, i) }

// kvStream is one connection's key-value traffic.
type kvStream struct {
	w   *workloadDef
	rng *rand.Rand
}

func (s *kvStream) next() workload.Op { return s.w.gen.Next(s.rng) }

func (s *kvStream) check(o workload.Op, out []byte) bool {
	if len(out) == 0 || out[0] != kvstore.OK {
		return false
	}
	if o.Cmd != kvstore.CmdRead {
		return len(out) == 1
	}
	if len(out) != 9 {
		return false
	}
	key := binary.LittleEndian.Uint64(o.Input)
	return !s.w.preloaded(key) || binary.LittleEndian.Uint64(out[1:]) == key
}

// fsStream is one connection's netfs traffic: 1 KiB writes at random
// block offsets of the files this connection opened. Connections own
// disjoint files, so the last write to a block is known and can be read
// back after the run.
type fsStream struct {
	rng   *rand.Rand
	files []fsFile
	// last maps file index and block to the seed of the data written
	// there last (0 = never written by this run).
	last [][]uint64
}

type fsFile struct {
	path string
	fd   uint64
}

func newFSStream(seed int64, files []fsFile) *fsStream {
	s := &fsStream{rng: rand.New(rand.NewSource(seed)), files: files}
	s.last = make([][]uint64, len(files))
	for i := range s.last {
		s.last[i] = make([]uint64, fsBlocks)
	}
	return s
}

// fsBlock expands a data seed into one block. A quarter of the block is
// pseudo-random and the rest repeats it, so lz4 has both literals and
// matches to work on, as it would on real file contents.
func fsBlock(dataSeed uint64) []byte {
	buf := make([]byte, fsIOSize)
	x := dataSeed
	for i := 0; i < fsIOSize/4; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for i := fsIOSize / 4; i < fsIOSize; i += fsIOSize / 4 {
		copy(buf[i:], buf[:fsIOSize/4])
	}
	return buf
}

func fsWrite(f fsFile, block int, data []byte) workload.Op {
	args := make([]byte, 24, 24+len(data))
	binary.LittleEndian.PutUint64(args, f.fd)
	binary.LittleEndian.PutUint64(args[8:], uint64(block*fsIOSize))
	binary.LittleEndian.PutUint64(args[16:], uint64(fsTime+1))
	return fsOp(netfs.CmdWrite, f.path, append(args, data...))
}

func (s *fsStream) next() workload.Op {
	fi := s.rng.Intn(len(s.files))
	block := s.rng.Intn(fsBlocks)
	dataSeed := s.rng.Uint64() | 1
	s.last[fi][block] = dataSeed
	return fsWrite(s.files[fi], block, fsBlock(dataSeed))
}

func (s *fsStream) check(_ workload.Op, out []byte) bool {
	raw, err := lz4.Unpack(out)
	return err == nil && len(raw) == 5 && netfs.Errno(raw[0]) == netfs.OK &&
		binary.LittleEndian.Uint32(raw[1:]) == fsIOSize
}

// fsOp builds a netfs command on path.
func fsOp(cmd command.ID, path string, args []byte) workload.Op {
	return workload.Op{Cmd: cmd, Input: netfs.EncodeInput(path, args)}
}

// fsVerify is the stream of a connection's read-back: prepared reads and
// markers, each reply checked against what the load stream wrote last.
type fsVerify struct {
	s    *fsStream
	file map[string]int // path to index in s.files
	ops  []workload.Op
	sent int
}

func (v *fsVerify) next() workload.Op {
	o := v.ops[v.sent]
	v.sent++
	return o
}

func (v *fsVerify) check(o workload.Op, out []byte) bool {
	raw, err := lz4.Unpack(out)
	if err != nil || len(raw) == 0 || netfs.Errno(raw[0]) != netfs.OK {
		return false
	}
	if o.Cmd != netfs.CmdRead {
		return true
	}
	path, args, ok := netfs.DecodeInput(o.Input)
	if !ok {
		return false
	}
	block := binary.LittleEndian.Uint64(args[8:]) / fsIOSize
	return bytes.Equal(raw[1:], fsBlock(v.s.last[v.file[path]][block]))
}

// insertStream inserts consecutive keys above the preloaded ones (and
// above the quiesce marker's).
type insertStream struct{ next_ uint64 }

func (s *insertStream) next() workload.Op {
	s.next_++
	key := kvKeys + s.next_
	return workload.Op{Cmd: kvstore.CmdInsert, Input: kvstore.EncodeKeyValue(key, kvstore.EncodeKey(key))}
}

func (*insertStream) check(_ workload.Op, out []byte) bool {
	return len(out) == 1 && out[0] == kvstore.OK
}
