package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/checkpoint"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/dedup"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/optimistic"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/proxy"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

const (
	// layerChunk is the number of operations one child span covers:
	// timing every call on its own would cost more than most calls do.
	layerChunk = 1024
	// engineBatch is the admission batch the scheduler and optimistic
	// drivers submit, the size of a typical decided batch.
	engineBatch = 64
	// orderWindow is the ordering driver's proposals in flight.
	orderWindow = 64
)

// driverDeadline bounds one layer driver (a variable so that its own test
// need not wait this long).
var driverDeadline = 40 * time.Second

// layerCtx is what the layer drivers share: the first ops operations of
// the workload's own seeded stream, replayed through one layer's public
// functions alone, each stretch of calls wrapped in a span.
type layerCtx struct {
	w    *workloadDef
	seed int64
	ops  int
	// repeats is how often each driver runs; its metric is the median.
	repeats int
	log     *spanLog
	root    int

	// heavy is the number of operations the drivers of layers that cost
	// microseconds per operation replay: the first quarter of the
	// stream, so that the whole sheet takes seconds.
	heavy int

	// own is the workload's stream; kv and fs are the streams the
	// key-value and netfs drivers replay (the workload's own where it
	// has that service, kv_skew_spsmr's or fs_write_tcp's otherwise, so
	// every layer has a number on every workload).
	own, kv, fs []workload.Op
	// frames are the own stream's encoded requests.
	frames [][]byte
	reqs   []command.Request
	cg     *cdep.Compiled
	kvCG   *cdep.Compiled
	// fsService is the preloaded file system the fs stream's descriptors
	// were opened on.
	fsService *netfs.Service
	fsFiles   []fsFile

	mu     sync.Mutex
	values map[string]float64
}

func newLayerCtx(w *workloadDef, seed int64, ops, repeats int) (*layerCtx, error) {
	lc := &layerCtx{w: w, seed: seed, ops: ops, repeats: repeats, heavy: max(ops/4, 1), log: newSpanLog(), values: make(map[string]float64)}
	lc.root = lc.log.start("layers:"+w.name, -1, 0)

	kvDef := w
	if w.fs {
		kvDef = workloadByName("kv_skew_spsmr")
	}
	kvOps := &kvStream{w: kvDef, rng: rand.New(rand.NewSource(streamSeed(seed, 0)))}
	for i := 0; i < ops; i++ {
		lc.kv = append(lc.kv, kvOps.next())
	}

	lc.fsService = workloadByName("fs_write_tcp").newService().(*markedFS).Service
	for i := 0; i < fsFiles; i++ {
		fd, errno := lc.fsService.FS().Open(fsPath(i))
		if errno != netfs.OK {
			return nil, fmt.Errorf("open %s: %v", fsPath(i), errno)
		}
		lc.fsFiles = append(lc.fsFiles, fsFile{path: fsPath(i), fd: fd})
	}
	fsOps := newFSStream(streamSeed(seed, 0), lc.fsFiles)
	for i := 0; i < ops; i++ {
		lc.fs = append(lc.fs, fsOps.next())
	}

	lc.own = lc.kv
	if w.fs {
		lc.own = lc.fs
	}
	var err error
	if lc.cg, err = cdep.Compile(w.spec(), workers); err != nil {
		return nil, err
	}
	if lc.kvCG, err = cdep.Compile(kvstore.Spec(), workers); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	lc.reqs = make([]command.Request, ops)
	for i, o := range lc.own {
		lc.reqs[i] = command.Request{
			Client: 1, Seq: uint64(i + 1), Cmd: o.Cmd, Input: o.Input,
			Gamma: lc.cg.Groups(o.Cmd, o.Input, rng.Intn), Reply: "client/1",
		}
		lc.frames = append(lc.frames, command.AppendRequest(nil, &lc.reqs[i]))
	}
	return lc, nil
}

// newStream starts the workload's own stream again from its seed.
func (lc *layerCtx) newStream() opStream {
	if lc.w.fs {
		return newFSStream(streamSeed(lc.seed, 0), lc.fsFiles)
	}
	return &kvStream{w: lc.w, rng: rand.New(rand.NewSource(streamSeed(lc.seed, 0)))}
}

// set records a metric. Drivers run one at a time, but one that outlived
// its deadline may still be writing.
func (lc *layerCtx) set(name string, v float64) {
	lc.mu.Lock()
	lc.values[name] = v
	lc.mu.Unlock()
}

// snapshot copies the metrics recorded so far.
func (lc *layerCtx) snapshot() map[string]float64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]float64, len(lc.values))
	for k, v := range lc.values {
		out[k] = v
	}
	return out
}

// repeat runs body lc.repeats times, each under its own span, and
// returns the median over the repeats of nanoseconds per operation: the
// time inside the chunk spans body opens with chunk, over the operations
// those spans cover. Time body spends outside chunk (building inputs,
// waiting for set-up) is the repeat span's self time and is not counted.
func (lc *layerCtx) repeat(name string, body func(chunk func(ops int, fn func()))) float64 {
	var perOp []float64
	for r := 0; r < lc.repeats; r++ {
		id := lc.log.start(name, lc.root, 0)
		body(func(ops int, fn func()) {
			c := lc.log.start(name+"/calls", id, ops)
			fn()
			lc.log.end(c)
		})
		lc.log.end(id)
		if ns, ops := lc.log.childTotals(id); ops > 0 {
			perOp = append(perOp, float64(ns)/float64(ops))
		}
	}
	return median(perOp)
}

// perOp is repeat for the common case: call fn(i) for every operation of
// a stream of n, in chunks.
func (lc *layerCtx) perOp(name string, n int, fn func(i int)) float64 {
	return lc.repeat(name, func(chunk func(int, func())) {
		for lo := 0; lo < n; lo += layerChunk {
			hi := min(lo+layerChunk, n)
			chunk(hi-lo, func() {
				for i := lo; i < hi; i++ {
					fn(i)
				}
			})
		}
	})
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerDriver measures one layer and stores its metrics in lc.values.
type layerDriver struct {
	name string
	run  func(lc *layerCtx) error
}

var layerDrivers = []layerDriver{
	{"command", driveCommand},
	{"cdep", driveCDep},
	{"transport", driveTransport},
	{"proxy", driveProxy},
	{"paxos", drivePaxos},
	{"multicast", driveMerge},
	{"sched", driveSched},
	{"kvstore", driveKVStore},
	{"netfs", driveNetFS},
	{"mvstore", driveMVStore},
	{"optimistic", driveOptimistic},
	{"checkpoint", driveCheckpoint},
	{"dedup", driveDedup},
	{"harness", driveGenerator},
}

// runLayerDrivers runs every driver under a deadline. A driver that fails
// or does not return leaves its metrics missing, which fails the run; it
// is never reported as 0.
func runLayerDrivers(lc *layerCtx, outDir string) []string {
	var problems []string
	for _, d := range layerDrivers {
		done := make(chan error, 1)
		go func() { done <- d.run(lc) }()
		select {
		case err := <-done:
			if err != nil {
				problems = append(problems, fmt.Sprintf("layer driver %s: %v", d.name, err))
			}
		case <-time.After(driverDeadline):
			path := dumpGoroutines(outDir, "hang-layer-"+d.name)
			problems = append(problems, fmt.Sprintf("layer driver %s exceeded %v; goroutines dumped to %s", d.name, driverDeadline, path))
		}
	}
	lc.log.end(lc.root)
	return problems
}

func driveCommand(lc *layerCtx) error {
	buf := make([]byte, 0, 4096)
	lc.set("command.encode_ns_per_cmd", lc.perOp("command.encode", lc.ops, func(i int) {
		buf = command.AppendRequest(buf[:0], &lc.reqs[i])
	}))
	var failed error
	lc.set("command.decode_ns_per_cmd", lc.perOp("command.decode", lc.ops, func(i int) {
		if _, _, err := command.DecodeRequest(lc.frames[i]); err != nil {
			failed = err
		}
	}))
	total := 0
	for _, f := range lc.frames {
		total += len(f)
	}
	lc.set("command.request_bytes", float64(total)/float64(len(lc.frames)))
	return failed
}

func driveCDep(lc *layerCtx) error {
	rng := rand.New(rand.NewSource(1))
	var sink command.Gamma
	lc.set("cdep.route_ns_per_cmd", lc.perOp("cdep.route", lc.ops, func(i int) {
		sink |= lc.cg.Groups(lc.own[i].Cmd, lc.own[i].Input, rng.Intn)
	}))
	if sink == 0 {
		return fmt.Errorf("no command was routed to any group")
	}
	return nil
}

// hop sends the own stream's frames over tr to an endpoint and receives
// them again, in bursts so the send and receive sides overlap as they do
// in the pipeline.
func (lc *layerCtx) hop(name string, n int, tr transport.Transport, dst transport.Addr, ep transport.Endpoint) float64 {
	const burst = 64
	return lc.repeat(name, func(chunk func(int, func())) {
		for lo := 0; lo < n; lo += burst {
			hi := min(lo+burst, n)
			chunk(hi-lo, func() {
				for i := lo; i < hi; i++ {
					_ = tr.Send(dst, lc.frames[i])
				}
				for i := lo; i < hi; i++ {
					<-ep.Recv()
				}
			})
		}
	})
}

func driveTransport(lc *layerCtx) error {
	mem := transport.NewMemNetwork(1)
	defer mem.Close()
	ep, err := mem.Listen("sink")
	if err != nil {
		return err
	}
	lc.set("transport.mem_hop_ns_per_frame", lc.hop("transport.mem_hop", lc.ops, mem, "sink", ep))

	a, err := transport.NewTCPNode("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPNode("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	tep, err := b.Listen("sink")
	if err != nil {
		return err
	}
	before := mallocs()
	lc.set("transport.tcp_hop_ns_per_frame", lc.hop("transport.tcp_hop", lc.heavy, a, b.Addr("sink"), tep))
	lc.set("transport.tcp_hop_allocs_per_frame", float64(mallocs()-before)/float64(lc.repeats*lc.heavy))
	return nil
}

// reframe re-encodes the own stream with sequence numbers no earlier
// repeat used, for layers that drop a request id they have seen.
func (lc *layerCtx) reframe(round int) [][]byte {
	frames := make([][]byte, lc.heavy)
	for i := range frames {
		req := lc.reqs[i]
		req.Seq = uint64(round*lc.heavy + i + 1)
		frames[i] = command.AppendRequest(nil, &req)
	}
	return frames
}

func driveProxy(lc *layerCtx) error {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	groups := []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"g0/coord0"}}}
	leader, err := net.Listen("g0/coord0")
	if err != nil {
		return err
	}
	p, err := proxy.Start(proxy.Config{Addr: "proxy0", Groups: groups, Transport: net})
	if err != nil {
		return err
	}
	defer p.Close()
	sender := multicast.NewSender(net, groups)
	sender.UseProxies([]transport.Addr{"proxy0"})

	round := 0
	lc.set("proxy.seal_ns_per_cmd", lc.repeat("proxy.seal", func(chunk func(int, func())) {
		frames := lc.reframe(round)
		round++
		chunk(lc.heavy, func() {
			go func() {
				for _, f := range frames {
					_ = sender.Multicast(0, f)
				}
			}()
			for sealed := 0; sealed < lc.heavy; {
				_, batch, ok := paxos.ParseProposeBatch(<-leader.Recv())
				if ok {
					sealed += len(batch.Items)
				}
			}
		})
	}))
	return nil
}

// bareGroup is one Paxos group on its own network: a coordinator, three
// acceptors and a learner.
type bareGroup struct {
	sender  *multicast.Sender
	learner *paxos.Learner
	close   func()
}

func startBareGroups(net *transport.MemNetwork, n int, skip time.Duration) ([]*bareGroup, error) {
	var groups []*bareGroup
	for g := 0; g < n; g++ {
		gid := uint32(g)
		coord := transport.Addr(fmt.Sprintf("g%d/coord0", g))
		learnerAddr := transport.Addr(fmt.Sprintf("g%d/learner", g))
		var accAddrs []transport.Addr
		var closers []func() error
		for i := 0; i < acceptors; i++ {
			addr := transport.Addr(fmt.Sprintf("g%d/acc%d", g, i))
			a, err := paxos.StartAcceptor(paxos.AcceptorConfig{GroupID: gid, ID: uint32(i), Addr: addr, Transport: net})
			if err != nil {
				return nil, err
			}
			accAddrs = append(accAddrs, addr)
			closers = append(closers, a.Close)
		}
		l, err := paxos.StartLearner(paxos.LearnerConfig{GroupID: gid, Addr: learnerAddr, Transport: net, Coordinators: []transport.Addr{coord}})
		if err != nil {
			return nil, err
		}
		co, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
			GroupID: gid, Candidates: []transport.Addr{coord}, Acceptors: accAddrs,
			Learners: []transport.Addr{learnerAddr}, Transport: net,
			SkipInterval: skip, SkipSlots: 256,
		})
		if err != nil {
			return nil, err
		}
		closers = append(closers, co.Close, l.Close)
		groups = append(groups, &bareGroup{
			sender:  multicast.NewSender(net, []multicast.GroupConfig{{ID: gid, Coordinators: []transport.Addr{coord}}}),
			learner: l,
			close: func() {
				for _, c := range closers {
					_ = c()
				}
			},
		})
	}
	return groups, nil
}

func drivePaxos(lc *layerCtx) error {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	groups, err := startBareGroups(net, 1, 0)
	if err != nil {
		return err
	}
	g := groups[0]
	defer g.close()
	cursor := g.learner.NewCursor()

	// Ordering is paced by the coordinator's flush timer, so a fifth of
	// the stream is enough to time it.
	n := max(lc.ops/5, orderWindow)
	lc.set("paxos.order_ns_per_cmd", lc.repeat("paxos.order", func(chunk func(int, func())) {
		chunk(n, func() {
			tokens := make(chan struct{}, orderWindow)
			go func() {
				for i := 0; i < n; i++ {
					tokens <- struct{}{}
					_ = g.sender.Multicast(0, lc.frames[i])
				}
			}()
			for delivered := 0; delivered < n; {
				b, _, ok := cursor.Next()
				if !ok {
					return
				}
				for range b.Items {
					<-tokens
					delivered++
				}
			}
		})
	}))

	// One proposal in flight: each sample is a full ordering round trip.
	samples := max(lc.ops/500, 20)
	var p50s []float64
	for r := 0; r < lc.repeats; r++ {
		id := lc.log.start("paxos.order_latency", lc.root, samples)
		lat := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			_ = g.sender.Multicast(0, lc.frames[i])
			for {
				b, _, ok := cursor.Next()
				if !ok {
					return fmt.Errorf("learner closed")
				}
				if len(b.Items) > 0 {
					break
				}
			}
			lat = append(lat, time.Since(t0))
		}
		lc.log.end(id)
		p50s = append(p50s, durationQuantilesUs(lat, 0.5)[0])
	}
	lc.set("paxos.order_latency_us_p50", median(p50s))
	return nil
}

// driveMerge times multicast.Merger.Next over two learners' cursors that
// were fed before the clock starts, so the number is the merge's own cost
// per delivered item and not the wait for a stream.
func driveMerge(lc *layerCtx) error {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	groups, err := startBareGroups(net, 2, time.Millisecond)
	if err != nil {
		return err
	}
	var cursors []*paxos.Cursor
	var fed []*paxos.Cursor
	for _, g := range groups {
		defer g.close()
		cursors = append(cursors, g.learner.NewCursor())
		fed = append(fed, g.learner.NewCursor())
	}
	merger := multicast.NewMerger(cursors, 256)
	perGroup := max(lc.ops/8, 512)
	lc.set("multicast.merge_ns_per_item", lc.repeat("multicast.merge", func(chunk func(int, func())) {
		for gi, g := range groups {
			for i := 0; i < perGroup; i++ {
				_ = g.sender.Multicast(0, lc.frames[i])
			}
			for got := 0; got < perGroup; {
				b, _, ok := fed[gi].Next()
				if !ok {
					return
				}
				got += len(b.Items)
			}
		}
		// The tail of a repeat would wait for skip padding; leave the
		// last fifth in the cursors for the next repeat to start on.
		take := 2 * perGroup * 4 / 5
		chunk(take, func() {
			for i := 0; i < take; i++ {
				if _, ok := merger.Next(); !ok {
					return
				}
			}
		})
	}))
	return nil
}

// freshRequests builds one new *command.Request per operation: the engines
// keep reading a request after its execution hook returns, so a driver
// that reused requests in place would race them (ROADMAP blocker 0).
func freshRequests(ops []workload.Op, client uint64) []*command.Request {
	reqs := make([]*command.Request, len(ops))
	for i, o := range ops {
		reqs[i] = &command.Request{Client: client, Seq: uint64(i + 1), Cmd: o.Cmd, Input: o.Input}
	}
	return reqs
}

// engineRun submits the key-value stream to a fresh engine in batches and
// waits until a no-op service has executed all of it.
func (lc *layerCtx) engineRun(name string, kind sched.SchedulerKind) (nsPerCmd, allocsPerCmd float64, err error) {
	var allocs uint64
	nsPerCmd = lc.repeat(name, func(chunk func(int, func())) {
		net := transport.NewMemNetwork(1)
		defer net.Close()
		var executed atomic.Int64
		done := make(chan struct{})
		total := int64(lc.heavy)
		engine, e := sched.StartEngine(sched.Config{
			Kind: kind, Workers: workers, Compiled: lc.kvCG, Transport: net,
			Exec: func(*command.Request) []byte {
				if executed.Add(1) == total {
					close(done)
				}
				return nil
			},
		})
		if e != nil {
			err = e
			return
		}
		defer engine.Close()
		reqs := freshRequests(lc.kv[:lc.heavy], 1)
		before := mallocs()
		chunk(len(reqs), func() {
			for lo := 0; lo < len(reqs); lo += engineBatch {
				engine.SubmitBatch(reqs[lo:min(lo+engineBatch, len(reqs))])
			}
			<-done
		})
		allocs += mallocs() - before
	})
	return nsPerCmd, float64(allocs) / float64(lc.repeats*lc.heavy), err
}

func driveSched(lc *layerCtx) error {
	ns, allocs, err := lc.engineRun("sched.index", sched.KindIndex)
	if err != nil {
		return err
	}
	lc.set("sched.index_ns_per_cmd", ns)
	lc.set("sched.index_allocs_per_cmd", allocs)
	ns, _, err = lc.engineRun("sched.scan", sched.KindScan)
	if err != nil {
		return err
	}
	lc.set("sched.scan_ns_per_cmd", ns)
	return nil
}

func newKVStore() *kvstore.Store {
	st := kvstore.New()
	st.Preload(kvKeys)
	return st
}

func driveKVStore(lc *layerCtx) error {
	st := newKVStore()
	lc.set("kvstore.exec_ns_per_cmd", lc.perOp("kvstore.exec", len(lc.kv), func(i int) {
		st.Execute(lc.kv[i].Cmd, lc.kv[i].Input)
	}))
	epoch := mvstore.Committed
	lc.set("kvstore.speculate_ns_per_cmd", lc.perOp("kvstore.speculate", len(lc.kv), func(i int) {
		epoch++
		st.SpeculateAt(epoch, lc.kv[i].Cmd, lc.kv[i].Input)
		st.Commit(epoch)
	}))
	return nil
}

func driveNetFS(lc *layerCtx) error {
	svc := lc.fsService
	lc.set("netfs.exec_ns_per_cmd", lc.perOp("netfs.exec", lc.heavy, func(i int) {
		svc.Execute(lc.fs[i].Cmd, lc.fs[i].Input)
	}))
	// The client side of the codec: pack the arguments into a command
	// input, and unpack them as the executing worker does.
	type call struct {
		path string
		args []byte
	}
	calls := make([]call, lc.heavy)
	for i, o := range lc.fs[:lc.heavy] {
		path, args, ok := netfs.DecodeInput(o.Input)
		if !ok {
			return fmt.Errorf("fs stream op %d does not decode", i)
		}
		calls[i] = call{path, args}
	}
	lc.set("netfs.codec_ns_per_cmd", lc.perOp("netfs.codec", len(calls), func(i int) {
		netfs.DecodeInput(netfs.EncodeInput(calls[i].path, calls[i].args))
	}))
	return nil
}

func driveMVStore(lc *layerCtx) error {
	value := make([]byte, 8)
	keyOf := func(i int) uint64 { return binary.LittleEndian.Uint64(lc.kv[i].Input) }
	for _, m := range []struct {
		metric string
		finish func(s *mvstore.Store[uint64, []byte], e mvstore.Epoch)
	}{
		{"mvstore.commit_ns_per_key", func(s *mvstore.Store[uint64, []byte], e mvstore.Epoch) { s.Commit(e) }},
		{"mvstore.abort_ns_per_key", func(s *mvstore.Store[uint64, []byte], e mvstore.Epoch) { s.Abort(e) }},
	} {
		lc.set(m.metric, lc.repeat(m.metric, func(chunk func(int, func())) {
			s := mvstore.New[uint64, []byte](mvstore.MapBase[uint64, []byte]{}, nil)
			epoch := mvstore.Committed
			for lo := 0; lo < len(lc.kv); lo += layerChunk {
				hi := min(lo+layerChunk, len(lc.kv))
				first := epoch + 1
				for i := lo; i < hi; i++ {
					epoch++
					s.Put(epoch, keyOf(i), value)
				}
				chunk(hi-lo, func() {
					for e := first; e <= epoch; e++ {
						m.finish(s, e)
					}
				})
			}
		}))
	}
	return nil
}

func driveOptimistic(lc *layerCtx) error {
	for _, m := range []struct {
		metric    string
		speculate bool
	}{
		{"optimistic.hit_ns_per_cmd", true},
		{"optimistic.miss_ns_per_cmd", false},
	} {
		var failed error
		lc.set(m.metric, lc.repeat(m.metric, func(chunk func(int, func())) {
			net := transport.NewMemNetwork(1)
			defer net.Close()
			x, err := optimistic.StartExecutor(optimistic.ExecutorConfig{
				Workers: workers, Service: newKVStore(), Compiled: lc.kvCG,
				Transport: net, Scheduler: sched.KindIndex,
			})
			if err != nil {
				failed = err
				return
			}
			defer x.Close()
			reqs := freshRequests(lc.kv[:lc.heavy], 1)
			chunk(len(reqs), func() {
				for lo := 0; lo < len(reqs); lo += engineBatch {
					batch := reqs[lo:min(lo+engineBatch, len(reqs))]
					if m.speculate {
						x.Speculate(batch)
					}
					x.Commit(batch)
				}
			})
			if c := x.Counters(); c.Decided() != uint64(len(reqs)) {
				failed = fmt.Errorf("%s: %d of %d commands reconciled", m.metric, c.Decided(), len(reqs))
			}
		}))
		if failed != nil {
			return failed
		}
	}
	return nil
}

func driveCheckpoint(lc *layerCtx) error {
	st := newKVStore()
	d := checkpoint.NewDriver(checkpoint.Config{Interval: 1, Retain: 1}, checkpoint.NewStore(1),
		func() ([]byte, bool) { return st.Snapshot(), true }, nil)
	lc.set("checkpoint.snapshot_ns_per_key", lc.repeat("checkpoint.snapshot", func(chunk func(int, func())) {
		chunk(kvKeys, d.Marker(1))
	}))
	cp, ok := d.Store().Latest()
	if !ok {
		return fmt.Errorf("no checkpoint was stored")
	}
	var failed error
	lc.set("checkpoint.restore_ns_per_key", lc.repeat("checkpoint.restore", func(chunk func(int, func())) {
		fresh := kvstore.New()
		chunk(kvKeys, func() {
			if err := fresh.Restore(cp.State); err != nil {
				failed = err
			}
		})
	}))
	return failed
}

func driveDedup(lc *layerCtx) error {
	out := []byte{kvstore.OK}
	round := uint64(0)
	lc.set("dedup.lookup_record_ns_per_cmd", lc.repeat("dedup.lookup_record", func(chunk func(int, func())) {
		t := dedup.NewTable(512)
		round++
		for lo := 0; lo < lc.ops; lo += layerChunk {
			hi := min(lo+layerChunk, lc.ops)
			chunk(hi-lo, func() {
				for i := lo; i < hi; i++ {
					seq := uint64(i + 1)
					if _, dup := t.Lookup(round, seq); !dup {
						t.Record(round, seq, out)
					}
				}
			})
		}
	}))
	return nil
}

// nullCall answers at once: the generator measured against it pays for
// everything but the system.
type nullCall struct{}

func (nullCall) Wait() ([]byte, error) { return nil, nil }

// driveGenerator runs the closed loop against a null invoker and reports
// the process CPU the generator itself costs per command: producing the
// operation, the sender-to-waiter hand-off and the bookkeeping.
func driveGenerator(lc *layerCtx) error {
	var perCmd []float64
	for r := 0; r < lc.repeats; r++ {
		id := lc.log.start("harness.generator", lc.root, lc.heavy)
		load := &connLoad{
			submit:    func(command.ID, []byte) (waiter, error) { return nullCall{}, nil },
			stream:    lc.newStream(),
			skipCheck: true,
		}
		cpu0, err0 := processCPU()
		res := load.closedLoopOps(closedWindow, lc.heavy)
		cpu1, err1 := processCPU()
		lc.log.end(id)
		if err := errors.Join(err0, err1); err != nil {
			return err
		}
		cpu := cpu1 - cpu0
		if res.failed > 0 || res.attempted != int64(lc.heavy) {
			return fmt.Errorf("null invoker: %d attempted, %d failed", res.attempted, res.failed)
		}
		perCmd = append(perCmd, float64(cpu.Nanoseconds())/1e3/float64(lc.heavy))
	}
	lc.set("harness.gen_cpu_us_per_cmd", median(perCmd))
	return nil
}
