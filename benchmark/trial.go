package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// phases are one trial's measured intervals.
type phases struct {
	warm, closed, open time.Duration
}

// trialKind is what a trial is run for.
type trialKind int

const (
	// Measured trials run the workload as defined, tracing at the product
	// default; the end-to-end metrics are their medians.
	kindMeasured trialKind = iota
	// Traced trials trace every command and attach a CPU meter.
	kindTraced
	// Untuned trials leave out the workload's tune and head start: the
	// product defaults, whose stalls are counted and not measured around.
	kindUntuned
	// Set-up trials stop once the cluster has answered its first request:
	// more samples of setup_s than the measured trials alone give.
	kindSetup
)

// splitSeconds divides a run's measuring time over its trials: a tenth
// of each trial warms up, the rest is split evenly between the closed and
// the open loop. Only measured trials have an open loop (a traced trial's
// stage histograms cannot be reset between phases, and they should
// describe one load; an untuned trial is only asked whether it stalls).
func splitSeconds(total time.Duration, kind trialKind) phases {
	warm := total / 10
	if kind != kindMeasured {
		return phases{warm: warm, closed: total - warm}
	}
	rest := (total - warm) / 2
	return phases{warm: warm, closed: rest, open: rest}
}

func (p phases) total() time.Duration { return p.warm + p.closed + p.open }

// connections is the number of client connections (= sender goroutines):
// no more than the host has processors, and no more than two.
func connections() int { return min(runtime.NumCPU(), 2) }

// trialResult is everything one trial measured.
type trialResult struct {
	err error // set when the trial failed: all its ops count as failed
	// hung is set when the trial was abandoned at its deadline, its
	// cluster still running.
	hung bool

	setupS    float64
	attempted int64
	failed    int64

	// Closed-loop phase.
	closedCmds int64 // replies inside the interval
	closedWall time.Duration
	closedCPU  time.Duration // process user+sys over the phase
	closedDone int64         // successful requests the CPU was spent on
	allocBytes uint64
	allocs     uint64
	gcPause    time.Duration

	// Open-loop phase: exact quantiles of the raw latency samples, in
	// microseconds.
	openSamples                        int
	openP50, openP90, openP95, openP99 float64
	openAttempted, openLate            int64

	traced *tracedSample
}

func (r *trialResult) kcps() float64 {
	return float64(r.closedCmds) / r.closedWall.Seconds() / 1e3
}

func (r *trialResult) cpuUsPerCmd() float64 {
	return float64(r.closedCPU.Microseconds()) / float64(r.closedDone)
}

// tracedSample is what the traced trial read off the cluster's public
// accessors over its closed-loop phase.
type tracedSample struct {
	cmds     int64
	roleBusy map[string]time.Duration
	counters map[string]float64 // registry deltas over the phase
	stageP50 [obs.NumStages]float64
	stageP99 [obs.NumStages]float64
	snapshot []obs.Sample // registry at the end of the phase
}

// trialEnv is one trial's deployment.
type trialEnv struct {
	w       *workloadDef
	cluster *psmr.Cluster
	// clusterNode hosts the cluster and clientNode the clients (tcp
	// workloads).
	clusterNode, clientNode *transport.TCPNode
	cpu                     *bench.CPUMeter

	mu       sync.Mutex
	services []markedService

	clients []*core.Client
	streams []opStream
	// submitted counts every command handed to the cluster, which is
	// what an optimistic replica must have reconciled before its state
	// may be read.
	submitted int64
	// inserted counts the head start's inserts.
	inserted int64
}

func (e *trialEnv) close() {
	for _, c := range e.clients {
		_ = c.Close()
	}
	if e.cluster != nil {
		_ = e.cluster.Close()
	}
	// The cluster closes its transport; the node is closed here as well
	// for the trial whose cluster never started.
	for _, node := range []*transport.TCPNode{e.clusterNode, e.clientNode} {
		if node != nil {
			_ = node.Close()
		}
	}
}

// setup starts the cluster and its connections and returns once the
// first reply has come back.
func (e *trialEnv) setup(seed int64, kind trialKind) error {
	w := e.w
	cfg := psmr.Config{
		Replicas:  replicas,
		Acceptors: acceptors,
		Workers:   workers,
		Spec:      w.spec(),
		NewService: func() command.Service {
			svc := w.newService()
			e.mu.Lock()
			e.services = append(e.services, svc)
			e.mu.Unlock()
			return svc
		},
	}
	w.config(&cfg)
	if w.tune != nil && kind != kindUntuned {
		w.tune(&cfg)
	}
	if kind == kindTraced {
		e.cpu = bench.NewCPUMeter()
		cfg.CPU = e.cpu
		cfg.TraceSample = 1
	}
	var err error
	if w.tcp {
		if e.clusterNode, err = transport.NewTCPNode("127.0.0.1:0"); err != nil {
			return err
		}
		cfg.Transport = e.clusterNode
		if e.clientNode, err = transport.NewTCPNode("127.0.0.1:0"); err != nil {
			return err
		}
	}
	if e.cluster, err = psmr.StartCluster(cfg); err != nil {
		return err
	}

	conns := connections()
	for c := 0; c < conns; c++ {
		var client *core.Client
		if w.tcp {
			client, err = e.remoteClient(uint64(c + 1))
		} else {
			client, err = e.cluster.NewClient()
		}
		if err != nil {
			return err
		}
		e.clients = append(e.clients, client)
	}

	for c, client := range e.clients {
		streamSeed := streamSeed(seed, c)
		if !w.fs {
			e.streams = append(e.streams, &kvStream{w: w, rng: rand.New(rand.NewSource(streamSeed))})
			continue
		}
		// Each connection opens its own files through the replicated
		// path so every replica agrees on the descriptor table.
		fsc := netfs.NewClient(client)
		var files []fsFile
		for i := c; i < fsFiles; i += conns {
			fd, err := fsc.Open(fsPath(i))
			if err != nil {
				return err
			}
			e.submitted++
			files = append(files, fsFile{path: fsPath(i), fd: fd})
		}
		e.streams = append(e.streams, newFSStream(streamSeed, files))
	}
	if !w.fs {
		if _, err := e.readKey(0); err != nil {
			return err
		}
	}
	return nil
}

// remoteClient builds a client on the clients' own TCP node by hand, the
// way cmd/psmr-kv does: the cluster's endpoint names are local to its
// node, so they are qualified with that node's host:port.
func (e *trialEnv) remoteClient(id uint64) (*core.Client, error) {
	var groups []multicast.GroupConfig
	for _, g := range e.cluster.Groups() {
		coords := make([]transport.Addr, 0, len(g.Coordinators))
		for _, c := range g.Coordinators {
			coords = append(coords, e.clusterNode.Addr(string(c)))
		}
		groups = append(groups, multicast.GroupConfig{ID: g.ID, Coordinators: coords})
	}
	cg, err := cdep.Compile(e.w.spec(), workers)
	if err != nil {
		return nil, err
	}
	return core.NewClient(core.ClientConfig{
		ID:        id,
		Sender:    multicast.NewSender(e.clientNode, groups),
		CG:        cg,
		Transport: e.clientNode,
		ReplyAddr: e.clientNode.Addr(fmt.Sprintf("client/%d", id)),
		Seed:      int64(id),
	})
}

// invoke runs one command on connection 0 outside the measured phases.
func (e *trialEnv) invoke(cmd command.ID, input []byte) ([]byte, error) {
	e.submitted++
	return e.clients[0].Invoke(cmd, input)
}

func (e *trialEnv) readKey(key uint64) (uint64, error) {
	out, err := e.invoke(kvstore.CmdRead, kvstore.EncodeKey(key))
	if err != nil {
		return 0, err
	}
	value, code := kvstore.DecodeReadOutput(out)
	if code != kvstore.OK || len(value) != 8 {
		return 0, fmt.Errorf("read %d: code %d, %d value bytes", key, code, len(value))
	}
	return binary.LittleEndian.Uint64(value), nil
}

// submitTo adapts a client to the load generator.
func submitTo(client *core.Client) submitFunc {
	return func(cmd command.ID, input []byte) (waiter, error) {
		call, err := client.Submit(cmd, input)
		if err != nil {
			return nil, err
		}
		return call, nil
	}
}

// headStart inserts the workload's head-start keys in one burst, far more
// of them in flight than a merge round has slots.
func (e *trialEnv) headStart() error {
	load := &connLoad{submit: submitTo(e.clients[0]), stream: &insertStream{}}
	res := load.closedLoopOps(1024, e.w.headStart)
	e.submitted += res.attempted
	e.inserted = res.attempted
	if res.failed > 0 {
		return fmt.Errorf("%d of %d head-start inserts failed", res.failed, res.attempted)
	}
	return nil
}

// phase runs one load phase on every connection at once.
func (e *trialEnv) phase(run func(c *connLoad) phaseResult, keepLatencies bool) phaseResult {
	results := make([]phaseResult, len(e.clients))
	var wg sync.WaitGroup
	for i, client := range e.clients {
		wg.Add(1)
		go func(i int, client *core.Client) {
			defer wg.Done()
			load := &connLoad{submit: submitTo(client), stream: e.streams[i], keepLatencies: keepLatencies}
			results[i] = run(load)
		}(i, client)
	}
	wg.Wait()
	var total phaseResult
	for _, r := range results {
		total.merge(r)
	}
	e.submitted += total.attempted
	return total
}

// verify checks the replicas' outputs after the load: values read back
// through the replicated path, then — once both replicas are quiescent —
// their state fingerprints.
func (e *trialEnv) verify() error {
	w := e.w
	wantMarkers := 1 + e.inserted // the marker and the head start are all inserts
	if w.fs {
		wantMarkers = 0
		for c, s := range e.streams {
			n, err := e.readBack(e.clients[c], s.(*fsStream))
			if err != nil {
				return err
			}
			wantMarkers += n
		}
	} else {
		if w.conserved > 0 {
			var sum, want uint64
			for k := uint64(0); k < w.conserved; k++ {
				v, err := e.readKey(k)
				if err != nil {
					return err
				}
				sum += v
				want += k
			}
			if sum != want {
				return fmt.Errorf("balance sum %d, want %d: a transfer lost or duplicated value", sum, want)
			}
		}
		out, err := e.invoke(kvstore.CmdInsert, kvstore.EncodeKeyValue(kvKeys, kvstore.EncodeKey(kvKeys)))
		if err != nil || len(out) != 1 || out[0] != kvstore.OK {
			return fmt.Errorf("marker insert: %v %v", err, out)
		}
	}

	quiet := func() bool {
		for _, svc := range e.services {
			if svc.markers() < wantMarkers {
				return false
			}
		}
		for _, c := range e.cluster.OptimisticCounters() {
			if c.Decided() < uint64(e.submitted) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !quiet(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var markers []int64
			for _, svc := range e.services {
				markers = append(markers, svc.markers())
			}
			return fmt.Errorf("replicas did not quiesce within 10s of the marker: %d commands submitted, markers executed %v of %d, optimistic counters %v",
				e.submitted, markers, wantMarkers, e.cluster.OptimisticCounters())
		}
	}
	if len(e.services) != replicas {
		return fmt.Errorf("%d services for %d replicas", len(e.services), replicas)
	}
	if f0, f1 := e.services[0].fingerprint(), e.services[1].fingerprint(); f0 != f1 {
		return fmt.Errorf("replicas diverged: fingerprints %x and %x", f0, f1)
	}
	return nil
}

// readBack reads a sample of the blocks a connection wrote and compares
// them with what it wrote there last, then sends one utimens marker per
// file, all pipelined on that connection; it returns the number of markers
// sent.
func (e *trialEnv) readBack(client *core.Client, s *fsStream) (int64, error) {
	const sampleEvery = 16
	v := &fsVerify{s: s, file: make(map[string]int, len(s.files))}
	for fi, f := range s.files {
		v.file[f.path] = fi
		for block := fi % sampleEvery; block < fsBlocks; block += sampleEvery {
			if s.last[fi][block] == 0 {
				continue
			}
			args := make([]byte, 20)
			binary.LittleEndian.PutUint64(args, f.fd)
			binary.LittleEndian.PutUint64(args[8:], uint64(block*fsIOSize))
			binary.LittleEndian.PutUint32(args[16:], fsIOSize)
			v.ops = append(v.ops, fsOp(netfs.CmdRead, f.path, args))
		}
		times := make([]byte, 16)
		binary.LittleEndian.PutUint64(times, uint64(fsTime+2))
		binary.LittleEndian.PutUint64(times[8:], uint64(fsTime+2))
		v.ops = append(v.ops, fsOp(netfs.CmdUtimens, f.path, times))
	}
	load := &connLoad{submit: submitTo(client), stream: v}
	res := load.closedLoopOps(closedWindow, len(v.ops))
	e.submitted += res.attempted
	if res.failed > 0 {
		return 0, fmt.Errorf("%d of %d blocks read back differ from the last write (or their reads or markers failed)", res.failed, res.attempted)
	}
	return int64(len(s.files)), nil
}

// processCPU returns the user and system time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runTrial runs one trial on a fresh cluster.
func runTrial(w *workloadDef, seed int64, ph phases, kind trialKind) (res trialResult) {
	env := &trialEnv{w: w}
	defer env.close()
	fail := func(err error) trialResult {
		res.err = err
		res.failed = res.attempted
		return res
	}

	start := time.Now()
	if err := env.setup(seed, kind); err != nil {
		return fail(fmt.Errorf("setup: %w", err))
	}
	res.setupS = time.Since(start).Seconds()
	if kind == kindSetup {
		return res
	}
	if w.headStart > 0 && kind != kindUntuned {
		if err := env.headStart(); err != nil {
			return fail(err)
		}
	}

	count := func(p phaseResult) {
		res.attempted += p.attempted
		res.failed += p.failed
	}
	count(env.phase(func(c *connLoad) phaseResult { return c.closedLoop(w.closedWindow(), ph.warm) }, false))

	var before, after runtime.MemStats
	var regBefore map[string]float64
	if kind == kindTraced {
		regBefore = env.cluster.Registry().Flatten()
		env.cpu.Reset()
	}
	runtime.ReadMemStats(&before)
	cpu0, err0 := processCPU()
	closed := env.phase(func(c *connLoad) phaseResult { return c.closedLoop(w.closedWindow(), ph.closed) }, false)
	cpu1, err1 := processCPU()
	runtime.ReadMemStats(&after)
	count(closed)
	if err := errors.Join(err0, err1); err != nil {
		return fail(err)
	}
	res.closedCmds = closed.completed
	res.closedWall = ph.closed
	res.closedCPU = cpu1 - cpu0
	res.closedDone = closed.attempted - closed.failed
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.allocs = after.Mallocs - before.Mallocs
	res.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if res.closedDone == 0 {
		return fail(errors.New("closed loop completed no request"))
	}
	if kind == kindTraced {
		res.traced = sampleTraced(env, regBefore, res.closedDone)
	}

	if ph.open > 0 {
		rate := w.rate / float64(len(env.clients))
		open := env.phase(func(c *connLoad) phaseResult { return c.openLoop(rate, ph.open) }, true)
		count(open)
		res.openSamples = len(open.latencies)
		q := durationQuantilesUs(open.latencies, 0.50, 0.90, 0.95, 0.99)
		res.openP50, res.openP90, res.openP95, res.openP99 = q[0], q[1], q[2], q[3]
		res.openAttempted = open.attempted
		res.openLate = open.late
	}

	if res.failed > 0 {
		return fail(fmt.Errorf("%d of %d requests failed, timed out or got a wrong reply", res.failed, res.attempted))
	}
	if err := env.verify(); err != nil {
		return fail(fmt.Errorf("verify: %w", err))
	}
	return res
}

// sampleTraced reads the per-layer sources off the traced trial's cluster.
func sampleTraced(env *trialEnv, regBefore map[string]float64, cmds int64) *tracedSample {
	s := &tracedSample{cmds: cmds, counters: make(map[string]float64)}
	s.roleBusy, _ = env.cpu.Snapshot()
	s.snapshot = env.cluster.Metrics()
	for name, v := range env.cluster.Registry().Flatten() {
		s.counters[name] = v - regBefore[name]
	}
	tr := env.cluster.Tracer()
	for _, st := range obs.Stages() {
		h := tr.StageHistogram(st)
		s.stageP50[st] = float64(h.Quantile(0.50)) / 1e3
		s.stageP99[st] = float64(h.Quantile(0.99)) / 1e3
	}
	return s
}

// runTrialGuarded runs a trial under a deadline. A trial that does not
// return in time has its goroutines dumped to the out directory and is
// reported as failed; the harness moves on (the stuck trial's goroutines
// are abandoned, which a hung cluster leaves no way around).
func runTrialGuarded(w *workloadDef, seed int64, ph phases, kind trialKind, outDir string) trialResult {
	done := make(chan trialResult, 1)
	go func() { done <- runTrial(w, seed, ph, kind) }()
	deadline := ph.total() + 45*time.Second
	select {
	case res := <-done:
		return res
	case <-time.After(deadline):
		path := dumpGoroutines(outDir, fmt.Sprintf("hang-%s-seed%d", w.name, seed))
		return trialResult{
			err:       fmt.Errorf("trial exceeded its %v deadline; goroutines dumped to %s", deadline, path),
			hung:      true,
			attempted: 1,
			failed:    1,
		}
	}
}

// dumpGoroutines writes every goroutine's stack to outDir/name.txt.
func dumpGoroutines(outDir, name string) string {
	path := filepath.Join(outDir, name+".txt")
	err := os.MkdirAll(outDir, 0o755)
	if err == nil {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = pprof.Lookup("goroutine").WriteTo(f, 2)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return "(not written: " + err.Error() + ")"
	}
	return path
}
