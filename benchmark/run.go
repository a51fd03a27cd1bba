package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	w       *workloadDef
	seed    int64
	seconds time.Duration // total measuring time, divided over the trials
	trials  int
	// setups is the number of further set-ups that are timed and torn
	// down at once.
	setups int
	traced bool // also produce the per-layer sheet
	// layerOps is the length of the stream the layer drivers replay.
	layerOps int
	// layerRepeats is how often each layer driver runs.
	layerRepeats int
	outDir       string
}

// runResult is what one workload run measured.
type runResult struct {
	cfg       runConfig
	trials    []trialResult
	untuned   []trialResult // --trace 1 runs of a workload with a tune
	setups    []trialResult // the further set-ups
	traced    *trialResult
	attempted int64
	failed    int64
	correct   bool
	endToEnd  map[string]float64
	perLayer  map[string]float64
	problems  []string
}

// In a --trace 1 run the traced trial gets extraShare of the measuring
// time, the untuned trials of a workload that has a tune get as much, and
// the measured trials share the rest.
const extraShare = 0.25

// run executes the trials of one workload, each on a fresh cluster with
// seed+trial, and reduces them to the declared metrics.
func run(cfg runConfig) *runResult {
	res := &runResult{cfg: cfg, correct: true}
	extra := time.Duration(0)
	if cfg.traced {
		extra = time.Duration(float64(cfg.seconds) * extraShare)
	}
	probe := cfg.traced && cfg.w.tune != nil
	rest := cfg.seconds - extra
	if probe {
		rest -= extra
	}
	note := func(label string, t *trialResult) {
		res.attempted += t.attempted
		res.failed += t.failed
		if t.err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", label, t.err))
		}
	}
	ph := splitSeconds(rest/time.Duration(cfg.trials), kindMeasured)
	for i := 0; i < cfg.trials; i++ {
		runtime.GC()
		t := runTrialGuarded(cfg.w, cfg.seed+int64(i), ph, kindMeasured, cfg.outDir)
		note(fmt.Sprintf("trial %d", i), &t)
		res.trials = append(res.trials, t)
	}
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t := runTrialGuarded(cfg.w, cfg.seed+int64(i), phases{}, kindSetup, cfg.outDir)
		note(fmt.Sprintf("set-up %d", i), &t)
		res.setups = append(res.setups, t)
	}
	res.endToEnd = endToEndMetrics(res.trials, res.setups)
	if cfg.traced {
		// Product-default trials: the measured ones, unless the workload
		// tunes the defaults away.
		defaults := res.trials
		if probe {
			res.untuned = res.untunedTrials(splitSeconds(extra/time.Duration(cfg.trials), kindUntuned))
			defaults = res.untuned
		}
		runtime.GC()
		t := runTrialGuarded(cfg.w, cfg.seed+int64(2*cfg.trials), splitSeconds(extra, kindTraced), kindTraced, cfg.outDir)
		note("traced trial", &t)
		res.traced = &t

		values := map[string]float64{}
		lc, err := newLayerCtx(cfg.w, cfg.seed, cfg.layerOps, cfg.layerRepeats)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("layer drivers: %v", err))
		} else {
			res.problems = append(res.problems, runLayerDrivers(lc, cfg.outDir)...)
			values = lc.snapshot()
			res.dump("spans", lc.log.snapshot())
		}
		if t.traced != nil {
			res.dump("registry", t.traced.snapshot)
		}
		res.perLayer = perLayerMetrics(res, defaults, values)
	}
	if len(res.problems) > 0 {
		res.correct = false
	}
	return res
}

// untunedTrials runs the workload's trials again without its tune, closed
// loop only. They are a probe: what they attempt and fail is printed and
// not counted in the run's result, because failing is what the tune is
// there to prevent; a trial that ends in an error is one that stalled.
// Only a trial abandoned at its deadline ends the probe and fails the
// run, since its cluster is still running.
func (res *runResult) untunedTrials(ph phases) []trialResult {
	cfg := res.cfg
	var trials []trialResult
	for i := 0; i < cfg.trials; i++ {
		runtime.GC()
		t := runTrialGuarded(cfg.w, cfg.seed+int64(cfg.trials+i), ph, kindUntuned, cfg.outDir)
		if t.hung {
			res.problems = append(res.problems, fmt.Sprintf("untuned trial %d: %v", i, t.err))
			return nil
		}
		trials = append(trials, t)
	}
	return trials
}

// dump writes one of the run's artifacts to the out directory.
func (res *runResult) dump(kind string, v any) {
	name := fmt.Sprintf("%s-%s-seed%d.json", kind, res.cfg.w.name, res.cfg.seed)
	if err := writeJSON(res.cfg.outDir, name, v); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s not written: %v\n", name, err)
	}
}

// good returns the trials that ran to the end.
func good(trials []trialResult) []trialResult {
	var out []trialResult
	for _, t := range trials {
		if t.err == nil {
			out = append(out, t)
		}
	}
	return out
}

// endToEndMetrics reduces the trials to the end-to-end metrics: each is
// the median over the trials, setup_s over the set-up trials as well.
func endToEndMetrics(trials, setups []trialResult) map[string]float64 {
	var kcps, p50, p90, cpu, setup []float64
	for _, t := range good(trials) {
		kcps = append(kcps, t.kcps())
		cpu = append(cpu, t.cpuUsPerCmd())
		setup = append(setup, t.setupS)
		p50 = append(p50, t.openP50)
		p90 = append(p90, t.openP90)
	}
	for _, t := range good(setups) {
		setup = append(setup, t.setupS)
	}
	return map[string]float64{
		"throughput_kcps": median(kcps),
		"latency_p50_us":  median(p50),
		"latency_p90_us":  median(p90),
		"cpu_us_per_cmd":  median(cpu),
		"rss_peak_mb":     rssPeakMB(),
		"setup_s":         median(setup),
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM): the peak over
// everything the process has run, which is why main gives every workload
// run a process of its own. It is NaN, a missing metric, when it cannot be
// read.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
