// Command benchmark is this repository's one source of performance
// numbers: four workloads across the three replica runtimes, measured end
// to end (closed-loop throughput, open-loop latency from the due time,
// CPU per command, peak memory, set-up time) and layer by layer. See
// README.md for why each workload exists and how the metrics interact.
//
// The BENCHMARK.json contract drives it as
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// which prints one JSON object as the last line of standard output: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Without --workload it runs all four, each in a process of its own; -aa
// runs each twice, interleaved, and compares the two sets against the
// manifest's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// trialsPerRun is the number of measured trials, each on a fresh
	// cluster; every end-to-end value is the median over them.
	trialsPerRun = 5
	// setupsPerRun is the number of further set-ups a run times: a
	// key-value set-up takes 20 to 70 ms, and the median of five of those
	// moved by a quarter from run to run.
	setupsPerRun = 10
	// outDir receives spans, registry snapshots and goroutine dumps.
	outDir = "benchmark/out"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "measuring time of one run (default: the manifest's run_seconds)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing at the product default; 1: per-layer metrics from layer drivers and a fully traced trial")
		aa           = flag.Bool("aa", false, "run every workload twice, interleaved, and compare the two sets against the bounds")
		smoke        = flag.Bool("smoke", false, "one short trial per workload and short layer drivers: checks the plumbing, not the numbers")
	)
	flag.Parse()

	m, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workloadDef{w}
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}

	if *workloadName != "" && !*aa {
		cfg := runConfig{
			w:            selected[0],
			seed:         *seed,
			seconds:      time.Duration(*seconds * float64(time.Second)),
			trials:       trialsPerRun,
			setups:       setupsPerRun,
			traced:       *trace != 0,
			layerOps:     100_000,
			layerRepeats: 5,
			outDir:       outDir,
		}
		if *smoke {
			cfg = cfg.smoke()
		}
		fmt.Fprintln(os.Stderr, stamp(*seed))
		if !report(m, run(cfg)) {
			return 1
		}
		return 0
	}

	// More than one run: each gets a process of its own, so that its
	// rss_peak_mb (the process's high-water mark) is its own.
	if *aa {
		*trace = 0 // the bounds are on the end-to-end metrics
	}
	child := func(w *workloadDef) (*output, bool) {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace)}
		if *smoke {
			args = append(args, "-smoke")
		}
		return runChild(args)
	}
	code := 0
	for _, w := range selected {
		if !*aa {
			if _, ok := child(w); !ok {
				code = 1
			}
			continue
		}
		a, okA := child(w)
		b, okB := child(w)
		if !okA || !okB || !compareAA(m, w.name, a, b) {
			code = 1
		}
	}
	return code
}

// runChild runs this program again with args, passes its output on and
// returns the result it printed; ok is false when it printed none or
// exited non-zero.
func runChild(args []string) (res *output, ok bool) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	os.Stdout.Write(stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run %v: %v\n", args, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	res = new(output)
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), res); jerr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run %v printed no result: %v\n", args, jerr)
		return nil, false
	}
	return res, err == nil
}

// smoke shrinks a run to one short trial per kind and one short pass of
// every layer driver.
func (cfg runConfig) smoke() runConfig {
	cfg.trials = 1
	cfg.setups = 1
	cfg.seconds = 600 * time.Millisecond
	if cfg.traced {
		cfg.seconds = 800 * time.Millisecond
	}
	cfg.layerOps = 2_000
	cfg.layerRepeats = 1
	return cfg
}

// stamp identifies what produced a result.
func stamp(seed int64) string {
	// Only a checkout that is itself a git repository is asked: git would
	// otherwise search the parent directories and name someone else's
	// commit.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return fmt.Sprintf("# commit=%s go=%s gomaxprocs=%d nproc=%d kernel=%s seed=%d connections=%d\n"+
		"# messages are delivered with zero injected delay, so latency is processor time only",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, seed, connections())
}

// output is the last line of standard output.
type output struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// report prints a run: a readable sheet on standard error, the JSON object
// on standard output. It returns false when the run failed a check.
func report(m *manifest, res *runResult) bool {
	declared, values := m.EndToEnd, res.endToEnd
	if res.cfg.traced {
		declared, values = m.PerLayer, res.perLayer
	}
	metrics, err := declare(declared, values)
	if err != nil {
		res.correct = false
		res.problems = append(res.problems, err.Error())
	}
	if res.attempted < 1 {
		res.attempted, res.failed = 1, 1
	}

	fmt.Fprintf(os.Stderr, "== %s  seed=%d  trials=%d  measuring=%v\n", res.cfg.w.name, res.cfg.seed, res.cfg.trials, res.cfg.seconds)
	for i, t := range res.trials {
		if t.err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "   trial %d: %.1f kcps  %.2f us cpu/cmd  setup %.3fs  open loop p50 %.0f  p90 %.0f  p95 %.0f  p99 %.0f us of %d samples\n",
			i, t.kcps(), t.cpuUsPerCmd(), t.setupS, t.openP50, t.openP90, t.openP95, t.openP99, t.openSamples)
	}
	if len(res.setups) > 0 {
		fmt.Fprint(os.Stderr, "   further set-ups:")
		for _, t := range good(res.setups) {
			fmt.Fprintf(os.Stderr, " %.3fs", t.setupS)
		}
		fmt.Fprintln(os.Stderr)
	}
	for i, t := range res.untuned {
		if t.err != nil {
			fmt.Fprintf(os.Stderr, "   untuned trial %d: %v\n", i, t.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "   untuned trial %d: %.1f kcps\n", i, t.kcps())
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "   %-40s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	fmt.Fprintf(os.Stderr, "   %-40s %14.6f (%d of %d)\n", "failed_ratio", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "   FAILED:", p)
	}

	line, err := json.Marshal(output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return res.correct && res.failed == 0
}

// compareAA prints, per end-to-end metric, the values of two runs of one
// workload with the same seed and code, their relative difference and the
// bound. It returns false when a pair differs by more than its bound in
// either direction.
func compareAA(m *manifest, workload string, a, b *output) bool {
	ok := true
	for _, d := range m.EndToEnd {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		diff := (vb - va) / va
		if d.Better == "higher" {
			diff = -diff
		}
		bound := 0.0
		if d.Bound != nil {
			bound = *d.Bound
		}
		verdict := "ok"
		if !(math.Abs(diff) <= bound) {
			verdict = "EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "A/A %-14s %-16s A=%12.4f B=%12.4f %s  B worse by %+6.2f%%  bound %4.1f%%  %s\n",
			workload, d.Name, va, vb, d.Unit, 100*diff, 100*bound, verdict)
	}
	return ok
}
