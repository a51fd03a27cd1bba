package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// BENCHMARK.json keeps to the limits of its contract, so a manifest the
// driver would refuse cannot be committed.
func TestManifestIsValid(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("path %q", p)
		}
		if st, err := os.Stat("../" + p); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository: %v", p, err)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest declares %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	metric := func(kind string, d manifestMetric, bounded bool) {
		name(kind, d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		switch {
		case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		case !bounded && d.Bound != nil:
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		metric("end-to-end metric", d, true)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		metric("per-layer metric", d, false)
	}
}

// A smoke run of every workload emits exactly the declared names: no
// undeclared metric and no missing one, end to end and per layer. This is
// the check whose absence let an invalid manifest ship once.
func TestSmokeRunEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cfg := runConfig{w: w, seed: 7, traced: true, outDir: t.TempDir()}.smoke()
		res := run(cfg)
		if !res.correct || res.failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d: %v", w.name, res.correct, res.failed, res.attempted, res.problems)
		}
		if _, err := declare(m.EndToEnd, res.endToEnd); err != nil {
			t.Errorf("%s end to end: %v", w.name, err)
		}
		if _, err := declare(m.PerLayer, res.perLayer); err != nil {
			t.Errorf("%s per layer: %v", w.name, err)
		}
		for _, kind := range []string{"spans", "registry"} {
			if matches, _ := os.ReadDir(cfg.outDir); !hasPrefix(matches, kind+"-"+w.name) {
				t.Errorf("%s: no %s file in the out directory", w.name, kind)
			}
		}
	}
}

func hasPrefix(entries []os.DirEntry, prefix string) bool {
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			return true
		}
	}
	return false
}

// A layer driver that does not return is abandoned at its deadline: its
// goroutines are dumped, its metric stays missing (which fails the run
// instead of printing 0) and the next driver still runs.
func TestHungLayerDriverIsAbandoned(t *testing.T) {
	savedDrivers, savedDeadline := layerDrivers, driverDeadline
	defer func() { layerDrivers, driverDeadline = savedDrivers, savedDeadline }()
	driverDeadline = 50 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	layerDrivers = []layerDriver{
		{"stuck", func(lc *layerCtx) error { <-release; lc.set("stuck.metric", 0); return nil }},
		{"fine", func(lc *layerCtx) error { lc.set("fine.metric", 1); return nil }},
	}
	lc := &layerCtx{log: newSpanLog(), values: map[string]float64{}}
	lc.root = lc.log.start("layers:test", -1, 0)
	outDir := t.TempDir()
	problems := runLayerDrivers(lc, outDir)
	if len(problems) != 1 || !strings.Contains(problems[0], "stuck") {
		t.Fatalf("problems %v, want one naming the stuck driver", problems)
	}
	values := lc.snapshot()
	if _, ok := values["stuck.metric"]; ok {
		t.Error("the abandoned driver's metric was reported")
	}
	if values["fine.metric"] != 1 {
		t.Error("the driver after the stuck one did not run")
	}
	if entries, _ := os.ReadDir(outDir); !hasPrefix(entries, "hang-layer-stuck") {
		t.Error("no goroutine dump was written")
	}
	if _, err := declare([]manifestMetric{{Name: "stuck.metric"}, {Name: "fine.metric"}}, values); err == nil {
		t.Error("a missing metric did not fail the declaration")
	}
}
