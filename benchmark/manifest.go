package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// manifest mirrors BENCHMARK.json, the one place metric names, units and
// regression bounds are declared. The program computes values by name and
// takes the units from here, so what it prints cannot drift from what the
// manifest promises: a declared metric with no value, or a value with no
// declaration, fails the run.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the working directory (the
// checkout root, where the manifest's command runs) or its parent (the
// benchmark's own directory, where its tests run).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m := new(manifest)
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	return nil, firstErr
}

// measured is one metric value as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declare pairs computed values with the declared metrics. Every declared
// metric must have a finite value and every value must be declared.
func declare(declared []manifestMetric, values map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(declared))
	known := make(map[string]bool, len(declared))
	var problems []string
	for _, d := range declared {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, "missing "+d.Name)
			continue
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !known[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return out, fmt.Errorf("metrics do not match BENCHMARK.json: %v", problems)
	}
	return out, nil
}
