package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the benchmark's public contract:
// which workloads exist, which metrics are gated and by what bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchSpec reads BENCHMARK.json from the repository root.
func loadBenchSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return readBenchSpec(filepath.Join(root, "BENCHMARK.json"))
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// loadRuns reads a results set: one run file, or every run-*.json of a
// directory, in name order.
func loadRuns(path string) ([]*runRecord, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("%s holds no run-*.json", path)
		}
	}
	var runs []*runRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, &rec)
	}
	return runs, nil
}
