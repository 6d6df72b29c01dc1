package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json, as far as this program reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges b against base a: worse or better when it differs by
// more than bound as a share of a, in the metric's direction.
func verdict(a, b, bound float64, better string) string {
	worse := b - a
	if better == "higher" {
		worse = a - b
	}
	switch {
	case worse > bound*a:
		return "worse"
	case -worse > bound*a:
		return "better"
	}
	return "ok"
}

// compareRecords prints, per workload and end-to-end metric, both
// values, their ratio with A as its base, and the verdict against the
// bound in the spec.
func compareRecords(w io.Writer, specPath, pathA, pathB string) error {
	var spec benchSpec
	var a, b record
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (rev %s, seed %d), B = %s (rev %s, seed %d); ratio = B/A\n",
		pathA, a.Env.Revision, a.Env.Seed, pathB, b.Env.Revision, b.Env.Seed)
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Results[wl.Name], b.Results[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from a record", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s %s is missing from a record", wl.Name, m.Name)
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %8.4f %5.0f%%  %s\n", wl.Name, m.Name,
				va.Value, vb.Value, vb.Value/va.Value, m.Bound*100, verdict(va.Value, vb.Value, m.Bound, m.Better))
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-15s ops_failed: A %d, B %d\n", wl.Name, ra.Failed, rb.Failed)
		}
	}
	return nil
}
