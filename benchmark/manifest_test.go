package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// manifest is BENCHMARK.json: the contract between this harness and the
// driver that runs it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func harnessManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

// TestManifestMatchesHarness pins BENCHMARK.json to the tables in
// workloads.go: the driver rejects a run whose metrics differ from the
// manifest's. UPDATE_MANIFEST=1 rewrites the file from the tables.
func TestManifestMatchesHarness(t *testing.T) {
	want, err := json.MarshalIndent(harnessManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_MANIFEST") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match the harness tables; run UPDATE_MANIFEST=1 go test -run TestManifestMatchesHarness", path)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
}
