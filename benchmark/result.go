package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// link names the network between the parties. Every number in a result
// file was measured over it; a latency- or bandwidth-shaped link is a
// different fingerprint.
const link = "loopback-tcp"

// fingerprint is what a timing depends on besides the code. Two result
// files compare timings only when every field but the commit agrees.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Link       string `json:"link"`
	Commit     string `json:"git_commit"`
}

// id digests the fields that decide whether timings are comparable.
func (f fingerprint) id() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s|%s|%s|%s",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH, f.Link)))
	return hex.EncodeToString(sum[:4])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit is the revision the toolchain stamped into the binary, marked
// +dirty when the work tree had uncommitted changes; a checkout that is
// not a git repository has none.
func gitCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func currentFingerprint() fingerprint {
	return fingerprint{CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Link: link, Commit: gitCommit()}
}

// metricValue is one reported number: the median over the rounds, the
// per-round statistics behind it, and how many samples it rests on.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Rounds  []float64 `json:"rounds,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// workloadResult is one workload's section of a result file. EndToEnd is
// filled by the untraced run only, PerLayer by the traced run only; Ungated
// is context the untraced run prints but no comparison reads (the p95).
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	Ungated   map[string]metricValue `json:"ungated,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// resultFile is benchmark/out/result.json (untraced) or traced.json.
type resultFile struct {
	Schema        int                        `json:"schema"`
	Date          string                     `json:"date"`
	Fingerprint   fingerprint                `json:"fingerprint"`
	FingerprintID string                     `json:"fingerprint_id"`
	Seed          uint64                     `json:"seed"`
	Seconds       float64                    `json:"seconds"`
	Rounds        int                        `json:"rounds"`
	Traced        bool                       `json:"traced"`
	Metrics       []metricDef                `json:"metrics"` // names, units, directions and bounds in force
	Workloads     map[string]*workloadResult `json:"workloads"`
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, this harness reads 1", path, r.Schema)
	}
	return &r, nil
}

// driverLine is the single JSON object the driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
