// Command bench-json turns `go test -bench` output into a machine-readable
// JSON report and compares two reports for regressions — the engine behind
// `make bench-json` and the CI bench-regression job.
//
// Parse mode (default) reads benchmark output on stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem . | bench-json -out BENCH_2026-07-29.json
//
// Compare mode exits non-zero when the current report regresses past the
// threshold against a baseline:
//
//	bench-json -compare BENCH_baseline.json BENCH_2026-07-29.json -threshold 1.25
//
// Wall-clock numbers are only comparable on like hardware, so ns/op is
// gated only when the two reports carry the same hardware fingerprint
// (goos/goarch/cpu/gomaxprocs). Across different machines the comparison
// falls back to the machine-independent metrics — allocs/op and the
// engine's own counters (tables/cycle, dffs/cycle, copies/cycle,
// gates/cycle, bytes/cycle) — which are exact properties of the code, not
// the host.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Report is the emitted JSON document.
type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark result; Metrics holds every per-op value
// (ns/op, B/op, allocs/op and any b.ReportMetric counter).
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// fingerprint identifies the hardware a report was measured on.
func (r *Report) fingerprint() string {
	return fmt.Sprintf("%s/%s/%s/p%d", r.GOOS, r.GOARCH, r.CPU, r.GOMAXPROCS)
}

// hasFingerprint reports whether the hardware fields are populated.
// Hand-edited or legacy baselines may lack them; such a report must never
// be treated as "same hardware" (two blank fingerprints compare equal),
// or wall-clock metrics would be gated across unknown machines.
func (r *Report) hasFingerprint() bool {
	return r.GOOS != "" && r.GOARCH != "" && r.CPU != "" && r.GOMAXPROCS > 0
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// machineIndependent lists the metrics that stay comparable across hosts.
func machineIndependent(name string) bool {
	switch name {
	case "allocs/op", "tables/cycle", "dffs/cycle", "copies/cycle", "gates/cycle", "bytes/cycle", "tables/access":
		return true
	}
	return false
}

func parse(r *bufio.Scanner) (*Report, error) {
	rep := &Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for r.Scan() {
		line := strings.TrimRight(r.Text(), "\r\n")
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil {
				rep.GOMAXPROCS = p
			}
		}
		b := Benchmark{Name: m[1], Runs: runs, Metrics: map[string]float64{}}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return rep, nil
}

func load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare reports regressions of cur against base; returns the number of
// metrics that regressed past threshold. It degrades gracefully on
// imperfect baselines: a report without a hardware fingerprint is never
// treated as same-hardware, and a metric present on only one side is
// skipped with a warning instead of silently ignored (current-side gap)
// or silently passed (baseline-side gap).
func compare(base, cur *Report, threshold float64) int {
	sameHW := base.fingerprint() == cur.fingerprint()
	switch {
	case !base.hasFingerprint() || !cur.hasFingerprint():
		// Two blank fingerprints compare equal; that must not gate
		// wall-clock numbers across machines nobody identified.
		sameHW = false
		fmt.Printf("warning: hardware fingerprint missing (baseline %q, current %q); gating only machine-independent metrics\n",
			base.fingerprint(), cur.fingerprint())
	case !sameHW:
		fmt.Printf("note: hardware differs (baseline %s, current %s); gating only machine-independent metrics\n",
			base.fingerprint(), cur.fingerprint())
	}
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	curBy := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	regressions := 0
	// A baseline entry with no current counterpart is itself a gate
	// failure: deleting or renaming a regressed benchmark must not read
	// as "no regressions". A baseline metric missing from the current
	// entry only warns — metric sets legitimately evolve — but never
	// silently: the operator sees what stopped being gated.
	for _, b := range base.Benchmarks {
		cb, ok := curBy[b.Name]
		if !ok {
			fmt.Printf("FAIL: %s present in the baseline but missing from the current report\n", b.Name)
			regressions++
			continue
		}
		for metric := range b.Metrics {
			if _, ok := cb.Metrics[metric]; !ok {
				fmt.Printf("warning: %s %s present in the baseline but not the current report; skipping\n", b.Name, metric)
			}
		}
	}
	for _, b := range cur.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok {
			fmt.Printf("new:  %s (no baseline entry)\n", b.Name)
			continue
		}
		for metric, v := range b.Metrics {
			old, ok := bb.Metrics[metric]
			if !ok {
				fmt.Printf("warning: %s %s has no baseline value; skipping\n", b.Name, metric)
				continue
			}
			if !sameHW && !machineIndependent(metric) {
				continue
			}
			// Tiny absolute slack keeps 0→1-style jitter in counters
			// (an alloc amortized over b.N) from tripping ratio gates.
			limit := old*threshold + 1
			if v > limit {
				fmt.Printf("FAIL: %s %s = %.4g, baseline %.4g (limit %.4g)\n", b.Name, metric, v, old, limit)
				regressions++
			} else {
				fmt.Printf("ok:   %s %s = %.4g (baseline %.4g)\n", b.Name, metric, v, old)
			}
		}
	}
	return regressions
}

func main() {
	comparePair := flag.String("compare", "", "compare mode: 'baseline.json,current.json' (or pass the two paths as arguments after -compare baseline.json)")
	threshold := flag.Float64("threshold", 1.25, "regression threshold as a ratio (1.25 = +25%)")
	out := flag.String("out", "", "parse mode: write the JSON report here instead of stdout")
	flag.Parse()

	if *comparePair != "" {
		basePath := *comparePair
		curPath := ""
		if i := strings.IndexByte(basePath, ','); i >= 0 {
			basePath, curPath = basePath[:i], basePath[i+1:]
		} else if flag.NArg() == 1 {
			curPath = flag.Arg(0)
		}
		if curPath == "" {
			fmt.Fprintln(os.Stderr, "usage: bench-json -compare baseline.json current.json")
			os.Exit(2)
		}
		base, err := load(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cur, err := load(curPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if n := compare(base, cur, *threshold); n > 0 {
			fmt.Printf("%d benchmark metric(s) regressed beyond %.0f%%\n", n, (*threshold-1)*100)
			os.Exit(1)
		}
		fmt.Println("no benchmark regressions")
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rep, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
		return
	}
	if _, err := os.Stdout.Write(enc); err != nil {
		fmt.Fprintf(os.Stderr, "bench-json: writing report: %v\n", err)
		os.Exit(2)
	}
}
