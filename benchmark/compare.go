package main

import (
	"fmt"
	"io"
	"sort"
)

// worsening is how far b is worse than a, as a share of a, given the
// direction that is better for the metric (negative: b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one (metric, workload) pair by the benchmark's own rule:
// a pair whose rounds disagree by more than the bound cannot resolve a
// difference of that size, so it is "unresolved", never "ok".
func verdict(a, b metricValue, d metricDef) string {
	if spread(a.Rounds) > d.Bound || spread(b.Rounds) > d.Bound {
		return "unresolved"
	}
	if worsening(a.Value, b.Value, d.Better) > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (metric, workload) pair of two result
// files: both medians, the relative delta, the bound and the verdict —
// and the per-layer deltas when both files carry a traced section. It
// returns 1 when any pair regressed, 2 when the files cannot be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.FingerprintID != b.FingerprintID {
		// A timing taken on other hardware, another GOMAXPROCS or another
		// link says nothing about the code (the gomaxprocs:1 baseline defect).
		fmt.Fprintf(stderr, "benchmark: refusing to compare timings across fingerprints:\n  %s: %s %+v\n  %s: %s %+v\n",
			pathA, a.FingerprintID, a.Fingerprint, pathB, b.FingerprintID, b.Fingerprint)
		return 2
	}
	if a.Traced != b.Traced {
		fmt.Fprintln(stderr, "benchmark: one file is a traced run and the other is not; end-to-end metrics come from untraced runs only")
		return 2
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# a = %s (%s, seed %d)\n# b = %s (%s, seed %d)\n", pathA, a.Fingerprint.Commit, a.Seed, pathB, b.Fingerprint.Commit, b.Seed)
	fmt.Fprintf(stdout, "%-22s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	regressed := false
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(stdout, "%-22s failed sessions: a %d of %d, b %d of %d — a gain does not count when sessions fail\n",
				name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed = true
		}
		// Per-layer metrics have no bound: the delta is the finding.
		ma, mb := wa.EndToEnd, wb.EndToEnd
		if a.Traced {
			ma, mb = wa.PerLayer, wb.PerLayer
		}
		for _, d := range a.Metrics {
			va, okA := ma[d.Name]
			vb, okB := mb[d.Name]
			if !okA || !okB {
				continue
			}
			bound, v := "", ""
			if !a.Traced {
				bound, v = fmt.Sprintf("%.3f", d.Bound), verdict(va, vb, d)
			}
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-22s %-30s %14.4f %14.4f %+8.2f%% %7s  %s\n", name, d.Name, va.Value, vb.Value,
				worsening(va.Value, vb.Value, d.Better)*100, bound, v)
		}
	}
	fmt.Fprintln(stdout, "# delta > 0: b is worse than a in the metric's own direction")
	if regressed {
		return 1
	}
	return 0
}
