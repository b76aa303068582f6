package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: arm2gc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSchedulerCycle        	     300	    186843 ns/op	     13567 gates/cycle	     166 B/op	       0 allocs/op
BenchmarkParallelCycle/serial-4         	      50	    406459 ns/op	         0.6200 tables/cycle	     125 B/op	       5 allocs/op
PASS
ok  	arm2gc	0.187s
`

func parseSample(t *testing.T, s string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseBenchOutput(t *testing.T) {
	rep := parseSample(t, sample)
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("header parsed as %q/%q/%q", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	if rep.GOMAXPROCS != 4 {
		t.Fatalf("gomaxprocs = %d, want 4 (from the -4 suffix)", rep.GOMAXPROCS)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSchedulerCycle" || b.Runs != 300 {
		t.Fatalf("first benchmark parsed as %+v", b)
	}
	for metric, want := range map[string]float64{
		"ns/op": 186843, "gates/cycle": 13567, "B/op": 166, "allocs/op": 0,
	} {
		if got := b.Metrics[metric]; got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	if got := rep.Benchmarks[1].Metrics["tables/cycle"]; got != 0.62 {
		t.Errorf("tables/cycle = %v, want 0.62", got)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	base := parseSample(t, sample)
	cur := parseSample(t, sample)
	if n := compare(base, cur, 1.25); n != 0 {
		t.Fatalf("identical reports produced %d regressions", n)
	}
	cur = parseSample(t, sample)
	cur.Benchmarks[0].Metrics["ns/op"] *= 1.5
	if n := compare(base, cur, 1.25); n != 1 {
		t.Fatalf("50%% ns/op regression produced %d findings, want 1", n)
	}
	// Different hardware: ns/op is not gated, machine-independent metrics are.
	cur = parseSample(t, sample)
	cur.CPU = "something else"
	cur.Benchmarks[0].Metrics["ns/op"] *= 10
	if n := compare(base, cur, 1.25); n != 0 {
		t.Fatalf("cross-hardware ns/op gated: %d regressions", n)
	}
	cur.Benchmarks[0].Metrics["allocs/op"] = 50
	if n := compare(base, cur, 1.25); n != 1 {
		t.Fatalf("cross-hardware allocs/op regression produced %d findings, want 1", n)
	}
	// A benchmark that vanished from the current report is a failure, not
	// a free pass.
	cur = parseSample(t, sample)
	cur.Benchmarks = cur.Benchmarks[:1]
	if n := compare(base, cur, 1.25); n != 1 {
		t.Fatalf("missing benchmark produced %d findings, want 1", n)
	}
}

// TestCompareDegradesGracefully covers the imperfect-baseline cases:
// reports without a hardware fingerprint, metrics present on only one
// side, and nil metric maps must neither panic nor misjudge.
func TestCompareDegradesGracefully(t *testing.T) {
	stripFP := func(r *Report) *Report {
		r.GOOS, r.GOARCH, r.CPU, r.GOMAXPROCS = "", "", "", 0
		return r
	}
	cases := []struct {
		name    string
		base    func() *Report
		cur     func() *Report
		wantReg int
	}{
		{
			// Two blank fingerprints compare equal as strings; ns/op must
			// still not be gated — the machines are unknown.
			name: "both fingerprints missing, wall-clock regression ignored",
			base: func() *Report { return stripFP(parseSample(t, sample)) },
			cur: func() *Report {
				r := stripFP(parseSample(t, sample))
				r.Benchmarks[0].Metrics["ns/op"] *= 100
				return r
			},
			wantReg: 0,
		},
		{
			name: "baseline fingerprint missing, machine-independent still gated",
			base: func() *Report { return stripFP(parseSample(t, sample)) },
			cur: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["allocs/op"] = 50
				return r
			},
			wantReg: 1,
		},
		{
			// The sparse-commit counters are schedule properties like
			// tables/cycle: a flip-flop or copy that stops being skipped
			// fails on any machine.
			name: "dffs/cycle and copies/cycle gated across hardware",
			base: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["dffs/cycle"] = 7.4
				r.Benchmarks[0].Metrics["copies/cycle"] = 134
				return r
			},
			cur: func() *Report {
				r := parseSample(t, sample)
				r.CPU = "something else"
				r.Benchmarks[0].Metrics["ns/op"] *= 10
				r.Benchmarks[0].Metrics["dffs/cycle"] = 6181
				r.Benchmarks[0].Metrics["copies/cycle"] = 1245
				return r
			},
			wantReg: 2,
		},
		{
			name: "metric only in baseline is skipped, not misjudged",
			base: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["tables/cycle"] = 5
				return r
			},
			cur:     func() *Report { return parseSample(t, sample) },
			wantReg: 0,
		},
		{
			name: "metric only in current is skipped",
			base: func() *Report { return parseSample(t, sample) },
			cur: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["bytes/cycle"] = 1e9
				return r
			},
			wantReg: 0,
		},
		{
			name: "nil metrics map in baseline",
			base: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics = nil
				return r
			},
			cur:     func() *Report { return parseSample(t, sample) },
			wantReg: 0,
		},
		{
			name: "nil metrics map in current",
			base: func() *Report { return parseSample(t, sample) },
			cur: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics = nil
				return r
			},
			wantReg: 0,
		},
		{
			name: "real regression still caught alongside one-sided metrics",
			base: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["baseline-only"] = 1
				return r
			},
			cur: func() *Report {
				r := parseSample(t, sample)
				r.Benchmarks[0].Metrics["allocs/op"] = 50
				r.Benchmarks[0].Metrics["current-only"] = 1
				return r
			},
			wantReg: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := compare(tc.base(), tc.cur(), 1.25); n != tc.wantReg {
				t.Fatalf("compare reported %d regressions, want %d", n, tc.wantReg)
			}
		})
	}
}
