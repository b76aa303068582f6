package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "session_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sessions_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	mv := func(v float64, rounds ...float64) metricValue { return metricValue{Value: v, Rounds: rounds} }
	for _, c := range []struct {
		name string
		a, b metricValue
		d    metricDef
		want string
	}{
		{"same", mv(100, 99, 100, 101), mv(100, 100, 100, 100), lower, "ok"},
		{"slower within the bound", mv(100, 99, 100, 101), mv(109, 108, 109, 110), lower, "ok"},
		{"slower beyond the bound", mv(100, 99, 100, 101), mv(112, 111, 112, 113), lower, "regressed"},
		{"faster", mv(100, 99, 100, 101), mv(50, 50, 50, 50), lower, "ok"},
		{"throughput down beyond the bound", mv(40, 40, 40, 40), mv(35, 35, 35, 35), higher, "regressed"},
		{"throughput up", mv(40, 40, 40, 40), mv(80, 80, 80, 80), higher, "ok"},
		{"rounds disagree by more than the bound", mv(100, 90, 100, 115), mv(130, 130, 130, 130), lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func resultFixture(p50 float64, gomaxprocs int) *resultFile {
	fp := fingerprint{CPUModel: "test cpu", NumCPU: 2, GOMAXPROCS: gomaxprocs, GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", Link: link, Commit: "abc"}
	return &resultFile{Schema: 1, Fingerprint: fp, FingerprintID: fp.id(), Seed: 1, Seconds: 15, Rounds: 3, Metrics: endToEnd,
		Workloads: map[string]*workloadResult{"replay.hamming512": {Attempted: 200, EndToEnd: map[string]metricValue{
			"setup_s":                {Value: 0.5, Unit: "s", Rounds: []float64{0.5, 0.5, 0.5}},
			"session_p50_ms":         {Value: p50, Unit: "ms", Rounds: []float64{p50, p50, p50}},
			"sessions_per_s":         {Value: 1000 / p50, Unit: "1/s", Rounds: []float64{1000 / p50, 1000 / p50, 1000 / p50}},
			"wire_bytes_per_session": {Value: 95619, Unit: "B", Rounds: []float64{95619, 95619, 95619}},
		}}}}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", resultFixture(62, 2))
	same := write("b.json", resultFixture(63, 2))
	slow := write("c.json", resultFixture(80, 2))
	oneCore := write("d.json", resultFixture(62, 1))

	var out, errOut bytes.Buffer
	if code := compareFiles(base, same, &out, &errOut); code != 0 {
		t.Fatalf("equal files: exit %d, stderr %s", code, &errOut)
	}
	if n := strings.Count(out.String(), " ok"); n != len(endToEnd) {
		t.Errorf("want %d ok rows, got %d:\n%s", len(endToEnd), n, &out)
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower file: exit %d, output:\n%s", code, &out)
	}
	out.Reset()
	errOut.Reset()
	// The BENCH_baseline.json defect: a file recorded at GOMAXPROCS 1 must
	// not gate a two-core run.
	if code := compareFiles(base, oneCore, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("differing fingerprints: exit %d, stderr %s", code, &errOut)
	}
	if out.Len() != 0 {
		t.Errorf("a refused comparison still printed rows:\n%s", &out)
	}
}
