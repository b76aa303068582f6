// Command benchmark is the repository's benchmark: five client-observed
// session workloads over the real stack — arm2gc.Client → gateway →
// arm2gc.Server → garble-ahead pool / trace cache — hosted in one process
// over loopback TCP, plus a separate traced run that attributes a
// session's time to the layers by timing calls into their public
// functions from outside. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed seconds one
// workload gets per run, split evenly over its rounds.
const defaultSeconds = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is what the flags select.
type options struct {
	seed     uint64
	seconds  float64
	sessions int // per client per phase; replaces the time limit (self-tests)
	rounds   int
	outDir   string
}

// phase returns the limit of one timed phase starting now.
func (o options) phase() limit {
	if o.sessions > 0 {
		return limit{sessions: o.sessions}
	}
	return limit{deadline: time.Now().Add(time.Duration(o.seconds / float64(o.rounds) * float64(time.Second)))}
}

// warmPhase is the short phase of the untimed process warm-up round.
func (o options) warmPhase() limit {
	if o.sessions > 0 {
		return limit{sessions: 1}
	}
	return limit{deadline: time.Now().Add(time.Second)}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all, rounds interleaved)")
	seed := fs.Uint64("seed", 1, "seed of the PRNG that generates both parties' input words")
	seconds := fs.Float64("seconds", defaultSeconds, "timed seconds per workload, split evenly over the rounds")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, ledger, trace files) instead of the end-to-end run")
	traced := fs.Bool("traced", false, "same as -trace 1")
	sessions := fs.Int("sessions", 0, "end each timed phase after this many sessions per client instead of on time")
	compare := fs.String("compare", "", "a.json,b.json: compare two result files instead of running")
	out := fs.String("out", "", "directory for result.json, traced.json and <workload>.trace.json (default benchmark/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			fmt.Fprintln(stderr, "benchmark: -compare wants a.json,b.json")
			return 2
		}
		return compareFiles(a, b, stdout, stderr)
	}
	ws := make([]*workload, 0, len(workloads))
	for i := range workloads {
		if *name == "" || workloads[i].name == *name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, sessions: *sessions, rounds: rounds, outDir: *out}
	if o.outDir == "" {
		o.outDir = "out"
		if _, err := os.Stat("benchmark"); err == nil {
			o.outDir = filepath.Join("benchmark", "out")
		}
	}

	// The reference machine has two cores; more would let the parties of
	// several sessions stop contending, which is what fleet.mixed measures.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	res, err := execute(context.Background(), ws, o, *trace == 1 || *traced, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	file := "result.json"
	if res.Traced {
		file = "traced.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, file), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	failed := 0
	for _, w := range ws {
		wr := res.Workloads[w.name]
		failed += wr.Failed
		if wr.FirstErr != "" {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d sessions failed, first: %s\n", w.name, wr.Failed, wr.Attempted, wr.FirstErr)
		}
	}
	if *name != "" {
		if err := printDriverLine(stdout, res.Workloads[*name], res.Traced); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// execute runs the selected workloads and assembles the result file.
func execute(ctx context.Context, ws []*workload, o options, traced bool, log io.Writer) (*resultFile, error) {
	res := &resultFile{Schema: 1, Date: time.Now().UTC().Format(time.RFC3339), Fingerprint: currentFingerprint(),
		Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, Traced: traced, Workloads: map[string]*workloadResult{}}
	res.FingerprintID = res.Fingerprint.id()
	res.Metrics = endToEnd
	if traced {
		res.Metrics = tracedLayers()
	}
	fmt.Fprintf(log, "# arm2gc benchmark: seed %d, %gs per workload over %d rounds, %s, GOMAXPROCS %d of %d, %s, fingerprint %s\n",
		o.seed, o.seconds, o.rounds, link, res.Fingerprint.GOMAXPROCS, res.Fingerprint.NumCPU, res.Fingerprint.CPUModel, res.FingerprintID)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	exps := map[string]map[string]expect{}
	for _, w := range ws {
		e, err := expectations(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		exps[w.name] = e
	}

	// One throwaway round per workload first: a process pays for its first
	// page faults, heap growth and P-256 tables once, not per session, and
	// unwarmed they would make round 1 the slowest of every run — turning
	// the median of three rounds into the larger of the other two.
	warm := func(w *workload) error {
		if _, err := runRound(ctx, w, o.seed, exps[w.name], o.warmPhase); err != nil {
			return fmt.Errorf("%s process warm-up: %w", w.name, err)
		}
		return nil
	}

	if traced {
		for _, w := range ws {
			// Each workload starts as it does when the driver gives it a
			// process of its own: only its own warm-up behind it, and the
			// previous workload's garbage (300 MB of traces after
			// tables.matmul5) collected before the clock starts.
			runtime.GC()
			if err := warm(w); err != nil {
				return nil, err
			}
			tres, err := runTraced(ctx, w, o.seed, exps[w.name], o.phase)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.Workloads[w.name] = summarizeTraced(tres)
			printWorkload(log, w, res.Workloads[w.name], res.Metrics, true)
			if err := writeJSON(filepath.Join(o.outDir, w.name+".trace.json"), newTraceFile(w.name, o.seed, tres.spans)); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	for _, w := range ws {
		if err := warm(w); err != nil {
			return nil, err
		}
	}

	// Rounds interleave across workloads (w1…w5, w1…w5, w1…w5), so a slow
	// drift of the machine lands on every workload's rounds alike.
	all := map[string][]*roundResult{}
	for r := 0; r < o.rounds; r++ {
		for _, w := range ws {
			rr, err := runRound(ctx, w, o.seed+uint64(r)*0x9e3779b97f4a7c15, exps[w.name], o.phase)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, r+1, err)
			}
			all[w.name] = append(all[w.name], rr)
		}
	}
	for _, w := range ws {
		res.Workloads[w.name] = summarize(w, all[w.name])
		printWorkload(log, w, res.Workloads[w.name], endToEnd, false)
	}
	return res, nil
}

// summarize folds a workload's rounds into its end-to-end metrics: each
// is the median over the rounds of that round's statistic.
func summarize(w *workload, rs []*roundResult) *workloadResult {
	wr := &workloadResult{EndToEnd: map[string]metricValue{}}
	primary := w.programs[0].name
	var setup, p50, rate, bytes []float64
	var nLat, nOK int
	var tail []float64
	for _, r := range rs {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		if wr.FirstErr == "" && r.firstErr != nil {
			wr.FirstErr = r.firstErr.Error()
		}
		setup = append(setup, r.setup.Seconds())
		p50 = append(p50, median(r.lat[primary]))
		rate = append(rate, float64(r.verified())/r.wall.Seconds())
		bytes = append(bytes, sessionBytes(w, r.bytes))
		nLat += len(r.lat[primary])
		nOK += r.verified()
		tail = append(tail, r.lat[primary]...)
	}
	if spread(bytes) != 0 && wr.FirstErr == "" {
		wr.Failed++
		wr.FirstErr = fmt.Sprintf("wire bytes per session differ between rounds: %v", bytes)
	}
	wr.EndToEnd["setup_s"] = metricValue{median(setup), "s", setup, len(setup)}
	wr.EndToEnd["session_p50_ms"] = metricValue{median(p50), "ms", p50, nLat}
	wr.EndToEnd["sessions_per_s"] = metricValue{median(rate), "1/s", rate, nOK}
	wr.EndToEnd["wire_bytes_per_session"] = metricValue{median(bytes), "B", bytes, nOK}
	wr.Ungated = map[string]metricValue{"client.session_p95_ms": {Value: percentile(tail, 95), Unit: "ms", Samples: nLat}}
	return wr
}

func summarizeTraced(t *tracedResult) *workloadResult {
	wr := &workloadResult{Attempted: t.attempted, Failed: t.failed, PerLayer: map[string]metricValue{}}
	if t.firstErr != nil {
		wr.FirstErr = t.firstErr.Error()
	}
	for _, d := range tracedLayers() {
		if v, ok := t.metrics[d.Name]; ok {
			wr.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit, Samples: t.samples[d.Name]}
		}
	}
	return wr
}

// printWorkload prints every metric by name with its unit, the per-round
// values and the sample count — and, for a traced run, the ledger.
func printWorkload(w io.Writer, wl *workload, wr *workloadResult, defs []metricDef, traced bool) {
	fmt.Fprintf(w, "\n%s — %d sessions attempted, %d failed (failed_share %.4f)\n", wl.name, wr.Attempted, wr.Failed,
		float64(wr.Failed)/float64(max(wr.Attempted, 1)))
	vals := wr.EndToEnd
	if traced {
		vals = wr.PerLayer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue // a fleet-only layer on a workload without a fleet
		}
		line := fmt.Sprintf("  %-30s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if len(v.Rounds) > 0 {
			line += fmt.Sprintf(" rounds %.4f", v.Rounds)
		}
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	if !traced {
		p95 := wr.Ungated["client.session_p95_ms"]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d (ungated)\n", "client.session_p95_ms", p95.Value, p95.Unit, p95.Samples)
		return
	}
	g := func(k string) float64 { return vals[k].Value }
	gateway := ""
	if _, ok := vals["ledger.gateway_ms"]; ok {
		gateway = fmt.Sprintf(" + gateway %.3f", g("ledger.gateway_ms"))
	}
	fmt.Fprintf(w, "  ledger: session_p50 %.3f ms = negotiate %.3f + ot %.3f + core %.3f + proto.self %.3f%s + unattributed %.3f\n",
		g("ledger.session_p50_ms"), g("ledger.negotiate_ms"), g("ledger.ot_ms"), g("ledger.core_ms"),
		g("ledger.proto_self_ms"), gateway, g("unattributed_ms"))
}

// printDriverLine ends standard output with the one JSON object the
// driver reads: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one.
func printDriverLine(w io.Writer, wr *workloadResult, traced bool) error {
	if wr.Attempted < 1 {
		return errors.New("no session was attempted")
	}
	line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverValue{}}
	vals, defs := wr.EndToEnd, endToEnd
	if traced {
		vals, defs = wr.PerLayer, perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = driverValue{v.Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
