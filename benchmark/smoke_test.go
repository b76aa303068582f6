package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func allWorkloads() []*workload {
	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	return ws
}

// TestSmokeEveryWorkload runs every workload end to end at two sessions
// per client in one round: the whole stack comes up, every session is
// verified, and every end-to-end metric is reported and non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	o := options{seed: 7, seconds: defaultSeconds, sessions: 2, rounds: 1, outDir: t.TempDir()}
	res, err := execute(context.Background(), allWorkloads(), o, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wantTables := map[string]float64{"handshake.sum32": 31, "classify.hamming512": 1635, "replay.hamming512": 1635, "tables.matmul5": 127225}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil {
			t.Fatalf("%s: no result", w.name)
		}
		if want := 2 * w.clients; wr.Attempted != want || wr.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed (%s), want %d and 0", w.name, wr.Attempted, wr.Failed, wr.FirstErr, want)
		}
		for _, d := range endToEnd {
			if v := wr.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
		// The paper's metric is the anchor: sized values, data-independent.
		exps, err := expectations(context.Background(), &w)
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := wantTables[w.name]; ok && float64(exps[w.programs[0].name].tables) != want {
			t.Errorf("%s: %d tables per session, sized at %v", w.name, exps[w.programs[0].name].tables, want)
		}
	}
}

// TestDriverLine runs the command as the driver does and checks the
// contract of its last line of standard output.
func TestDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		if trace == "1" && testing.Short() {
			continue // the layer probes take a few seconds
		}
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "fleet.mixed", "--seed", "3", "--seconds", "15", "--trace", trace,
			"-sessions", "2", "-out", dir}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, &errOut)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: last line has keys %v, want exactly correct, attempted, failed, metrics", trace, line)
		}
		var dl driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
			t.Fatal(err)
		}
		defs, file := endToEnd, "result.json"
		if trace == "1" {
			defs, file = perLayer, "traced.json"
		}
		if !dl.Correct || dl.Failed != 0 || dl.Attempted < 1 || len(dl.Metrics) != len(defs) {
			t.Errorf("trace %s: %+v", trace, dl)
		}
		for _, d := range defs {
			if v, ok := dl.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, %v", trace, d.Name, v, ok)
			}
		}
		res, err := readResult(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if trace == "1" {
			b, err := os.ReadFile(filepath.Join(dir, "fleet.mixed.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 || tf.SelfMs["evaluate"] <= 0 {
				t.Errorf("trace file: %v, %d spans, self times %v", err, len(tf.Spans), tf.SelfMs)
			}
			// The fleet-only layers are in the result file, not the driver line.
			layers := res.Workloads["fleet.mixed"].PerLayer
			for _, d := range fleetLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("fleet.mixed did not report %s", d.Name)
				}
			}
			if layers["pool.hit_ratio"].Value <= 0 || layers["gateway.proposals"].Value <= 0 {
				t.Errorf("fleet.mixed saw no pool hit or no gateway proposal: %+v", layers)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, &out)
	}
}
