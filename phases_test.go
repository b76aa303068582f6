package arm2gc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/bencher"
)

// TestPhasesCoverSession runs sum32, Hamming(160) and matmul5 between a
// Server and a Client over loopback TCP — a first-contact session, then
// two that replay — and checks each party's phases against its wall time:
// the client's around Evaluate, the server's from the proposal to the
// session's end. No phase may be negative, and the phases must sum to the
// wall time within 5 % or 50 µs, whichever is larger. The first session
// of each program shows its compile in the compile phase on both parties,
// and a replay shows zero there, and the Server's histograms count every
// session on the replay path. matmul5 compiles for seconds, so it is left
// out under -short and -race.
func TestPhasesCoverSession(t *testing.T) {
	workloads := []*bencher.Workload{bencher.SumWorkload(32), bencher.HammingWorkload(160)}
	if !testing.Short() && !raceEnabled {
		workloads = append(workloads, bencher.MatrixMultWorkload(5))
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			prog, _, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			type served struct {
				info *RunInfo
				wall time.Duration
			}
			srv := NewServer(NewEngine())
			got := make(chan served, 1)
			srv.served = func(info *RunInfo, wall time.Duration) { got <- served{info, wall} }
			if err := srv.Register("p", prog, WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(w.Alice)); err != nil {
				t.Fatal(err)
			}
			addr, shutdown := startServer(t, srv)
			defer shutdown()
			ctx := context.Background()
			cl, err := Dial(ctx, addr, WithClientEngine(NewEngine()))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Register("p", prog); err != nil {
				t.Fatal(err)
			}
			want := w.Check(w.Alice, w.Bob)
			for i, path := range []string{"first contact", "replay", "replay"} {
				start := time.Now()
				info, err := cl.Evaluate(ctx, "p", w.Bob)
				wall := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(info.Outputs[:len(want)], want) {
					t.Fatalf("session %d: outputs %v, want %v", i, info.Outputs[:len(want)], want)
				}
				s := <-got
				for _, party := range []struct {
					name string
					ph   Phases
					wall time.Duration
				}{{"client", info.Phases, wall}, {"server", s.info.Phases, s.wall}} {
					t.Logf("%s, %s: wall %v, phases %v", path, party.name, party.wall, phaseList(party.ph))
					for p, d := range party.ph {
						if d < 0 {
							t.Errorf("%s, %s: phase %v is %v", path, party.name, Phase(p), d)
						}
					}
					gap := party.wall - party.ph.Total()
					if gap < 0 {
						gap = -gap
					}
					if gap > max(party.wall/20, 50*time.Microsecond) {
						t.Errorf("%s, %s: phases sum to %v, wall time %v", path, party.name, party.ph.Total(), party.wall)
					}
					if compiled := party.ph[PhaseCompile] > 0; compiled != (i == 0) {
						t.Errorf("%s, %s: compile phase %v", path, party.name, party.ph[PhaseCompile])
					}
				}
			}
			rec := httptest.NewRecorder()
			srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			for _, want := range []string{
				`arm2gc_session_phase_seconds_count{phase="compile",path="replay"} 3`,
				`arm2gc_session_phase_seconds_bucket{phase="kernel",path="replay",le="+Inf"} 3`,
			} {
				if !strings.Contains(rec.Body.String(), want) {
					t.Errorf("text scrape lacks %q", want)
				}
			}
		})
	}
}

// phaseList renders the nonzero phases for a log line.
func phaseList(ph Phases) []string {
	var out []string
	for p, d := range ph {
		if d != 0 {
			out = append(out, Phase(p).String()+"="+d.String())
		}
	}
	return out
}
