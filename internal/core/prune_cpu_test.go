package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/emu"
	"arm2gc/internal/gc"
	"arm2gc/internal/sim"
)

// TestCrossCycleOracle checks the liveness pass on the bencher's programs
// that have dead tables, against the trace before the pass:
//
//   - under the same label randomness the pruned trace's table stream is,
//     cycle by cycle, the unpruned stream with the dropped tables removed,
//     each surviving table byte-identical to the one at its gate id, and
//     the garbler ends holding the same labels in every secret output slot;
//   - a replay of the pruned trace decodes to the workload's reference
//     result on random inputs;
//   - as a control, removing one more garbled op from the pruned trace —
//     every op it keeps is live — is caught. Both parties skip the op, so
//     its slot keeps a stale but consistent label pair and the X0/X1 check
//     at decode passes; the stale label reaches a later table or an output
//     label, which the stream comparison sees, and the decoded result is
//     wrong whenever the stale bit differs.
func TestCrossCycleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles seven programs, Dijkstra(8) for seconds")
	}
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct {
		w       *bencher.Workload
		dropped int
	}{
		{bencher.SumWorkload(1024), 992},
		{bencher.CompareWorkload(32), 32},
		{bencher.HammingWorkload(32), 18},
		{bencher.HammingWorkload(160), 90},
		{bencher.HammingWorkload(512), 288},
		{bencher.DijkstraWorkload(8), 6_565},
		{bencher.MergeSortWorkload(8), 1_331},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			c, p, w, in := workloadOnCPU(t, tc.w, "")
			m, err := emu.New(p, w.Alice, w.Bob)
			if err != nil {
				t.Fatal(err)
			}
			budget, err := m.Run(1 << 22)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.CountOpts{Cycles: budget, StopOutput: "halted"}
			full := core.CompileUnpruned(t, c.Circuit, in.Public, opts)
			tr := core.Pruned(full)
			if got := tr.TotalStats(); got.Dropped != tc.dropped || got.Total != full.TotalStats().Total {
				t.Fatalf("pass dropped %d tables (%+v), want %d of %+v", got.Dropped, got, tc.dropped, full.TotalStats())
			}
			if err := derivedStream(c.Circuit, in.Public, full, tr); err != nil {
				t.Fatal(err)
			}

			for trial := 0; trial < 2; trial++ {
				alice, bob := randomInputs(rng, w)
				if got := runTrace(t, c, in.Public, alice, bob, tr); !slices.Equal(got, w.Check(alice, bob)) {
					t.Fatalf("trial %d: pruned replay decodes %v, reference %v", trial, got, w.Check(alice, bob))
				}
			}

			for trial := 0; trial < 3; trial++ {
				cyc := 1 + rng.Intn(tr.NumCycles())
				for tr.Cycle(cyc).NumTables() == 0 {
					cyc = 1 + rng.Intn(tr.NumCycles())
				}
				k := rng.Intn(tr.Cycle(cyc).NumTables())
				bad := core.WithoutTable(tr, cyc, k)
				err := derivedStream(c.Circuit, in.Public, full, bad)
				if err == nil {
					t.Fatalf("cycle %d without its table %d passes the derived-stream oracle", cyc, k)
				}
				alice, bob := randomInputs(rng, w)
				wrong := !slices.Equal(runTrace(t, c, in.Public, alice, bob, bad), w.Check(alice, bob))
				t.Logf("cycle %d without its table %d: %v; decodes wrong on random inputs: %v", cyc, k, err, wrong)
			}
		})
	}
}

// derivedStream garbles full and pruned under the same randomness and
// compares, cycle by cycle, pruned's tables with full's at the same gate
// ids — pruned's gates must be full's less exactly Dropped of them, each
// table byte-identical — and then the labels both garblers hold in every
// secret output slot.
func derivedStream(c *circuit.Circuit, pub []bool, full, pruned *core.Trace) error {
	gf := core.NewReplayGarbler(c, rand.New(rand.NewSource(9)))
	gp := core.NewReplayGarbler(c, rand.New(rand.NewSource(9)))
	gf.Reserve(full.Width())
	gp.Reserve(pruned.Width())
	var tf, tp, want []byte
	var idsF, idsP []int32
	for cyc := 1; cyc <= full.NumCycles(); cyc++ {
		cf, cp := full.Cycle(cyc), pruned.Cycle(cyc)
		tf = gf.GarbleCycleTraceAppend(cf, cyc, tf[:0])
		tp = gp.GarbleCycleTraceAppend(cp, cyc, tp[:0])
		idsF, idsP = cf.TableGates(idsF[:0]), cp.TableGates(idsP[:0])
		want = want[:0]
		j := 0
		for _, g := range idsP {
			for j < len(idsF) && idsF[j] != g {
				j++
			}
			if j == len(idsF) {
				return fmt.Errorf("cycle %d: pruned table at gate %d is not in the unpruned stream", cyc, g)
			}
			want = append(want, tf[j*gc.TableBytes:(j+1)*gc.TableBytes]...)
			j++
		}
		if len(idsF)-len(idsP) != cp.Dropped {
			return fmt.Errorf("cycle %d: %d tables became %d, the pass says it dropped %d", cyc, len(idsF), len(idsP), cp.Dropped)
		}
		if !bytes.Equal(tp, want) {
			return fmt.Errorf("cycle %d: pruned stream differs from the unpruned stream less its dropped tables", cyc)
		}
		if cyc < full.NumCycles() {
			gf.CopyDFFs()
			gp.CopyDFFs()
		}
	}
	sc, err := core.NewSchedule(c, pub, core.RunOpts{Cycles: pruned.NumCycles(), Trace: pruned})
	if err != nil {
		return err
	}
	for i, slot := range sc.OutputSlots() {
		if _, public := sc.OutputState(i); !public && gf.X0(slot) != gp.X0(slot) {
			return fmt.Errorf("output %d (slot %d): the pruned run's garbler holds another label", i, slot)
		}
	}
	return nil
}

// randomInputs draws inputs of w's shape: random words, or for Dijkstra a
// random sparse graph of small weights, XOR-shared as the workload shares
// its own.
func randomInputs(rng *rand.Rand, w *bencher.Workload) (alice, bob []uint32) {
	alice, bob = make([]uint32, len(w.Alice)), make([]uint32, len(w.Bob))
	for i := range alice {
		alice[i] = rng.Uint32()
	}
	for i := range bob {
		bob[i] = rng.Uint32()
	}
	if len(w.Name) >= 8 && w.Name[:8] == "Dijkstra" {
		for i := range alice {
			var wt uint32
			if rng.Intn(3) == 0 {
				wt = 1 + uint32(rng.Intn(9))
			}
			alice[i] = bob[i] ^ wt
		}
	}
	return alice, bob
}

// runTrace replays tr in process on the given inputs and returns the
// decoded output region.
func runTrace(t *testing.T, c *cpu.CPU, pub []bool, alice, bob []uint32, tr *core.Trace) []uint32 {
	t.Helper()
	ab, err := c.InputBits(circuit.Alice, alice)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := c.InputBits(circuit.Bob, bob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunLocal(context.Background(), c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb},
		core.RunOpts{Cycles: tr.NumCycles(), StopOutput: "halted", Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	return cpu.OutWords(res.Outputs[:c.Layout.OutWords*32])
}
