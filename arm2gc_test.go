package arm2gc

import (
	"context"
	"fmt"
	"net"
	"testing"
)

const addSrc = `
void gc_main(const int *a, const int *b, int *c) {
	c[0] = a[0] + b[0];
	c[1] = a[0] > b[0] ? a[0] : b[0];
}
`

func testLayout() Layout {
	return Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 2, ScratchWords: 16}
}

func TestFacadeCompileRunVerify(t *testing.T) {
	prog, warnings, err := CompileC("add", addSrc, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	info, err := NewEngine().Verify(context.Background(), prog, []uint32{40}, []uint32{2}, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 42 || info.Outputs[1] != 40 {
		t.Fatalf("outputs = %v, want [42 40]", info.Outputs)
	}
	if info.GarbledTables <= 0 || info.GarbledTables > 300 {
		t.Fatalf("garbled %d tables; expected a small add+max cost", info.GarbledTables)
	}
	if !info.Halted {
		t.Fatal("program did not halt")
	}
}

// TestFacadeCount pins that the crypto-free Count reports exactly what a
// garbled Run does — tables, cycles and the halt verdict — when the
// program halts within its budget and at the budget edge before the halt.
// reuse=false counts afresh, before any run recorded a trace; reuse=true
// counts again once the Run has cached one, and must be served from it.
func TestFacadeCount(t *testing.T) {
	prog, _, err := CompileC("add", addSrc, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, budget := range []int{10_000, 3} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			eng := NewEngine()
			sess, err := eng.Session(prog, WithMaxCycles(budget))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sess.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			run, err := sess.Run(ctx, []uint32{1}, []uint32{2})
			if err != nil {
				t.Fatal(err)
			}
			if run.Halted != (budget == 10_000) {
				t.Fatalf("Run halted = %v within a %d-cycle budget", run.Halted, budget)
			}
			agrees := func(t *testing.T, count *RunInfo) {
				t.Helper()
				if count.GarbledTables != run.GarbledTables || count.Cycles != run.Cycles || count.Halted != run.Halted {
					t.Fatalf("Count (%d tables/%d cycles/halted %v) disagrees with Run (%d/%d/%v)",
						count.GarbledTables, count.Cycles, count.Halted, run.GarbledTables, run.Cycles, run.Halted)
				}
			}
			t.Run("reuse=false", func(t *testing.T) {
				if eng.TraceRecordings() != 1 || eng.TraceReplays() != 0 {
					t.Fatalf("fresh Count and Run: %d recordings, %d replays, want 1 and 0",
						eng.TraceRecordings(), eng.TraceReplays())
				}
				agrees(t, fresh)
			})
			t.Run("reuse=true", func(t *testing.T) {
				cached, err := sess.Count(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if eng.TraceRecordings() != 1 || eng.TraceReplays() != 1 {
					t.Fatalf("Count after Run: %d recordings, %d replays, want 1 and 1",
						eng.TraceRecordings(), eng.TraceReplays())
				}
				agrees(t, cached)
			})
		})
	}
}

func TestFacadeTwoParty(t *testing.T) {
	prog, _, err := CompileC("add", addSrc, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()

	type r struct {
		info *RunInfo
		err  error
	}
	ch := make(chan r, 1)
	sess, err := NewEngine().Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		info, err := sess.Garble(context.Background(), ca, []uint32{1000})
		ch <- r{info, err}
	}()
	bobInfo, err := sess.Evaluate(context.Background(), cb, []uint32{23})
	if err != nil {
		t.Fatal(err)
	}
	aliceR := <-ch
	if aliceR.err != nil {
		t.Fatal(aliceR.err)
	}
	for _, info := range []*RunInfo{aliceR.info, bobInfo} {
		if info.Outputs[0] != 1023 || info.Outputs[1] != 1000 {
			t.Fatalf("outputs = %v, want [1023 1000]", info.Outputs)
		}
	}
}

func TestFacadeAssemble(t *testing.T) {
	prog, err := Assemble("neg", `
gc_main:
	ldr r4, [r0]
	rsb r4, r4, #0
	str r4, [r2]
	mov pc, lr
`, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	out, cycles, err := Emulate(prog, []uint32{5}, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != ^uint32(5)+1 {
		t.Fatalf("-5 = %#x", out[0])
	}
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	if Disassemble(prog) == "" {
		t.Fatal("empty disassembly")
	}
}
