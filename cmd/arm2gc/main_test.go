package main

import (
	"os"
	"path/filepath"
	"testing"

	"arm2gc"
)

// TestDumpNetlistHonorsMemoryBackend pins that -dump-netlist writes the
// processor a session runs on, whose memory backend the layout picks: the
// relaxation kernel over 648 data words dumps the square-root ORAM
// netlist, and over 392 the scan, each with its own gate count.
func TestDumpNetlistHonorsMemoryBackend(t *testing.T) {
	src, err := os.ReadFile("../../examples/registry/relax.c")
	if err != nil {
		t.Fatal(err)
	}
	eng := arm2gc.NewEngine()
	files := map[string]string{}
	for _, tc := range []struct {
		aliceWords int
		backend    string
		gates      int
	}{
		{512, arm2gc.MemorySqrtORAM, 82_837},
		{256, arm2gc.MemoryScan, 37_955},
	} {
		prog, _, err := arm2gc.CompileC("relax", string(src), arm2gc.Layout{
			IMemWords: 64, AliceWords: tc.aliceWords, BobWords: 64, OutWords: 8, ScratchWords: 64})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.Session(prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Machine().MemoryBackend(); got != tc.backend {
			t.Fatalf("%d data words: session runs on %q, want %q", prog.Layout.DataWords(), got, tc.backend)
		}
		path := filepath.Join(t.TempDir(), tc.backend+".txt")
		st, err := dump(eng, prog, nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Gates != tc.gates {
			t.Errorf("%s: dumped %d gates, want %d", tc.backend, st.Gates, tc.gates)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[tc.backend] = string(got)
	}
	if files[arm2gc.MemoryScan] == files[arm2gc.MemorySqrtORAM] {
		t.Error("both layouts dumped the same netlist file")
	}
}
