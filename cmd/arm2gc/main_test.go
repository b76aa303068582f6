package main

import (
	"os"
	"path/filepath"
	"testing"

	"arm2gc"
)

// TestDumpNetlistHonorsMemoryBackend pins that -dump-netlist writes the
// processor the session options select: on the relaxation kernel the
// scan and the square-root ORAM netlists have their own gate counts and
// the two files differ.
func TestDumpNetlistHonorsMemoryBackend(t *testing.T) {
	src, err := os.ReadFile("../../examples/registry/relax.c")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := arm2gc.CompileC("relax", string(src), arm2gc.Layout{
		IMemWords: 64, AliceWords: 512, BobWords: 64, OutWords: 8, ScratchWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := arm2gc.NewEngine()
	gates := map[string]int{}
	files := map[string]string{}
	for _, backend := range []string{arm2gc.MemoryScan, arm2gc.MemorySqrtORAM} {
		path := filepath.Join(t.TempDir(), backend+".txt")
		st, err := dump(eng, prog, []arm2gc.Option{arm2gc.WithMemoryBackend(backend)}, path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gates[backend], files[backend] = st.Gates, string(got)
	}
	want := map[string]int{arm2gc.MemoryScan: 55_396, arm2gc.MemorySqrtORAM: 82_837}
	for backend, n := range want {
		if gates[backend] != n {
			t.Errorf("-mem-backend %s: dumped %d gates, want %d", backend, gates[backend], n)
		}
	}
	if files[arm2gc.MemoryScan] == files[arm2gc.MemorySqrtORAM] {
		t.Error("both backends dumped the same netlist file")
	}
}
