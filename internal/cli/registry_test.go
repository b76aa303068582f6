package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arm2gc"
)

const addC = `void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] + b[0]; }`
const xorC = `void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] ^ b[0]; }`

func baseLayout() arm2gc.Layout {
	return arm2gc.Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 2, ScratchWords: 16}
}

// writeRegistry lays a manifest plus source files into a temp dir and
// returns the manifest path.
func writeRegistry(t *testing.T, manifest string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "registry.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRegistry(t *testing.T) {
	path := writeRegistry(t, `{
		"layout": {"imem_words": 64, "alice_words": 1, "bob_words": 1, "out_words": 2, "scratch_words": 16},
		"programs": [
			{"name": "add", "c": "add.c", "garbler_input": [7], "max_cycles": 10000,
			 "cycle_batch": 8, "auth_token": "secret-a"},
			{"name": "xor", "c": "xor.c", "layout": {"out_words": 1}, "output_mode": "evaluator"}
		]
	}`, map[string]string{"add.c": addC, "xor.c": xorC})

	entries, err := LoadRegistry(path, baseLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(entries))
	}
	if entries[0].Name != "add" || entries[1].Name != "xor" {
		t.Fatalf("names = %q, %q", entries[0].Name, entries[1].Name)
	}
	// The per-program layout overlays the manifest default.
	if got := entries[1].Program.Layout.OutWords; got != 1 {
		t.Errorf("xor OutWords = %d, want the per-program override 1", got)
	}
	if got := entries[1].Program.Layout.ScratchWords; got != 16 {
		t.Errorf("xor ScratchWords = %d, want the manifest default 16", got)
	}
	// The entries must register cleanly — options included — on a Server.
	srv := arm2gc.NewServer(arm2gc.NewEngine())
	for _, e := range entries {
		if err := srv.Register(e.Name, e.Program, e.Options...); err != nil {
			t.Fatalf("Register(%q): %v", e.Name, err)
		}
	}
}

func TestLoadRegistryErrors(t *testing.T) {
	cases := []struct {
		name     string
		manifest string
		files    map[string]string
		wantErr  string
	}{
		{
			name:     "not json",
			manifest: `{programs: [}`,
			wantErr:  "invalid character",
		},
		{
			name:     "no programs",
			manifest: `{"programs": []}`,
			wantErr:  "no programs",
		},
		{
			name:     "missing name",
			manifest: `{"programs": [{"c": "add.c"}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  "missing name",
		},
		{
			name:     "neither source",
			manifest: `{"programs": [{"name": "p"}]}`,
			wantErr:  `exactly one of "c" or "asm"`,
		},
		{
			name:     "both sources",
			manifest: `{"programs": [{"name": "p", "c": "a.c", "asm": "a.s"}]}`,
			wantErr:  `exactly one of "c" or "asm"`,
		},
		{
			name:     "missing source file",
			manifest: `{"programs": [{"name": "p", "c": "nope.c"}]}`,
			wantErr:  "nope.c",
		},
		{
			name:     "bad output mode",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "output_mode": "everyone"}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  "output-mode",
		},
		{
			name: "duplicate names",
			manifest: `{"programs": [{"name": "p", "c": "add.c"},
				{"name": "p", "c": "add.c"}]}`,
			files:   map[string]string{"add.c": addC},
			wantErr: "duplicate program name",
		},
		{
			name:     "unknown field",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "max_cycle": 5}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  "unknown field",
		},
		{
			name:     "removed workers key",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "workers": 4}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  `unknown field "workers"`,
		},
		{
			name:     "removed pipeline key",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "pipeline": 2}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  `unknown field "pipeline"`,
		},
		{
			name:     "removed memory_backend key",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "memory_backend": "scan"}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  `unknown field "memory_backend"`,
		},
		{
			name:     "removed garble_ahead key",
			manifest: `{"programs": [{"name": "p", "c": "add.c", "garble_ahead": 2}]}`,
			files:    map[string]string{"add.c": addC},
			wantErr:  `unknown field "garble_ahead"`,
		},
		{
			name:     "source does not compile",
			manifest: `{"programs": [{"name": "p", "c": "bad.c"}]}`,
			files:    map[string]string{"bad.c": "void gc_main(int x) {"},
			wantErr:  "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeRegistry(t, tc.manifest, tc.files)
			_, err := LoadRegistry(path, baseLayout())
			if err == nil {
				t.Fatal("LoadRegistry accepted a bad manifest")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := LoadRegistry(filepath.Join(t.TempDir(), "absent.json"), baseLayout()); err == nil {
		t.Fatal("LoadRegistry accepted a missing manifest")
	}
}
