package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"arm2gc"
)

// RegistryManifest is the on-disk schema of a server program registry
// (see LoadRegistry): a default layout plus one entry per program. Paths
// are resolved relative to the manifest file, so a registry directory is
// relocatable as a unit.
//
//	{
//	  "layout": {"imem_words": 64, "alice_words": 1, "bob_words": 1,
//	             "out_words": 2, "scratch_words": 16},
//	  "programs": [
//	    {"name": "addmax", "c": "addmax.c",
//	     "garbler_input": [1000], "max_cycles": 10000,
//	     "cycle_batch": 8,
//	     "output_mode": "both",
//	     "auth_token": "team-a-secret"},
//	    {"name": "hamming", "asm": "hamming.s",
//	     "layout": {"alice_words": 4, "bob_words": 4, "out_words": 1}}
//	  ]
//	}
type RegistryManifest struct {
	Layout   *RegistryLayout   `json:"layout"`
	Programs []RegistryProgram `json:"programs"`
}

// RegistryLayout mirrors arm2gc.Layout in manifest JSON. Zero fields in a
// per-program layout fall back to the manifest-level default, then to the
// flag defaults the serve role runs with.
type RegistryLayout struct {
	IMemWords    int `json:"imem_words"`
	AliceWords   int `json:"alice_words"`
	BobWords     int `json:"bob_words"`
	OutWords     int `json:"out_words"`
	ScratchWords int `json:"scratch_words"`
}

// RegistryProgram is one hosted program: a source file (exactly one of c
// or asm), the server's private input, and the registration's option
// bounds. Zero option fields are simply not passed, taking the API
// defaults.
type RegistryProgram struct {
	Name         string          `json:"name"`
	C            string          `json:"c"`
	Asm          string          `json:"asm"`
	GarblerInput []uint32        `json:"garbler_input"`
	MaxCycles    int             `json:"max_cycles"`
	CycleBatch   int             `json:"cycle_batch"`
	OutputMode   string          `json:"output_mode"`
	AuthToken    string          `json:"auth_token"`
	Layout       *RegistryLayout `json:"layout"`
}

// RegistryEntry is a loaded, compiled, ready-to-Register program.
type RegistryEntry struct {
	Name     string
	Program  *arm2gc.Program
	Options  []arm2gc.Option
	Warnings []string
}

// overlay fills l's zero fields from base.
func (l RegistryLayout) overlay(base arm2gc.Layout) arm2gc.Layout {
	pick := func(v, def int) int {
		if v != 0 {
			return v
		}
		return def
	}
	return arm2gc.Layout{
		IMemWords:    pick(l.IMemWords, base.IMemWords),
		AliceWords:   pick(l.AliceWords, base.AliceWords),
		BobWords:     pick(l.BobWords, base.BobWords),
		OutWords:     pick(l.OutWords, base.OutWords),
		ScratchWords: pick(l.ScratchWords, base.ScratchWords),
	}
}

// LoadRegistry reads a registry manifest, compiles every program against
// its layout, and returns the entries ready for Server.Register. base is
// the layout the zero fields of manifest layouts fall back to (typically
// the serve role's layout flags). Every error names the manifest and the
// offending entry.
func LoadRegistry(path string, base arm2gc.Layout) ([]RegistryEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var man RegistryManifest
	if err := dec.Decode(&man); err != nil {
		return nil, fmt.Errorf("registry %s: %w", path, err)
	}
	if len(man.Programs) == 0 {
		return nil, fmt.Errorf("registry %s: no programs", path)
	}
	defLayout := base
	if man.Layout != nil {
		defLayout = man.Layout.overlay(base)
	}
	dir := filepath.Dir(path)
	seen := make(map[string]bool)
	entries := make([]RegistryEntry, 0, len(man.Programs))
	for i, rp := range man.Programs {
		entry, err := loadProgram(dir, rp, defLayout)
		if err != nil {
			return nil, fmt.Errorf("registry %s: program %d (%q): %w", path, i, rp.Name, err)
		}
		if seen[entry.Name] {
			return nil, fmt.Errorf("registry %s: duplicate program name %q", path, entry.Name)
		}
		seen[entry.Name] = true
		entries = append(entries, entry)
	}
	return entries, nil
}

func loadProgram(dir string, rp RegistryProgram, defLayout arm2gc.Layout) (RegistryEntry, error) {
	var e RegistryEntry
	if rp.Name == "" {
		return e, fmt.Errorf("missing name")
	}
	if (rp.C == "") == (rp.Asm == "") {
		return e, fmt.Errorf("exactly one of \"c\" or \"asm\" must be set")
	}
	layout := defLayout
	if rp.Layout != nil {
		layout = rp.Layout.overlay(defLayout)
	}
	srcPath := rp.C
	if srcPath == "" {
		srcPath = rp.Asm
	}
	if !filepath.IsAbs(srcPath) {
		srcPath = filepath.Join(dir, srcPath)
	}
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return e, err
	}
	var prog *arm2gc.Program
	var warnings []string
	if rp.C != "" {
		prog, warnings, err = arm2gc.CompileC(rp.Name, string(src), layout)
	} else {
		prog, err = arm2gc.Assemble(rp.Name, string(src), layout)
	}
	if err != nil {
		return e, err
	}
	var opts []arm2gc.Option
	if rp.GarblerInput != nil {
		opts = append(opts, arm2gc.WithGarblerInput(rp.GarblerInput))
	}
	if rp.MaxCycles != 0 {
		opts = append(opts, arm2gc.WithMaxCycles(rp.MaxCycles))
	}
	if rp.CycleBatch != 0 {
		opts = append(opts, arm2gc.WithCycleBatch(rp.CycleBatch))
	}
	if rp.OutputMode != "" {
		mode, err := ParseOutputMode(rp.OutputMode)
		if err != nil {
			return e, err
		}
		opts = append(opts, arm2gc.WithOutputMode(mode))
	}
	if rp.AuthToken != "" {
		opts = append(opts, arm2gc.WithAuthToken(rp.AuthToken))
	}
	return RegistryEntry{Name: rp.Name, Program: prog, Options: opts, Warnings: warnings}, nil
}
