// arm2gc-vet runs the repository's static-analysis suite: the custom
// go/analysis-style analyzers over the module's source, or (with
// -netlist) the netlist structural linter over a built processor
// circuit.
//
//	arm2gc-vet                         # analyze every module package
//	arm2gc-vet ./internal/proto        # analyze one package directory
//	arm2gc-vet -netlist prog.s         # assemble, build, lint the netlist
//	arm2gc-vet -netlist prog.c         # minicc-compile, build, lint
//
// Exit status 1 when any finding survives suppression; the output format
// is the go vet convention (file:line:col: message [analyzer]) so
// editors and CI annotate it natively.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"arm2gc"
	"arm2gc/internal/analysis"
	"arm2gc/internal/build"
	"arm2gc/internal/cli"
	"arm2gc/internal/cpu"
	"arm2gc/internal/obliv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("arm2gc-vet: ")
	netlist := flag.String("netlist", "", "lint the processor netlist built for this program (.s or .c) instead of analyzing Go source")
	memBackend := flag.String("mem-backend", "auto", "netlist mode: oblivious data-memory backend (auto | scan | sqrt-oram)")
	expectNonXOR := flag.Int("expect-nonxor", -1, "netlist mode: fail unless the circuit has exactly this many non-XOR gates (cost-model golden; -1 disables)")
	layout := cli.LayoutFlags(" (netlist mode)")
	flag.Parse()

	if *netlist != "" {
		if err := lintNetlist(*netlist, layout(), *memBackend, *expectNonXOR); err != nil {
			log.Fatal(err)
		}
		return
	}
	analyzeGo(flag.Args())
}

// analyzeGo runs the analyzer suite over the module (no args) or over
// the packages rooted at the given directories.
func analyzeGo(args []string) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		log.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		log.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		log.Fatal(err)
	}
	if len(args) > 0 {
		keep, err := selectPackages(root, l.ModulePath, pkgs, args)
		if err != nil {
			log.Fatal(err)
		}
		pkgs = keep
	}
	diags, err := analysis.Run(analysis.Suite(), pkgs)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		log.Fatalf("%d finding(s)", len(diags))
	}
}

// selectPackages filters loaded packages down to the requested
// directories ("./..." and "." mean everything, matching go vet).
func selectPackages(root, modPath string, pkgs []*analysis.Package, args []string) ([]*analysis.Package, error) {
	want := map[string]bool{}
	all := false
	for _, a := range args {
		if a == "./..." || a == "." {
			all = true
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(a, "/..."))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside the module at %s", a, root)
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		want[ip] = true
	}
	if all {
		return pkgs, nil
	}
	var keep []*analysis.Package
	for _, p := range pkgs {
		// A named directory selects its whole subtree, go-vet style.
		for w := range want {
			if p.Path == w || strings.HasPrefix(p.Path, w+"/") {
				keep = append(keep, p)
				break
			}
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("no module packages match %v", args)
	}
	return keep, nil
}

// lintNetlist builds the processor circuit a program would run on — BuildMem
// runs the memory backend's width self-check — and runs the structural
// linter over it.
func lintNetlist(path string, l arm2gc.Layout, backend string, expectNonXOR int) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prog *arm2gc.Program
	switch filepath.Ext(path) {
	case ".c":
		prog, _, err = arm2gc.CompileC(path, string(src), l)
	default:
		prog, err = arm2gc.Assemble(path, string(src), l)
	}
	if err != nil {
		return err
	}
	resolved, err := obliv.Config{Backend: backend}.Resolve(prog.Layout.DataWords())
	if err != nil {
		return err
	}
	c, err := cpu.BuildMem(prog.Layout, obliv.Config{Backend: resolved})
	if err != nil {
		return err
	}
	report := build.Lint(c.Circuit, build.LintOpts{CheckCost: expectNonXOR >= 0, ExpectNonXOR: expectNonXOR})
	st := c.Circuit.Stats()
	fmt.Printf("%s: %d gates (%d non-XOR), %d DFFs, backend %s\n",
		c.Circuit.Name, st.Gates, st.NonXOR, st.DFFs, c.Backend)
	for _, issue := range report.Issues {
		fmt.Println(" ", issue)
	}
	if n := report.Errors(); n > 0 {
		return fmt.Errorf("%d netlist lint error(s)", n)
	}
	fmt.Println("netlist clean")
	return nil
}
