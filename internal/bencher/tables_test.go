package bencher

import (
	"strings"
	"testing"
)

func TestTablesGenerate(t *testing.T) {
	type gen struct {
		name string
		f    func() (*Table, error)
	}
	gens := []gen{
		{"table1", func() (*Table, error) { return Table1(false) }},
		{"table2", func() (*Table, error) { return Table2(false) }},
		{"table3", func() (*Table, error) { return Table3(false) }},
		{"table4", func() (*Table, error) { return Table4(false) }},
		{"table5", func() (*Table, error) { return Table5(false) }},
		{"table6", Table6},
		{"figure1", Figure1},
		{"figure2", Figure2},
		{"figure3", Figure3},
		{"figure5", Figure5},
		{"figure6", Figure6},
		{"mips", MIPSTable},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			tab, err := g.f()
			if err != nil {
				t.Fatal(err)
			}
			out := tab.Render()
			if len(tab.Rows) == 0 || !strings.Contains(out, tab.Header[0]) {
				t.Fatalf("degenerate table:\n%s", out)
			}
			t.Logf("\n%s", out)
		})
	}
}

// TestTable1ExactRows pins the rows where our synthesis matches the
// paper's construction exactly.
func TestTable1ExactRows(t *testing.T) {
	tab, err := Table1(false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"Sum 32":     {"32", "31"},
		"Compare 32": {"32", "32"},
		"Mult 32":    {"2,048", "2,016"},
		"SHA3 256":   {"-", "38,400"}, // w/o differs (no controller overhead here)
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			continue
		}
		if w[0] != "-" && row[1] != w[0] {
			t.Errorf("%s: w/o = %s, want %s", row[0], row[1], w[0])
		}
		if row[2] != w[1] {
			t.Errorf("%s: w/ = %s, want %s", row[0], row[2], w[1])
		}
	}
}

// TestFigure5Shape: predication must be orders of magnitude cheaper than a
// secret branch.
func TestFigure5Shape(t *testing.T) {
	tab, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	branchy := tab.Rows[0][1]
	pred := tab.Rows[1][1]
	nb := parseNum(t, branchy)
	np := parseNum(t, pred)
	if nb < 20*np {
		t.Errorf("secret branch cost %d vs predicated %d: expected ≥20x blowup", nb, np)
	}
}

func parseNum(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, c := range s {
		if c >= '0' && c <= '9' {
			v = v*10 + int64(c-'0')
		}
	}
	return v
}
