package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text serialization of netlists — a simple line format in the spirit of
// structural netlist interchange, so circuits can be inspected, diffed and
// handed to external tooling:
//
//	circuit <name>
//	port <name> <owner> <bits> <off>
//	dff <D> <initkind> [idx]
//	gate <op> <A> [B] [S]
//	output <name> <wire...>
//	end
//
// Wires use the frozen dense numbering. The format is write-only: both
// parties synthesize the processor netlist from the public layout, so
// nothing in the system loads a circuit back.

// WriteText serializes the circuit.
func (c *Circuit) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", nameOrAnon(c.Name))
	for _, p := range c.Ports {
		fmt.Fprintf(bw, "port %s %s %d %d\n", nameOrAnon(p.Name), p.Owner, p.Bits, p.Off)
	}
	for _, d := range c.DFFs {
		switch d.Init.Kind {
		case InitZero:
			fmt.Fprintf(bw, "dff %d zero\n", d.D)
		case InitOne:
			fmt.Fprintf(bw, "dff %d one\n", d.D)
		case InitPublic:
			fmt.Fprintf(bw, "dff %d public %d\n", d.D, d.Init.Idx)
		case InitAlice:
			fmt.Fprintf(bw, "dff %d alice %d\n", d.D, d.Init.Idx)
		case InitBob:
			fmt.Fprintf(bw, "dff %d bob %d\n", d.D, d.Init.Idx)
		}
	}
	for _, g := range c.Gates {
		switch {
		case g.Op == MUX:
			fmt.Fprintf(bw, "gate MUX %d %d %d\n", g.A, g.B, g.S)
		case g.Op.IsUnary():
			fmt.Fprintf(bw, "gate %s %d\n", g.Op, g.A)
		default:
			fmt.Fprintf(bw, "gate %s %d %d\n", g.Op, g.A, g.B)
		}
	}
	for _, o := range c.Outputs {
		fmt.Fprintf(bw, "output %s", nameOrAnon(o.Name))
		for _, wi := range o.Wires {
			fmt.Fprintf(bw, " %d", wi)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func nameOrAnon(s string) string {
	if s == "" {
		return "_"
	}
	return strings.ReplaceAll(s, " ", "_")
}
