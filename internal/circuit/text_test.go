package circuit_test

import (
	"bytes"
	"testing"

	"arm2gc/internal/circuit"
)

// TestWriteTextGolden pins WriteText's exact output for one small circuit
// that holds every directive: a port of each owner, a flip-flop of each
// init kind, a unary gate, a binary gate and a MUX, an anonymous name, a
// name with a space, and outputs. The format is write-only, so its bytes
// are the contract external tools read.
func TestWriteTextGolden(t *testing.T) {
	c := &circuit.Circuit{
		Name: "golden netlist",
		Ports: []circuit.Port{
			{Name: "p", Owner: circuit.Public, Base: 2, Bits: 2, Off: 0},
			{Name: "", Owner: circuit.Alice, Base: 4, Bits: 1, Off: 0},
			{Name: "b in", Owner: circuit.Bob, Base: 5, Bits: 2, Off: 1},
		},
		DFFs: []circuit.DFF{
			{D: 12, Init: circuit.Init{Kind: circuit.InitZero}},
			{D: 13, Init: circuit.Init{Kind: circuit.InitOne}},
			{D: 14, Init: circuit.Init{Kind: circuit.InitPublic, Idx: 1}},
			{D: 12, Init: circuit.Init{Kind: circuit.InitAlice, Idx: 0}},
			{D: 13, Init: circuit.Init{Kind: circuit.InitBob, Idx: 2}},
		},
		Gates: []circuit.Gate{
			{Op: circuit.AND, A: 4, B: 5},
			{Op: circuit.NOT, A: 7, B: 7},
			{Op: circuit.MUX, A: 2, B: 3, S: 8},
		},
		Outputs: []circuit.Output{
			{Name: "out", Wires: []circuit.Wire{14, 12}},
			{Name: "", Wires: []circuit.Wire{13}},
		},
		PortBase:   2,
		DFFBase:    7,
		GateBase:   12,
		PublicBits: 2, AliceBits: 1, BobBits: 3,
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("golden circuit does not validate: %v", err)
	}
	const want = `circuit golden_netlist
port p public 2 0
port _ alice 1 0
port b_in bob 2 1
dff 12 zero
dff 13 one
dff 14 public 1
dff 12 alice 0
dff 13 bob 2
gate AND 4 5
gate NOT 7
gate MUX 2 3 8
output out 14 12
output _ 13
end
`
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("WriteText output changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
