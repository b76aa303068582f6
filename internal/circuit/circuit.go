// Package circuit defines the frozen netlist representation shared by every
// engine in this repository: the plaintext simulator, the conventional
// garbled-circuit engine, and the SkipGate engine.
//
// A Circuit is a sequential Boolean circuit in the TinyGarble sense: 2-input
// logic gates plus flip-flops (DFFs), evaluated for a number of clock
// cycles. Wires are dense integer indices assigned in a fixed layout:
//
//	wire 0:              constant 0
//	wire 1:              constant 1
//	2 .. 2+P-1:          port wires (primary inputs, held constant all cycles)
//	.. +D:               DFF outputs (Q), one per flip-flop
//	.. +G:               gate outputs, in topological order (gate i drives
//	                     wire GateBase+i)
//
// The layout lets per-cycle engines use flat slices indexed by wire with no
// hashing in the hot loop. Circuits are built with package build and frozen
// by its Compile; they are immutable afterwards.
package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Op is a gate operator. Only 2-input gates (plus NOT/BUF) exist, as
// required by the GC protocol; wider functions are decomposed by the
// builder.
type Op uint8

// Gate operators. XOR-class gates (XOR, XNOR, NOT, BUF) are free under the
// free-XOR optimization; the AND-class (AND, OR, NAND, NOR) costs one
// garbled table (two ciphertexts with half gates). MUX is the one 3-input
// cell: out = S ? B : A. It also costs exactly one garbled table
// (out = A ⊕ AND(S, A⊕B)), and exists as an atomic cell — rather than the
// equivalent XOR/AND decomposition — because SkipGate can turn an atomic
// MUX with a public select into a plain wire and recursively release the
// unselected cone, which the paper's garbled processor depends on
// (synthesis netlists keep MUX cells for the register file and memories).
const (
	AND Op = iota
	OR
	NAND
	NOR
	XOR
	XNOR
	NOT // single input (A)
	BUF // single input (A)
	MUX // three inputs: out = S ? B : A
	numOps
)

var opNames = [numOps]string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsUnary reports whether the operator takes a single input.
func (o Op) IsUnary() bool { return o == NOT || o == BUF }

// IsFree reports whether the operator is free under free-XOR (no garbled
// table, no communication).
func (o Op) IsFree() bool { return o == XOR || o == XNOR || o == NOT || o == BUF }

// EvalMux computes the multiplexer truth table.
func EvalMux(s, a, b bool) bool {
	if s {
		return b
	}
	return a
}

// Eval computes the plaintext truth table of a 1- or 2-input operator
// (use EvalMux for MUX).
func (o Op) Eval(a, b bool) bool {
	switch o {
	case AND:
		return a && b
	case OR:
		return a || b
	case NAND:
		return !(a && b)
	case NOR:
		return !(a || b)
	case XOR:
		return a != b
	case XNOR:
		return a == b
	case NOT:
		return !a
	case BUF:
		return a
	}
	panic("circuit: bad op")
}

// Wire is a dense wire index into a Circuit's wire space.
type Wire int32

// Const0 and Const1 are the constant wires present in every circuit.
const (
	Const0 Wire = 0
	Const1 Wire = 1
)

// Owner identifies who supplies an input bit: the garbler (Alice), the
// evaluator (Bob), or both (public input p in the c = f(a,b,p) notation of
// the paper).
type Owner uint8

// Input owners.
const (
	Public Owner = iota
	Alice
	Bob
)

func (o Owner) String() string {
	switch o {
	case Public:
		return "public"
	case Alice:
		return "alice"
	case Bob:
		return "bob"
	}
	return fmt.Sprintf("Owner(%d)", uint8(o))
}

// Port is a primary input: a contiguous range of port wires owned by one
// party. Port wires hold their value/label for the whole run (sequential
// inputs are modelled as DFF initial values instead, as in TinyGarble).
type Port struct {
	Name  string
	Owner Owner
	Base  Wire // first wire of the port
	Bits  int  // number of wires
	Off   int  // bit offset into the owner's input bit-vector
}

// InitKind says where a flip-flop's initial (cycle-1) value comes from.
type InitKind uint8

// Flip-flop initialization sources. The paper initializes instruction
// memory with the public program, Alice/Bob memories with their input
// labels, and everything else with zero.
const (
	InitZero InitKind = iota
	InitOne
	InitPublic // public input bit Idx
	InitAlice  // Alice input bit Idx
	InitBob    // Bob input bit Idx
)

// Init describes a flip-flop's initial value.
type Init struct {
	Kind InitKind
	Idx  int // bit index into the corresponding input vector
}

// DFF is a flip-flop: its output wire is QBase+i for DFF i; at the end of
// every cycle the value/label on D is copied to Q for the next cycle.
type DFF struct {
	D    Wire
	Init Init
}

// Gate is a logic gate. Its output wire is implicit: GateBase + index.
// B is ignored for unary ops; S is used only by MUX.
type Gate struct {
	Op   Op
	A, B Wire
	S    Wire
}

// Output is a named group of output wires (an output bus).
type Output struct {
	Name  string
	Wires []Wire
}

// Circuit is a frozen, validated, topologically ordered netlist.
type Circuit struct {
	Ports   []Port
	DFFs    []DFF
	Gates   []Gate
	Outputs []Output

	// PortBase..GateBase partition the wire space per the package comment.
	PortBase Wire
	DFFBase  Wire
	GateBase Wire

	// Input bit-vector lengths per owner (max referenced index + 1).
	PublicBits, AliceBits, BobBits int

	// GateScope optionally tags each gate with an index into ScopeNames
	// (processor module attribution, used by the instruction-level-pruning
	// baseline). Either nil or len(Gates).
	GateScope  []int32
	ScopeNames []string

	// Names for diagnostics; may be empty.
	Name string

	// digest memoizes Hash: a frozen netlist has one digest for life.
	digestOnce sync.Once
	digest     [32]byte
}

// NumWires returns the size of the wire space.
func (c *Circuit) NumWires() int { return int(c.GateBase) + len(c.Gates) }

// GateOut returns the output wire of gate i.
func (c *Circuit) GateOut(i int) Wire { return c.GateBase + Wire(i) }

// WireGate returns the index of the gate driving w, or -1 if w is not a
// gate output.
func (c *Circuit) WireGate(w Wire) int {
	if w >= c.GateBase {
		return int(w - c.GateBase)
	}
	return -1
}

// QWire returns the output wire of DFF i.
func (c *Circuit) QWire(i int) Wire { return c.DFFBase + Wire(i) }

// WireDFF returns the index of the DFF driving w, or -1.
func (c *Circuit) WireDFF(w Wire) int {
	if w >= c.DFFBase && w < c.GateBase {
		return int(w - c.DFFBase)
	}
	return -1
}

// Stats summarizes gate composition; NonXOR is the paper's cost metric
// (garbled tables per cycle under conventional GC).
type Stats struct {
	Gates  int
	NonXOR int // AND/OR/NAND/NOR
	XOR    int // XOR/XNOR
	NotBuf int
	DFFs   int
	Ports  int
}

// Stats computes gate composition statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Gates: len(c.Gates), DFFs: len(c.DFFs), Ports: len(c.Ports)}
	for _, g := range c.Gates {
		switch g.Op {
		case AND, OR, NAND, NOR, MUX:
			s.NonXOR++
		case XOR, XNOR:
			s.XOR++
		default:
			s.NotBuf++
		}
	}
	return s
}

// Validate checks structural well-formedness: wire ranges, topological
// order (gate inputs must be earlier wires), and output references.
func (c *Circuit) Validate() error {
	n := Wire(c.NumWires())
	if c.PortBase != 2 {
		return fmt.Errorf("circuit %q: PortBase = %d, want 2", c.Name, c.PortBase)
	}
	want := c.PortBase
	for i, p := range c.Ports {
		if p.Base != want {
			return fmt.Errorf("port %d (%q): base %d, want %d", i, p.Name, p.Base, want)
		}
		if p.Bits <= 0 {
			return fmt.Errorf("port %d (%q): %d bits", i, p.Name, p.Bits)
		}
		want += Wire(p.Bits)
	}
	if want != c.DFFBase {
		return fmt.Errorf("DFFBase = %d, want %d", c.DFFBase, want)
	}
	if c.GateBase != c.DFFBase+Wire(len(c.DFFs)) {
		return fmt.Errorf("GateBase = %d, want %d", c.GateBase, c.DFFBase+Wire(len(c.DFFs)))
	}
	for i, g := range c.Gates {
		out := c.GateOut(i)
		if g.A < 0 || g.A >= n || g.A >= out {
			return fmt.Errorf("gate %d (%s): input A=%d not before output %d", i, g.Op, g.A, out)
		}
		if !g.Op.IsUnary() && (g.B < 0 || g.B >= n || g.B >= out) {
			return fmt.Errorf("gate %d (%s): input B=%d not before output %d", i, g.Op, g.B, out)
		}
		if g.Op == MUX && (g.S < 0 || g.S >= n || g.S >= out) {
			return fmt.Errorf("gate %d (MUX): select S=%d not before output %d", i, g.S, out)
		}
		if g.Op >= numOps {
			return fmt.Errorf("gate %d: bad op %d", i, g.Op)
		}
	}
	bitsFor := func(k InitKind) int {
		switch k {
		case InitPublic:
			return c.PublicBits
		case InitAlice:
			return c.AliceBits
		case InitBob:
			return c.BobBits
		}
		return 0
	}
	for i, d := range c.DFFs {
		if d.D < 0 || d.D >= n {
			return fmt.Errorf("dff %d: D=%d out of range", i, d.D)
		}
		if k := d.Init.Kind; k == InitPublic || k == InitAlice || k == InitBob {
			if d.Init.Idx < 0 || d.Init.Idx >= bitsFor(k) {
				return fmt.Errorf("dff %d: init bit %d outside %v vector of %d bits",
					i, d.Init.Idx, k, bitsFor(k))
			}
		}
	}
	for _, o := range c.Outputs {
		for j, w := range o.Wires {
			if w < 0 || w >= n {
				return fmt.Errorf("output %q[%d]: wire %d out of range", o.Name, j, w)
			}
		}
	}
	return nil
}

// OutputWires returns all output wires flattened, in declaration order.
func (c *Circuit) OutputWires() []Wire {
	var ws []Wire
	for _, o := range c.Outputs {
		ws = append(ws, o.Wires...)
	}
	return ws
}

// FindOutput returns the named output bus, or nil.
func (c *Circuit) FindOutput(name string) *Output {
	for i := range c.Outputs {
		if c.Outputs[i].Name == name {
			return &c.Outputs[i]
		}
	}
	return nil
}

// FindPort returns the named port, or nil.
func (c *Circuit) FindPort(name string) *Port {
	for i := range c.Ports {
		if c.Ports[i].Name == name {
			return &c.Ports[i]
		}
	}
	return nil
}

// Hash returns a stable digest of the netlist, used by the protocol layer
// to confirm both parties hold the same circuit before garbling. Every
// session of every party asks for it, so it is computed on the first call
// and kept: a Circuit is frozen once built, and must not be edited or
// copied by value after its first Hash.
func (c *Circuit) Hash() [32]byte {
	c.digestOnce.Do(func() { c.digest = c.computeHash() })
	return c.digest
}

// computeHash digests the whole netlist.
func (c *Circuit) computeHash() [32]byte {
	h := sha256.New()
	var buf [12]byte
	wr32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	wr32(uint32(len(c.Ports)))
	for _, p := range c.Ports {
		h.Write([]byte(p.Name))
		wr32(uint32(p.Owner))
		wr32(uint32(p.Bits))
		wr32(uint32(p.Off))
	}
	wr32(uint32(len(c.DFFs)))
	for _, d := range c.DFFs {
		wr32(uint32(d.D))
		wr32(uint32(d.Init.Kind))
		wr32(uint32(d.Init.Idx))
	}
	wr32(uint32(len(c.Gates)))
	for _, g := range c.Gates {
		binary.LittleEndian.PutUint32(buf[0:], uint32(g.Op))
		binary.LittleEndian.PutUint32(buf[4:], uint32(g.A))
		binary.LittleEndian.PutUint32(buf[8:], uint32(g.B))
		h.Write(buf[:12])
		wr32(uint32(g.S))
	}
	for _, o := range c.Outputs {
		h.Write([]byte(o.Name))
		for _, w := range o.Wires {
			wr32(uint32(w))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ResolveOutput maps an output wire to the wire actually sampled at the
// end of a cycle. Output values are read after the flip-flop D→Q copy (the
// simulator's semantics), so an output naming a Q wire is equivalent to
// sampling that flip-flop's D wire just before the copy. The resolution is
// a single step: if D is itself another Q wire, its pre-copy label/value
// is already in place.
func (c *Circuit) ResolveOutput(w Wire) Wire {
	if i := c.WireDFF(w); i >= 0 {
		return c.DFFs[i].D
	}
	return w
}

// Fanout returns, for each gate, the number of label consumers of its
// output wire: references from other gates' inputs, from (resolved) output
// wires, and (when withDFF is set) from DFF D-inputs. This matches the
// paper's label_fanout initialization; the engine initializes from
// Fanout(true) on ordinary cycles and Fanout(false) on the final cycle,
// where next-state values are not consumed except to sample outputs.
func (c *Circuit) Fanout(withDFF bool) []int32 {
	fan := make([]int32, len(c.Gates))
	bump := func(w Wire) {
		if g := c.WireGate(w); g >= 0 {
			fan[g]++
		}
	}
	for _, g := range c.Gates {
		bump(g.A)
		if !g.Op.IsUnary() {
			bump(g.B)
		}
		if g.Op == MUX {
			bump(g.S)
		}
	}
	for _, o := range c.Outputs {
		for _, w := range o.Wires {
			bump(c.ResolveOutput(w))
		}
	}
	if withDFF {
		for _, d := range c.DFFs {
			bump(d.D)
		}
	}
	return fan
}
