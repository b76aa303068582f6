// Package arm2gc is a from-scratch implementation of ARM2GC (Songhori et
// al., DAC 2019): secure two-party computation by garbling an ARM-style
// processor, made practical by the SkipGate algorithm, which garbles only
// the gates whose values actually depend on private data — the public
// program binary drives everything else for free.
//
// The typical flow mirrors the paper's Figure 4:
//
//	src := `void gc_main(const int *a, const int *b, int *c) {
//	    c[0] = a[0] + b[0];
//	}`
//	prog, _, err := arm2gc.CompileC("add", src, arm2gc.Layout{
//	    IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 1, ScratchWords: 16,
//	})
//	eng := arm2gc.NewEngine()
//	sess, err := eng.Session(prog, arm2gc.WithMaxCycles(10_000))
//	res, err := sess.Run(ctx, []uint32{2}, []uint32{40})
//	// res.Outputs[0] == 42; res.GarbledTables == 31
//
// The Engine caches the synthesized processor netlist per memory Layout,
// so any number of concurrent sessions over the same geometry share one
// immutable machine. For a real two-party execution over a network, each
// side calls sess.Garble or sess.Evaluate with its private input on its
// end of a connection; everything else — oblivious transfer, garbled
// table streaming, output decoding — is handled internally.
//
// For a deployed two-party service, Server and Client layer negotiated
// sessions on top: a Server registers programs by name over one Engine
// and garbles for many concurrent evaluator connections, and a Client
// reuses one connection for many sequential Evaluate calls, each opened
// by a propose/grant handshake that validates the program and options
// against the server's registration before any cryptography runs.
package arm2gc

import (
	"io"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/emu"
	"arm2gc/internal/isa"
	"arm2gc/internal/minicc"
	"arm2gc/internal/obliv"
	"arm2gc/internal/proto"
)

// Layout is the processor memory geometry: instruction words plus the four
// data regions (Alice's inputs, Bob's inputs, outputs, scratch+stack).
type Layout = isa.Layout

// Program is a linked binary: the public input p of the garbled execution.
type Program = isa.Program

// Oblivious-memory backend names, as Machine.MemoryBackend reports them.
// Every session picks MemoryScan below obliv.DefaultThreshold data words
// (2KB) and MemorySqrtORAM at or above it — the paper's "linear scan below
// the ORAM break-even" rule.
const (
	MemoryScan     = obliv.Scan
	MemorySqrtORAM = obliv.SqrtORAM
)

// CompileC compiles MiniC source (entry point gc_main) and links it
// against a layout. The returned warnings flag conditionals that could
// not be converted to predicated instructions — if their conditions are
// secret, the program counter becomes secret and costs explode (the
// paper's Figure 6 case).
func CompileC(name, src string, l Layout) (*Program, []string, error) {
	res, err := minicc.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	fitted, err := isa.FitLayout(res.Asm, l)
	if err != nil {
		return nil, nil, err
	}
	p, err := isa.Link(name, res.Asm, fitted)
	if err != nil {
		return nil, nil, err
	}
	return p, res.Warnings, nil
}

// Assemble assembles ARM-style assembly (entry point gc_main) and links it.
func Assemble(name, src string, l Layout) (*Program, error) {
	fitted, err := isa.FitLayout(src, l)
	if err != nil {
		return nil, err
	}
	return isa.Link(name, src, fitted)
}

// Emulate runs a program natively (no cryptography) and returns the output
// region and the cycle count. SFE programs have input-independent control
// flow, so the cycle count from any input is the cc both parties agree on.
func Emulate(p *Program, alice, bob []uint32, maxCycles int) ([]uint32, int, error) {
	m, err := emu.New(p, alice, bob)
	if err != nil {
		return nil, 0, err
	}
	cycles, err := m.Run(maxCycles)
	if err != nil {
		return nil, 0, err
	}
	return m.Output(), cycles, nil
}

// Machine is a garbled processor instance for one memory layout; it can
// run any program linked against that layout. Machines are immutable
// after construction and safe for concurrent use.
type Machine struct {
	cpu *cpu.CPU
}

// Stats reports the processor's netlist composition (the per-cycle cost a
// conventional garbler would pay).
func (m *Machine) Stats() circuit.Stats { return m.cpu.Circuit.Stats() }

// MemoryBackend reports the oblivious-memory backend this machine's
// netlist was synthesized with: MemoryScan or MemorySqrtORAM.
func (m *Machine) MemoryBackend() string { return m.cpu.Backend }

// WriteNetlist serializes the processor netlist in the text format of
// internal/circuit, for inspection or external tooling.
func (m *Machine) WriteNetlist(w io.Writer) error { return m.cpu.Circuit.WriteText(w) }

// RunInfo reports a garbled execution.
type RunInfo struct {
	Outputs []uint32 // the output region c[] (nil when this party does not learn it)
	Cycles  int
	Halted  bool

	// GarbledTables is the number of garbled tables transferred — the
	// paper's "# of garbled non-XOR gates" metric.
	GarbledTables int

	// Conventional is cycles × processor non-XOR gates: the cost without
	// SkipGate (Table 4's w/o column).
	Conventional int64

	// TableFrames is the number of garbled-table network frames a
	// two-party run exchanged (see WithCycleBatch); zero for in-process
	// runs.
	TableFrames int

	Detail core.CycleStats

	// Phases is this party's wall time in a networked session by phase:
	// from the proposal to its last frame on a Server or Client session,
	// from the protocol's first step on a bare Garble or Evaluate, which
	// has no negotiate phase. A session that compiled its program's trace,
	// or waited for a concurrent session's compile, shows it in
	// PhaseCompile; one that found the trace cached shows zero there. Zero
	// for in-process runs.
	Phases Phases

	path sessionPath // how a networked session's table stream was produced
}

// Phases is one party's session wall time split by phase (see
// RunInfo.Phases); index it with the Phase constants.
type Phases = proto.Phases

// Phase names one stretch of a session; String gives its metric label.
type Phase = proto.Phase

// The phases of a session.
const (
	PhaseNegotiate   = proto.PhaseNegotiate
	PhaseOTSetup     = proto.PhaseOTSetup
	PhaseOTExtension = proto.PhaseOTExtension
	PhaseCompile     = proto.PhaseCompile
	PhaseKernel      = proto.PhaseKernel
	PhaseWrite       = proto.PhaseWrite
	PhaseReadWait    = proto.PhaseReadWait
	PhaseDecode      = proto.PhaseDecode
	NumPhases        = proto.NumPhases
)

func (m *Machine) info(p *Program, outBits []bool, st core.Stats, halted bool) *RunInfo {
	info := &RunInfo{
		Cycles:        st.Cycles,
		Halted:        halted,
		GarbledTables: st.Total.Garbled,
		Conventional:  int64(st.Cycles) * int64(m.cpu.Circuit.Stats().NonXOR),
		Detail:        st.Total,
	}
	if outBits != nil {
		info.Outputs = cpu.OutWords(outBits[:p.Layout.OutWords*32])
	}
	return info
}

// Disassemble renders a linked program.
func Disassemble(p *Program) string { return p.Disassemble() }
