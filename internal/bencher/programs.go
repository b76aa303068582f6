package bencher

import (
	"fmt"
	"strings"

	"arm2gc/internal/isa"
	"arm2gc/internal/minicc"
	"arm2gc/internal/ref"
)

// Workload is one CPU-path benchmark: a program (MiniC or assembly), its
// memory geometry, representative inputs, and the reference function that
// predicts the outputs.
type Workload struct {
	Name   string
	C      string // MiniC source (preferred)
	Asm    string // assembly source when carry-flag tricks are needed
	Layout isa.Layout
	Alice  []uint32
	Bob    []uint32
	Check  func(alice, bob []uint32) []uint32
}

// Program compiles/assembles and links the workload.
func (w *Workload) Program() (*isa.Program, []string, error) {
	src := w.Asm
	var warnings []string
	if w.C != "" {
		res, err := minicc.Compile(w.C)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		src = res.Asm
		warnings = res.Warnings
	}
	l, err := isa.FitLayout(src, w.Layout)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	p, err := isa.Link(w.Name, src, l)
	if err != nil {
		return nil, nil, err
	}
	return p, warnings, nil
}

func layout(alice, bob, out, scratch int) isa.Layout {
	return isa.Layout{IMemWords: 64, AliceWords: alice, BobWords: bob, OutWords: out, ScratchWords: scratch}
}

const popcountC = `
unsigned popcount(unsigned x) {
	x = x - ((x >> 1) & 0x55555555);
	x = (x & 0x33333333) + ((x >> 2) & 0x33333333);
	x = (x + (x >> 4)) & 0x0F0F0F0F;
	x = x + (x >> 8);
	x = x + (x >> 16);
	return x & 0x3F;
}
`

// SumWorkload: n-bit addition (n multiple of 32). Single-word sums use
// MiniC; multi-word sums need the carry flag and use generated assembly
// with an unrolled ADDS/ADC chain.
func SumWorkload(n int) *Workload {
	words := n / 32
	if words == 1 {
		return &Workload{
			Name:   "Sum 32",
			C:      "void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] + b[0]; }",
			Layout: layout(1, 1, 1, 8),
			Alice:  []uint32{0xdeadbeef},
			Bob:    []uint32{0x12345678},
			Check: func(a, b []uint32) []uint32 {
				return []uint32{a[0] + b[0]}
			},
		}
	}
	var sb strings.Builder
	sb.WriteString("gc_main:\n")
	for i := 0; i < words; i++ {
		op := "adc"
		if i == 0 {
			op = "adds"
		} else if i < words-1 {
			op = "adcs"
		}
		fmt.Fprintf(&sb, "\tldr r3, [r0, #%d]\n\tldr r4, [r1, #%d]\n\t%s r3, r3, r4\n\tstr r3, [r2, #%d]\n", 4*i, 4*i, op, 4*i)
	}
	sb.WriteString("\tmov pc, lr\n")
	alice := make([]uint32, words)
	bob := make([]uint32, words)
	for i := range alice {
		alice[i] = 0xffffffff // worst-case carry chain
		bob[i] = uint32(i + 1)
	}
	return &Workload{
		Name:   fmt.Sprintf("Sum %d", n),
		Asm:    sb.String(),
		Layout: layout(words, words, words, 8),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			out := make([]uint32, words)
			var carry uint64
			for i := 0; i < words; i++ {
				s := uint64(a[i]) + uint64(b[i]) + carry
				out[i] = uint32(s)
				carry = s >> 32
			}
			return out
		},
	}
}

// CompareWorkload: n-bit unsigned comparison a < b. Multi-word versions
// use the classic SUBS/SBCS borrow chain.
func CompareWorkload(n int) *Workload {
	words := n / 32
	if words == 1 {
		return &Workload{
			Name: "Compare 32",
			C: `void gc_main(const int *a, const int *b, int *c) {
	unsigned x = a[0];
	unsigned y = b[0];
	c[0] = x < y ? 1 : 0;
}`,
			Layout: layout(1, 1, 1, 8),
			Alice:  []uint32{77},
			Bob:    []uint32{200},
			Check: func(a, b []uint32) []uint32 {
				if a[0] < b[0] {
					return []uint32{1}
				}
				return []uint32{0}
			},
		}
	}
	var sb strings.Builder
	sb.WriteString("gc_main:\n")
	for i := 0; i < words; i++ {
		op := "sbcs"
		if i == 0 {
			op = "subs"
		}
		fmt.Fprintf(&sb, "\tldr r3, [r0, #%d]\n\tldr r4, [r1, #%d]\n\t%s r3, r3, r4\n", 4*i, 4*i, op)
	}
	// a < b  ⇔  borrow  ⇔  carry clear after the chain.
	sb.WriteString("\tmov r3, #0\n\tmovcc r3, #1\n\tstr r3, [r2]\n\tmov pc, lr\n")
	alice := make([]uint32, words)
	bob := make([]uint32, words)
	for i := range alice {
		alice[i] = uint32(i * 7)
		bob[i] = uint32(i * 7)
	}
	bob[words-1]++ // b > a in the top word
	return &Workload{
		Name:   fmt.Sprintf("Compare %d", n),
		Asm:    sb.String(),
		Layout: layout(words, words, 1, 8),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			for i := words - 1; i >= 0; i-- {
				if a[i] != b[i] {
					if a[i] < b[i] {
						return []uint32{1}
					}
					return []uint32{0}
				}
			}
			return []uint32{0}
		},
	}
}

// HammingWorkload: Hamming distance of two n-bit strings (n/32 words),
// tree-based popcount per the paper's §5.4 note.
func HammingWorkload(n int) *Workload {
	words := (n + 31) / 32
	src := popcountC + fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	unsigned acc = 0;
	for (int i = 0; i < %d; i = i + 1) {
		acc = acc + popcount(a[i] ^ b[i]);
	}
	c[0] = acc;
}`, words)
	alice := make([]uint32, words)
	bob := make([]uint32, words)
	for i := range alice {
		alice[i] = 0xa5a5a5a5 ^ uint32(i*0x1111)
		bob[i] = 0x5a5a5a5a ^ uint32(i*0x2222)
	}
	return &Workload{
		Name:   fmt.Sprintf("Hamming %d", n),
		C:      src,
		Layout: layout(words, words, 1, 16),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			return []uint32{ref.HammingWords(a, b)}
		},
	}
}

// HammingIntsWorkload is the garbled-MIPS comparison workload of §5.3:
// the Hamming distance between vectors of 32 32-bit integers, counting
// positions where the integers differ.
func HammingIntsWorkload(n int) *Workload {
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	int acc = 0;
	for (int i = 0; i < %d; i = i + 1) {
		acc = acc + (a[i] != b[i] ? 1 : 0);
	}
	c[0] = acc;
}`, n)
	alice := make([]uint32, n)
	bob := make([]uint32, n)
	for i := range alice {
		alice[i] = uint32(i)
		bob[i] = uint32(i % 5)
	}
	return &Workload{
		Name:   fmt.Sprintf("HammingInts %d", n),
		C:      src,
		Layout: layout(n, n, 1, 16),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			var acc uint32
			for i := range a {
				if a[i] != b[i] {
					acc++
				}
			}
			return []uint32{acc}
		},
	}
}

// MultWorkload: 32-bit multiplication.
func MultWorkload() *Workload {
	return &Workload{
		Name:   "Mult 32",
		C:      "void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] * b[0]; }",
		Layout: layout(1, 1, 1, 8),
		Alice:  []uint32{123456789},
		Bob:    []uint32{987654321},
		Check: func(a, b []uint32) []uint32 {
			return []uint32{a[0] * b[0]}
		},
	}
}

// MatrixMultWorkload: N×N 32-bit matrix product.
func MatrixMultWorkload(n int) *Workload {
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	for (int i = 0; i < %[1]d; i = i + 1) {
		for (int j = 0; j < %[1]d; j = j + 1) {
			int acc = 0;
			for (int k = 0; k < %[1]d; k = k + 1) {
				acc = acc + a[i * %[1]d + k] * b[k * %[1]d + j];
			}
			c[i * %[1]d + j] = acc;
		}
	}
}`, n)
	words := n * n
	alice := make([]uint32, words)
	bob := make([]uint32, words)
	for i := range alice {
		alice[i] = uint32(i + 1)
		bob[i] = uint32(2*i + 3)
	}
	return &Workload{
		Name:   fmt.Sprintf("MatrixMult%dx%d 32", n, n),
		C:      src,
		Layout: layout(words, words, words, 32),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			out := make([]uint32, words)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var acc uint32
					for k := 0; k < n; k++ {
						acc += a[i*n+k] * b[k*n+j]
					}
					out[i*n+j] = acc
				}
			}
			return out
		},
	}
}

// BubbleSortWorkload: sort n XOR-shared 32-bit values (Table 5). All
// indices are public; the compare-and-swap is fully predicated.
func BubbleSortWorkload(n int) *Workload {
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	for (int i = 0; i < %[1]d; i = i + 1) {
		c[i] = a[i] ^ b[i];
	}
	for (int i = 0; i < %[1]d - 1; i = i + 1) {
		for (int j = 0; j < %[1]d - 1 - i; j = j + 1) {
			unsigned x = c[j];
			unsigned y = c[j + 1];
			if (x > y) {
				c[j] = y;
				c[j + 1] = x;
			}
		}
	}
}`, n)
	return sortWorkload("Bubble-Sort", n, src)
}

// MergeSortWorkload: bottom-up oblivious merge sort of n XOR-shared
// values. The merge walks with secret cursors, so every element access is
// an oblivious read at a secret address — the workload the paper uses to
// show SkipGate's subset-scan behaviour on memories (§4.4).
func MergeSortWorkload(n int) *Workload {
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c, int *s) {
	for (int i = 0; i < %[1]d; i = i + 1) {
		c[i] = a[i] ^ b[i];
	}
	int *src = c;
	int *dst = s;
	for (int width = 1; width < %[1]d; width = width * 2) {
		for (int lo = 0; lo < %[1]d; lo = lo + 2 * width) {
			int i = 0;
			int j = 0;
			for (int k = 0; k < 2 * width; k = k + 1) {
				unsigned av = i < width ? src[lo + i] : 0xffffffff;
				unsigned bv = j < width ? src[lo + width + j] : 0xffffffff;
				int takeA = av <= bv ? 1 : 0;
				dst[lo + k] = takeA ? av : bv;
				i = i + takeA;
				j = j + 1 - takeA;
			}
		}
		int *t = src;
		src = dst;
		dst = t;
	}
	if (src != c) {
		for (int i = 0; i < %[1]d; i = i + 1) {
			c[i] = s[i];
		}
	}
}`, n)
	return sortWorkload("Merge-Sort", n, src)
}

func sortWorkload(name string, n int, src string) *Workload {
	alice := make([]uint32, n)
	bob := make([]uint32, n)
	for i := range alice {
		alice[i] = uint32((uint64(i)*2654435761 + 17) % 100000)
		bob[i] = uint32((i * i * 37) % 100000)
	}
	return &Workload{
		Name: fmt.Sprintf("%s%d 32", name, n),
		C:    src,
		// Power-of-two regions keep the arrays span-aligned so secret
		// cursors only make the low address bits secret (subset scans).
		Layout: layout(n, n, n, 2*n+16),
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = a[i] ^ b[i]
			}
			ref.BubbleSort(v)
			return v
		},
	}
}

// DijkstraWorkload: single-source shortest paths on an n-node dense graph
// (n² XOR-shared weights, 0 = no edge), data-oblivious selection of the
// minimum and relaxation through secret-indexed adjacency reads.
func DijkstraWorkload(n int) *Workload {
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c, int *s) {
	for (int i = 0; i < %[1]d * %[1]d; i = i + 1) {
		s[i] = a[i] ^ b[i];
	}
	for (int i = 0; i < %[1]d; i = i + 1) {
		c[i] = 0x7fffffff;
	}
	c[0] = 0;
	int visited = 0;
	for (int round = 0; round < %[1]d; round = round + 1) {
		int u = 0;
		unsigned best = 0xffffffff;
		for (int i = 0; i < %[1]d; i = i + 1) {
			unsigned di = c[i];
			int isv = (visited >> i) & 1;
			int better = isv == 0 && di < best;
			best = better ? di : best;
			u = better ? i : u;
		}
		visited = visited | (1 << u);
		int du = c[u];
		for (int v = 0; v < %[1]d; v = v + 1) {
			unsigned w = s[u * %[1]d + v];
			unsigned nd = du + w;
			unsigned dv = c[v];
			int upd = w != 0 && nd < dv;
			c[v] = upd ? nd : dv;
		}
	}
}`, n)
	adjA := make([]uint32, n*n)
	adjB := make([]uint32, n*n)
	// A ring with chords, XOR-shared.
	adj := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		adj[i*n+(i+1)%n] = uint32(1 + i%3)
		adj[i*n+(i+3)%n] = uint32(5 + i%2)
	}
	for i := range adj {
		adjA[i] = uint32(i)*2654435761 + 99
		adjB[i] = adjA[i] ^ adj[i]
	}
	return &Workload{
		Name: fmt.Sprintf("Dijkstra%d 32", n*n),
		C:    src,
		// The adjacency share occupies n² scratch words; the rest is stack
		// headroom (every MiniC local gets its own slot).
		Layout: layout(n*n, n*n, n, n*n+64),
		Alice:  adjA,
		Bob:    adjB,
		Check: func(a, b []uint32) []uint32 {
			adj := make([]uint32, n*n)
			for i := range adj {
				adj[i] = a[i] ^ b[i]
			}
			dist := ref.Dijkstra(adj, n)
			out := make([]uint32, n)
			for i, d := range dist {
				if d == ^uint32(0) {
					out[i] = 0x7fffffff
				} else {
					out[i] = d
				}
			}
			return out
		},
	}
}

// CordicWorkload: 32-iteration circular-rotation CORDIC on Q2.30
// fixed-point. The iteration direction depends on the secret residual
// angle, handled branch-free with a sign mask (conditional negation), so
// the program counter stays public.
func CordicWorkload() *Workload {
	iters := 32
	tab := ref.CordicAtanTable(iters)
	var tabInit strings.Builder
	for i, v := range tab {
		fmt.Fprintf(&tabInit, "\tt[%d] = %d;\n", i, int32(v))
	}
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	int t[%d];
%s
	int x = a[0] ^ b[0];
	int y = a[1] ^ b[1];
	int z = a[2] ^ b[2];
	for (int i = 0; i < %d; i = i + 1) {
		int m = z >> 31;
		int xs = x >> i;
		int ys = y >> i;
		int ti = t[i];
		x = x - ((ys ^ m) - m);
		y = y + ((xs ^ m) - m);
		z = z - ((ti ^ m) - m);
	}
	c[0] = x;
	c[1] = y;
}`, iters, tabInit.String(), iters)

	k := ref.CordicGainQ30(iters)
	z := uint32(0.5 * float64(1<<30)) // rotate (K, 0) by 0.5 rad
	aliceShare := []uint32{0x13572468, 0x89abcdef, 0x52525252}
	bobShare := []uint32{aliceShare[0] ^ k, aliceShare[1] ^ 0, aliceShare[2] ^ z}
	return &Workload{
		Name:   "CORDIC 32",
		C:      src,
		Layout: layout(4, 4, 2, 64),
		Alice:  aliceShare,
		Bob:    bobShare,
		Check: func(a, b []uint32) []uint32 {
			x := int32(a[0] ^ b[0])
			y := int32(a[1] ^ b[1])
			zz := int32(a[2] ^ b[2])
			rx, ry := ref.CordicRotate(x, y, zz, iters, tab)
			return []uint32{uint32(rx), uint32(ry)}
		},
	}
}

// CordicDivWorkload: fixed-point division via linear-vectoring CORDIC —
// the §5.7 comparison point (the paper reports [12] needing 12,546
// non-XOR gates for division, "almost three times more than ARM2GC").
// The iteration direction depends on secret signs, handled branch-free
// with a sign mask as in CordicWorkload.
func CordicDivWorkload() *Workload {
	iters := 30
	src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	int y = a[0] ^ b[0];
	int x = a[1] ^ b[1];
	int z = 0;
	for (int i = 0; i < %d; i = i + 1) {
		int d = (y >> 31) ^ (x >> 31);
		int xs = x >> i;
		int step = 1 << (30 - i);
		y = y - ((xs ^ d) - d);
		z = z + ((step ^ d) - d);
	}
	c[0] = z;
}`, iters)
	q30 := func(f float64) uint32 { return uint32(int32(f * float64(int64(1)<<30))) }
	aliceShare := []uint32{0x0badf00d, 0x13371337}
	bobShare := []uint32{aliceShare[0] ^ q30(0.75), aliceShare[1] ^ q30(1.5)}
	return &Workload{
		Name:   "CORDIC-Div 32",
		C:      src,
		Layout: layout(2, 2, 1, 64),
		Alice:  aliceShare,
		Bob:    bobShare,
		Check: func(a, b []uint32) []uint32 {
			y := int32(a[0] ^ b[0])
			x := int32(a[1] ^ b[1])
			return []uint32{uint32(ref.CordicDiv(y, x, iters))}
		},
	}
}

// RelaxWorkload is the oblivious-memory crossover workload: a
// relaxation-pass kernel over an n-word array (n a power of two), the
// access pattern of a Dijkstra/Bellman-Ford distance pass where most
// relaxations only read and few update. It performs 256 gather loads and
// 16 scatter stores at secret addresses, interleaved, plus one readback
// load. The array is Alice's input region itself: region-aligned at word
// zero, so the secret addresses have public high bits and the scans (and
// the store poison) stay confined to the array — the stack keeps its
// public classification and the PC stays public throughout.
//
// Under the linear scan each access pays ~32-34 tables per array word;
// under the square-root ORAM the 16 stores stay in the stash (never
// wrapping it), so their ~34n bank write-backs are never paid — a saving
// linear in n against a stash overlay tax on loads that grows as √n.
func RelaxWorkload(n int) *Workload {
	if n&(n-1) != 0 || n < 16 {
		panic("RelaxWorkload: n must be a power of two >= 16")
	}
	src := fmt.Sprintf(`
void gc_main(int *a, const int *b, int *c) {
	unsigned acc = 0;
	for (int k = 0; k < 256; k = k + 1) {
		unsigned i = (b[k & 63] ^ k) & %[1]d;
		unsigned v = a[i];
		acc = acc + v;
		if ((k & 15) == 0) {
			a[i] = acc ^ k;
		}
	}
	c[0] = acc;
	c[1] = a[(b[0] ^ 3) & %[1]d];
}`, n-1)
	alice := make([]uint32, n)
	bob := make([]uint32, 64)
	for i := range alice {
		alice[i] = uint32(i)*2654435761 + 17
	}
	for i := range bob {
		bob[i] = uint32(i*40499 + 3)
	}
	return &Workload{
		Name:   fmt.Sprintf("Relax %d", n),
		C:      src,
		Layout: isa.Layout{IMemWords: 64, AliceWords: n, BobWords: 64, OutWords: 8, ScratchWords: 64},
		Alice:  alice,
		Bob:    bob,
		Check: func(a, b []uint32) []uint32 {
			arr := append([]uint32(nil), a...)
			var acc uint32
			for k := 0; k < 256; k++ {
				i := (b[k&63] ^ uint32(k)) & uint32(n-1)
				acc += arr[i]
				if k&15 == 0 {
					arr[i] = acc ^ uint32(k)
				}
			}
			out := make([]uint32, 8)
			out[0] = acc
			out[1] = arr[(b[0]^3)&uint32(n-1)]
			return out
		},
	}
}

// RelaxAccesses is the kernel's secret-address memory-access count (256
// gather loads + 16 scatter stores + 1 readback load), the denominator of
// the tables-per-access metric.
const RelaxAccesses = 256 + 16 + 1
