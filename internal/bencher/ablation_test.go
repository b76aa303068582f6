package bencher

import (
	"fmt"
	"testing"
)

func TestAblationMuxCell(t *testing.T) {
	tab, err := AblationMuxCell()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	atomic0 := parseNumT(t, tab.Rows[0][2])
	decomp0 := parseNumT(t, tab.Rows[1][2])
	atomic1 := parseNumT(t, tab.Rows[2][2])
	decomp1 := parseNumT(t, tab.Rows[3][2])
	atomicSec := parseNumT(t, tab.Rows[4][2])
	decompSec := parseNumT(t, tab.Rows[5][2])
	if atomic0 != decomp0 {
		t.Errorf("select=0: atomic %d vs decomposed %d, want equal (AND-with-0 also prunes)", atomic0, decomp0)
	}
	if float64(decomp1) < 1.8*float64(atomic1) {
		t.Errorf("select=1: decomposition (%d) should cost ≈2x the atomic cell (%d)", decomp1, atomic1)
	}
	if atomicSec != decompSec {
		t.Errorf("secret select: atomic (%d) and decomposed (%d) should cost the same", atomicSec, decompSec)
	}
}

func TestAblationObliviousScan(t *testing.T) {
	tab, err := AblationObliviousScan()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	// Linear scaling: cost(256)/cost(32) ≈ 8 within 2x slack.
	var c32, c256 int64
	for _, r := range tab.Rows {
		switch r[0] {
		case "32":
			c32 = parseNumT(t, r[1])
		case "256":
			c256 = parseNumT(t, r[1])
		}
	}
	ratio := float64(c256) / float64(c32)
	if ratio < 4 || ratio > 16 {
		t.Errorf("scan cost ratio 256/32 = %.1f, expected ≈8 (linear)", ratio)
	}
}

func TestAblationZFlag(t *testing.T) {
	tab, err := AblationZFlag()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	add := parseNumT(t, tab.Rows[0][1])
	adds := parseNumT(t, tab.Rows[1][1])
	if adds <= add || adds-add < 25 || adds-add > 45 {
		t.Errorf("per cycle, adds (%d) should cost ≈33 more than add (%d)", adds, add)
	}
	// The flag is never read, so the liveness pass drops its tree.
	if add, adds := parseNumT(t, tab.Rows[0][2]), parseNumT(t, tab.Rows[1][2]); adds != add {
		t.Errorf("across cycles, adds (%d) should cost what add (%d) does", adds, add)
	}
}

func TestAblationMemoryBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("six full garbling-cost runs (~90s)")
	}
	tab, err := AblationMemoryBackend(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	// The ratio column must fall monotonically with size: the ORAM's
	// saving is linear in n, its tax ~√n.
	prev := 2.0
	for _, r := range tab.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(r[4], "%f", &ratio); err != nil {
			t.Fatalf("ratio cell %q: %v", r[4], err)
		}
		if ratio >= prev {
			t.Errorf("ratio not falling with size: %s at %s words (prev %.4f)", r[4], r[0], prev)
		}
		prev = ratio
	}
	if prev >= 1 {
		t.Errorf("largest size ratio %.4f, want < 1 (ORAM must win by 256 words)", prev)
	}
}

func parseNumT(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, c := range s {
		if c >= '0' && c <= '9' {
			v = v*10 + int64(c-'0')
		}
	}
	return v
}
