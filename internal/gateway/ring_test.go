package gateway

import (
	"fmt"
	"testing"
	"time"
)

// TestRingConsistency: keys route stably, and removing one backend moves
// only the keys that backend owned — every other key keeps its node,
// which is the property that preserves warm caches across fleet resizes.
func TestRingConsistency(t *testing.T) {
	r := new(ring)
	nodes := []string{"a:1", "b:1", "c:1"}
	for _, n := range nodes {
		r.add(n)
	}
	all := func(string) bool { return true }

	const keys = 1000
	owner := make(map[string]string, keys)
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("prog-%d", i)
		addr := r.pick(k, all)
		if addr == "" {
			t.Fatalf("no owner for %q", k)
		}
		if again := r.pick(k, all); again != addr {
			t.Fatalf("key %q flapped: %q then %q", k, addr, again)
		}
		owner[k] = addr
		counts[addr]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("backend %q owns no keys: %v", n, counts)
		}
	}

	if moved := r.remove("b:1"); moved != replicas {
		t.Fatalf("remove moved %d points, want %d", moved, replicas)
	}
	for k, was := range owner {
		now := r.pick(k, all)
		if was != "b:1" && now != was {
			t.Fatalf("key %q moved %q→%q though its backend stayed", k, was, now)
		}
		if was == "b:1" && (now != "a:1" && now != "c:1") {
			t.Fatalf("orphaned key %q landed on %q", k, now)
		}
	}
}

// TestRingSpill: when the affinity node fails the admission check the
// pick spills to the next distinct node; when nothing qualifies it
// reports "".
func TestRingSpill(t *testing.T) {
	r := new(ring)
	r.add("a:1")
	r.add("b:1")
	home := r.pick("key", func(string) bool { return true })
	other := "a:1"
	if home == "a:1" {
		other = "b:1"
	}
	got := r.pick("key", func(addr string) bool { return addr != home })
	if got != other {
		t.Fatalf("spill pick = %q, want %q", got, other)
	}
	if got := r.pick("key", func(string) bool { return false }); got != "" {
		t.Fatalf("exhausted pick = %q, want empty", got)
	}
	empty := new(ring)
	if got := empty.pick("key", func(string) bool { return true }); got != "" {
		t.Fatalf("empty-ring pick = %q, want empty", got)
	}
}

// TestPeerLimiter: a burst drains the bucket, a dry bucket sheds with a
// sane Retry-After hint, and tokens accrue back at the configured rate —
// all on an injected clock.
func TestPeerLimiter(t *testing.T) {
	l := newPeerLimiter(2, 3) // 2 tokens/s, burst 3
	clock := time.Unix(100, 0)
	l.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("peer"); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	ok, after := l.allow("peer")
	if ok {
		t.Fatal("dry bucket admitted a request")
	}
	if after <= 0 || after > time.Second {
		t.Fatalf("Retry-After hint = %v, want (0, 1s]", after)
	}
	// Other peers have their own buckets.
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("fresh peer shed by a stranger's dry bucket")
	}
	// Half a second accrues one token at rate 2.
	clock = clock.Add(600 * time.Millisecond)
	if ok, _ := l.allow("peer"); !ok {
		t.Fatal("accrued token not granted")
	}
	if ok, _ := l.allow("peer"); ok {
		t.Fatal("second token granted after accruing only one")
	}
}
