package cpu

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/core"
	"arm2gc/internal/sim"
)

// makeTrace records a small real trace to exercise the cache with honest
// MemoryBytes accounting.
func makeTrace(t *testing.T, seed int64, cycles int) *core.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, aBits, bBits := circtest.Random(rng, 200, 6)
	in := sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
	res, err := core.RunLocal(context.Background(), c, in, core.RunOpts{Cycles: cycles, Record: core.Unbounded})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	return res.Trace
}

func key(b byte) TraceKey {
	var k TraceKey
	k.Pub[0] = b
	k.Cycles = 4
	return k
}

func TestTraceCacheSingleflight(t *testing.T) {
	tr := makeTrace(t, 1, 4)
	c := NewTraceCache(0)
	k := key(1)
	if !c.BeginRecord(k) {
		t.Fatalf("first BeginRecord refused")
	}
	if c.BeginRecord(k) {
		t.Fatalf("second BeginRecord granted while the slot is held")
	}
	if c.Lookup(k) != nil {
		t.Fatalf("Lookup returned a trace while recording is in flight")
	}
	c.Abort(k)
	if !c.BeginRecord(k) {
		t.Fatalf("BeginRecord refused after Abort")
	}
	c.Commit(k, tr)
	if got := c.Lookup(k); got != tr {
		t.Fatalf("Lookup after Commit = %v, want the committed trace", got)
	}
	if c.BeginRecord(k) {
		t.Fatalf("BeginRecord granted for a committed key")
	}
	if c.Recordings() != 2 || c.Replays() != 1 {
		t.Fatalf("recordings %d replays %d, want 2 and 1", c.Recordings(), c.Replays())
	}
}

func TestTraceCacheSingleflightConcurrent(t *testing.T) {
	c := NewTraceCache(0)
	k := key(9)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.BeginRecord(k) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d goroutines won the recording slot, want exactly 1", wins.Load())
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	tr := makeTrace(t, 2, 4)
	size := int64(tr.MemoryBytes())
	c := NewTraceCache(2*size + size/2) // room for two committed traces
	k1, k2, k3 := key(1), key(2), key(3)
	for _, k := range []TraceKey{k1, k2} {
		if !c.BeginRecord(k) {
			t.Fatalf("BeginRecord(%v) refused", k.Pub[0])
		}
		c.Commit(k, tr)
	}
	if c.Lookup(k1) == nil { // refresh k1: k2 becomes the LRU victim
		t.Fatalf("k1 missing after commit")
	}
	if !c.BeginRecord(k3) {
		t.Fatalf("BeginRecord(k3) refused")
	}
	c.Commit(k3, tr)
	if c.Lookup(k2) != nil {
		t.Fatalf("k2 survived; want it evicted as the least recently replayed")
	}
	if c.Lookup(k1) == nil || c.Lookup(k3) == nil {
		t.Fatalf("k1/k3 missing after eviction")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if got := c.Bytes(); got != 2*size {
		t.Fatalf("cache holds %d bytes, want %d", got, 2*size)
	}
}

// TestTraceCacheOversizedCommitDropped pins a trace larger than the whole
// budget: Commit charges the bytes its recording did not reserve, finds
// they cannot fit, and drops the trace. Being too large on its own, the
// key keeps a tombstone, as a recording refused by Reserve would.
func TestTraceCacheOversizedCommitDropped(t *testing.T) {
	tr := makeTrace(t, 3, 4)
	c := NewTraceCache(tombstoneBytes) // no trace fits
	k := key(5)
	if !c.BeginRecord(k) {
		t.Fatalf("BeginRecord refused")
	}
	c.Commit(k, tr)
	if c.Lookup(k) != nil {
		t.Fatalf("oversized trace was cached")
	}
	if c.BeginRecord(k) {
		t.Fatalf("recording slot granted again for a key no trace fits")
	}
	if c.Uncacheable() != 1 || c.Bytes() != tombstoneBytes {
		t.Fatalf("uncacheable %d, %d bytes, want 1 and a %d-byte tombstone", c.Uncacheable(), c.Bytes(), tombstoneBytes)
	}
}

// TestTraceCacheTombstone pins the tombstone: a recording that alone
// outgrew the budget leaves one on Abort that refuses the recording slot
// (later sessions classify without recording), is charged tombstoneBytes,
// and is evicted least-recently-used like a trace, after which the key may
// record again.
func TestTraceCacheTombstone(t *testing.T) {
	c := NewTraceCache(3 * tombstoneBytes)
	c.Abort(key(1)) // no slot held: ignored
	if c.Reserve(key(1), 1) {
		t.Fatal("Reserve granted bytes to a key with no recording")
	}
	tooBig := func(b byte) {
		t.Helper()
		if !c.BeginRecord(key(b)) {
			t.Fatalf("BeginRecord(%d) refused", b)
		}
		if c.Reserve(key(b), 3*tombstoneBytes+1) {
			t.Fatalf("key %d: Reserve granted past the whole budget", b)
		}
		c.Abort(key(b))
	}
	for b := byte(1); b <= 3; b++ {
		tooBig(b)
	}
	if c.Lookup(key(1)) != nil || c.BeginRecord(key(1)) {
		t.Fatal("a tombstone served a trace or granted the recording slot")
	}
	if c.Uncacheable() != 3 || c.Bytes() != 3*tombstoneBytes || c.Replays() != 0 {
		t.Fatalf("uncacheable %d, %d bytes, replays %d, want 3, %d, 0",
			c.Uncacheable(), c.Bytes(), c.Replays(), 3*tombstoneBytes)
	}
	// key(1) was just looked up, so key(2) is the LRU tombstone.
	tooBig(4)
	if c.Evictions() != 1 || c.Bytes() != 3*tombstoneBytes {
		t.Fatalf("evictions %d, %d bytes after a fourth tombstone, want 1 and %d", c.Evictions(), c.Bytes(), 3*tombstoneBytes)
	}
	if !c.BeginRecord(key(2)) {
		t.Fatal("the evicted tombstone still refuses the slot")
	}
	if c.BeginRecord(key(1)) || c.BeginRecord(key(3)) || c.BeginRecord(key(4)) {
		t.Fatal("a surviving tombstone granted the slot")
	}
}

// TestTraceCacheSharedBudget pins that recordings in flight draw on the
// one budget: their reservations count in Bytes, evict committed traces
// least-recently-used, and never add up past the budget. A recording
// refused only because others hold the budget leaves no tombstone; one
// that alone outgrows the budget does.
func TestTraceCacheSharedBudget(t *testing.T) {
	tr := makeTrace(t, 4, 4)
	sz := tr.MemoryBytes()
	c := NewTraceCache(int64(2*sz + sz/4))
	k1, k2, k3 := key(1), key(2), key(3)
	for _, k := range []TraceKey{k1, k2} {
		if !c.BeginRecord(k) || !c.Reserve(k, sz) {
			t.Fatalf("key %d: recording within the budget refused", k.Pub[0])
		}
	}
	if c.Bytes() != int64(2*sz) {
		t.Fatalf("cache charges %d bytes for two recordings in flight, want %d", c.Bytes(), 2*sz)
	}
	if c.Reserve(k2, sz/2) {
		t.Fatal("a reservation past the budget the recordings hold was granted")
	}
	if c.Bytes() != int64(sz) {
		t.Fatalf("the refused recording still charges: %d bytes, want %d", c.Bytes(), sz)
	}
	c.Abort(k2)
	if c.Uncacheable() != 0 || !c.BeginRecord(k2) {
		t.Fatal("a recording refused for want of shared room left a tombstone")
	}
	c.Abort(k2)

	// k1 commits the trace it reserved; k3's recording evicts it to make
	// room, and is refused once it alone outgrows the budget.
	c.Commit(k1, tr)
	if c.Lookup(k1) == nil || c.Bytes() != int64(sz) {
		t.Fatalf("committed trace missing or charged %d bytes, want %d", c.Bytes(), sz)
	}
	if !c.BeginRecord(k3) || !c.Reserve(k3, 2*sz) {
		t.Fatal("k3's recording refused room a cached trace holds")
	}
	if c.Lookup(k1) != nil || c.Evictions() != 1 || c.Bytes() != int64(2*sz) {
		t.Fatalf("after k3 reserved: k1 cached %v, evictions %d, %d bytes; want evicted, 1, %d",
			c.Lookup(k1) != nil, c.Evictions(), c.Bytes(), 2*sz)
	}
	if c.Reserve(k3, sz/2) {
		t.Fatal("k3's reservation past the whole budget was granted")
	}
	c.Abort(k3)
	if c.Uncacheable() != 1 || c.BeginRecord(k3) || c.Bytes() != tombstoneBytes {
		t.Fatalf("k3 outgrew the budget alone: uncacheable %d, %d bytes; want a tombstone", c.Uncacheable(), c.Bytes())
	}
}

func TestTracePubDigest(t *testing.T) {
	a := TracePubDigest([]bool{true, false, true})
	b := TracePubDigest([]bool{true, false, false})
	if a == b {
		t.Fatalf("distinct bit vectors digest equal")
	}
	// Equal packed bytes, different lengths: the length tail must split them.
	c := TracePubDigest([]bool{true})
	d := TracePubDigest([]bool{true, false})
	if c == d {
		t.Fatalf("distinct lengths digest equal")
	}
	if TracePubDigest(nil) == TracePubDigest([]bool{false}) {
		t.Fatalf("nil and one-zero-bit digest equal")
	}
}
