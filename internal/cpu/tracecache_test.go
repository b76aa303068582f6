package cpu

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/core"
)

// makeTrace compiles a small real trace to exercise the cache with honest
// MemoryBytes accounting.
func makeTrace(t *testing.T, seed int64, cycles int) *core.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, _, _ := circtest.Random(rng, 200, 6)
	tr, err := core.Compile(context.Background(), c, circtest.RandBits(rng, c.PublicBits), core.CountOpts{Cycles: cycles}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tr
}

func key(b byte) TraceKey {
	var k TraceKey
	k.Pub[0] = b
	k.Cycles = 4
	return k
}

// compileOf is a Compiler that reserves tr's bytes from its budget, as
// core.Compile does cycle by cycle, and returns it.
func compileOf(tr *core.Trace) Compiler {
	return compileBytes(tr, tr.MemoryBytes())
}

// compileBytes is a Compiler that reserves n bytes, in two steps, and
// returns tr, or core.ErrTraceBudget when the budget refuses.
func compileBytes(tr *core.Trace, n int) Compiler {
	return func(_ context.Context, budget core.RecordBudget) (*core.Trace, error) {
		if !budget(n/2) || !budget(n-n/2) {
			return nil, core.ErrTraceBudget
		}
		return tr, nil
	}
}

// mustGet is Get with no error expected, on the test's goroutine.
func mustGet(t *testing.T, c *TraceCache, k TraceKey, compile Compiler) (*core.Trace, bool) {
	t.Helper()
	tr, cached, err := c.Get(context.Background(), k, compile)
	if err != nil {
		t.Fatalf("Get(%d): %v", k.Pub[0], err)
	}
	return tr, cached
}

// refusedGet is Get on a key whose trace alone outgrows the budget: it
// must return no trace and core.ErrTraceBudget, and reports cached.
func refusedGet(t *testing.T, c *TraceCache, k TraceKey, compile Compiler) bool {
	t.Helper()
	tr, cached, err := c.Get(context.Background(), k, compile)
	if tr != nil || !errors.Is(err, core.ErrTraceBudget) {
		t.Fatalf("Get(%d) = trace %v, %v; want no trace and ErrTraceBudget", k.Pub[0], tr != nil, err)
	}
	return cached
}

// get is Get with no error expected, on any goroutine.
func get(t *testing.T, c *TraceCache, k TraceKey, compile Compiler) *core.Trace {
	tr, _, err := c.Get(context.Background(), k, compile)
	if err != nil {
		t.Errorf("Get(%d): %v", k.Pub[0], err)
	}
	return tr
}

// TestTraceCacheSingleflight pins Get's lifecycle on one key: a compile
// that fails or panics leaves no entry and no charge, so the next Get
// compiles again; a miss compiles and settles the trace, and a hit serves
// it without compiling.
func TestTraceCacheSingleflight(t *testing.T) {
	tr := makeTrace(t, 1, 4)
	c := NewTraceCache(0)
	k := key(1)
	boom := errors.New("boom")
	failing := func(context.Context, core.RecordBudget) (*core.Trace, error) { return nil, boom }
	if _, _, err := c.Get(context.Background(), k, failing); !errors.Is(err, boom) {
		t.Fatalf("Get with a failing compile: %v, want its error", err)
	}
	if c.Lookup(k) != nil || c.Bytes() != 0 {
		t.Fatalf("a failed compile left an entry of %d bytes", c.Bytes())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking compile did not panic through Get")
			}
		}()
		c.Get(context.Background(), k, func(_ context.Context, budget core.RecordBudget) (*core.Trace, error) {
			budget(100)
			panic("compiler fault")
		})
	}()
	if c.Bytes() != 0 {
		t.Fatalf("a panicked compile left %d bytes charged", c.Bytes())
	}
	if got, cached := mustGet(t, c, k, compileOf(tr)); got != tr || cached {
		t.Fatalf("Get after a failed compile = %v (cached %v), want a fresh compile of the trace", got, cached)
	}
	never := func(context.Context, core.RecordBudget) (*core.Trace, error) {
		t.Fatal("compiled a settled key")
		return nil, nil
	}
	if got, cached := mustGet(t, c, k, never); got != tr || !cached {
		t.Fatalf("Get on a settled key = %v (cached %v), want the cached trace", got, cached)
	}
	if got := c.Lookup(k); got != tr {
		t.Fatalf("Lookup = %v, want the compiled trace", got)
	}
	if c.Compiles() != 3 || c.Replays() != 2 || c.Bytes() != int64(tr.MemoryBytes()) {
		t.Fatalf("compiles %d replays %d, %d bytes; want 3, 2 and %d", c.Compiles(), c.Replays(), c.Bytes(), tr.MemoryBytes())
	}
}

// TestTraceCacheSingleflightConcurrent races 32 Gets on one key: exactly
// one compiles, while the others wait for it instead of compiling beside
// it, and all get its trace.
func TestTraceCacheSingleflightConcurrent(t *testing.T) {
	tr := makeTrace(t, 9, 4)
	c := NewTraceCache(0)
	k := key(9)
	release := make(chan struct{})
	var compiles atomic.Int64
	compile := func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
		compiles.Add(1)
		<-release
		return compileOf(tr)(ctx, budget)
	}
	var wg sync.WaitGroup
	got := make([]*core.Trace, 32)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = get(t, c, k, compile)
		}()
	}
	for c.Compiles() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if compiles.Load() != 1 || c.Compiles() != 1 {
		t.Fatalf("%d compiles ran (%d counted), want exactly 1", compiles.Load(), c.Compiles())
	}
	for i, g := range got {
		if g != tr {
			t.Fatalf("caller %d got %v, want the one compiled trace", i, g)
		}
	}
	if c.Replays() != 31 {
		t.Fatalf("replays = %d, want 31: every caller but the compiler", c.Replays())
	}
}

// TestTraceCacheCompileCancelHandsOver cancels a compile mid-run while
// another caller waits on its key: the canceller gets ctx.Err(), its
// reservation is released, and the waiter takes the compile over and
// settles it. A waiter whose own context ends gets ctx.Err() without
// disturbing the compile. The cache's bytes return to what its settled
// entry holds, and no goroutine is left behind.
func TestTraceCacheCompileCancelHandsOver(t *testing.T) {
	tr := makeTrace(t, 6, 4)
	c := NewTraceCache(0)
	k := key(6)
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	reserved := make(chan struct{})
	stuck := func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
		if !budget(1000) {
			t.Error("budget refused an unbounded reservation")
		}
		close(reserved)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	first := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, k, stuck)
		first <- err
	}()
	<-reserved
	if c.Bytes() != 1000 {
		t.Fatalf("a compile in flight charges %d bytes, want its 1000-byte reservation", c.Bytes())
	}

	// A waiter that gives up returns its own context's error.
	short, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	if _, _, err := c.Get(short, k, compileOf(tr)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter: %v, want its deadline", err)
	}

	var takeover atomic.Int64
	started := make(chan struct{})
	waiter := make(chan *core.Trace, 1)
	go func() {
		close(started)
		got := get(t, c, k, func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
			takeover.Add(1)
			return compileOf(tr)(ctx, budget)
		})
		waiter <- got
	}()
	<-started
	time.Sleep(time.Millisecond) // let the waiter block on the compile
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile: %v, want context.Canceled", err)
	}
	if got := <-waiter; got != tr || takeover.Load() != 1 {
		t.Fatalf("waiter got %v after %d takeovers, want the trace from its own compile", got, takeover.Load())
	}
	if c.Compiles() != 2 || c.Bytes() != int64(tr.MemoryBytes()) || c.Uncacheable() != 0 {
		t.Fatalf("compiles %d, %d bytes, uncacheable %d; want 2, the settled %d and 0",
			c.Compiles(), c.Bytes(), c.Uncacheable(), tr.MemoryBytes())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the compiles", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	tr := makeTrace(t, 2, 4)
	size := int64(tr.MemoryBytes())
	c := NewTraceCache(2*size + size/2) // room for two settled traces
	k1, k2, k3 := key(1), key(2), key(3)
	for _, k := range []TraceKey{k1, k2} {
		if got, _ := mustGet(t, c, k, compileOf(tr)); got != tr {
			t.Fatalf("key %d: compile within the budget refused", k.Pub[0])
		}
	}
	if c.Lookup(k1) == nil { // refresh k1: k2 becomes the LRU victim
		t.Fatalf("k1 missing after its compile")
	}
	if got, _ := mustGet(t, c, k3, compileOf(tr)); got != tr {
		t.Fatalf("k3's compile refused")
	}
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
// budget whose compile reserved none of it: settling charges the bytes
// the compile did not reserve, finds they cannot fit, drops the trace and
// returns core.ErrTraceBudget. Being too large on its own, the key keeps
// a tombstone, as a compile its budget refused would.
func TestTraceCacheOversizedCommitDropped(t *testing.T) {
	tr := makeTrace(t, 3, 4)
	c := NewTraceCache(tombstoneBytes) // no trace fits
	k := key(5)
	if refusedGet(t, c, k, compileBytes(tr, 0)) {
		t.Fatalf("a fresh key was cached")
	}
	if c.Lookup(k) != nil || !c.Oversized(k) {
		t.Fatalf("oversized trace was cached, or left no tombstone")
	}
	if cached := refusedGet(t, c, k, compileOf(tr)); !cached || c.Compiles() != 1 {
		t.Fatalf("a key no trace fits compiled again (cached %v, %d compiles)", cached, c.Compiles())
	}
	if c.Uncacheable() != 1 || c.Bytes() != tombstoneBytes {
		t.Fatalf("uncacheable %d, %d bytes, want 1 and a %d-byte tombstone", c.Uncacheable(), c.Bytes(), tombstoneBytes)
	}
}

// TestTraceCacheTombstone pins the tombstone: a compile that alone
// outgrew the budget leaves one, which makes Get return
// core.ErrTraceBudget without compiling, is charged tombstoneBytes, and
// is evicted least-recently-used like a trace, after which the key may
// compile again.
func TestTraceCacheTombstone(t *testing.T) {
	c := NewTraceCache(3 * tombstoneBytes)
	tooBig := func(b byte) {
		t.Helper()
		if refusedGet(t, c, key(b), compileBytes(nil, 2*(3*tombstoneBytes+1))) {
			t.Fatalf("key %d: a fresh key was cached", b)
		}
	}
	for b := byte(1); b <= 3; b++ {
		tooBig(b)
	}
	compiles := c.Compiles()
	if cached := refusedGet(t, c, key(1), compileBytes(nil, 1)); !cached || c.Compiles() != compiles {
		t.Fatal("a tombstone compiled again")
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
	for _, b := range []byte{1, 3, 4} {
		if !refusedGet(t, c, key(b), compileBytes(nil, 1)) {
			t.Fatalf("surviving tombstone %d let its key compile", b)
		}
	}
	compiles = c.Compiles()
	tooBig(2)
	if c.Compiles() != compiles+1 {
		t.Fatal("the evicted tombstone still stops its key compiling")
	}
}

// TestTraceCacheSharedBudget pins that compiles in flight draw on the one
// budget: their reservations count in Bytes, evict settled traces
// least-recently-used, and never add up past the budget. A compile refused
// only because others hold the budget leaves no tombstone and does not
// return: it waits until another compile ends, then compiles again. One
// that alone outgrows the budget returns core.ErrTraceBudget and leaves a
// tombstone.
func TestTraceCacheSharedBudget(t *testing.T) {
	tr := makeTrace(t, 4, 4)
	sz := tr.MemoryBytes()
	c := NewTraceCache(int64(2*sz + sz/4))
	k1, k2, k3 := key(1), key(2), key(3)

	// k1 and k2 compile at once, each holding sz; k2 then asks for half
	// as much again, past what the two leave, and is refused while k1
	// holds its reservation.
	k1held, release := make(chan struct{}), make(chan struct{})
	k1compile := func(_ context.Context, budget core.RecordBudget) (*core.Trace, error) {
		if !budget(sz) {
			t.Error("k1's reservation within the budget was refused")
		}
		close(k1held)
		<-release
		return tr, nil
	}
	var attempts atomic.Int64
	refused := make(chan struct{})
	k2compile := func(_ context.Context, budget core.RecordBudget) (*core.Trace, error) {
		first := attempts.Add(1) == 1
		if !budget(sz) {
			t.Error("k2's reservation within the budget was refused")
		}
		if first {
			<-k1held
		}
		if budget(sz/2) == first {
			t.Errorf("attempt %d: k2's growth granted %v", attempts.Load(), !first)
		}
		if first {
			close(refused)
			return nil, core.ErrTraceBudget
		}
		return tr, nil
	}
	done := make([]chan *core.Trace, 2)
	for i, k := range []TraceKey{k1, k2} {
		done[i] = make(chan *core.Trace, 1)
		go func() {
			done[i] <- get(t, c, k, []Compiler{k1compile, k2compile}[i])
		}()
	}
	<-refused
	if c.Bytes() != int64(sz) || c.Uncacheable() != 0 {
		t.Fatalf("after k2 was refused for want of shared room: %d bytes, uncacheable %d; want k1's %d and no tombstone",
			c.Bytes(), c.Uncacheable(), sz)
	}
	close(release)
	if got1, got2 := <-done[0], <-done[1]; got1 != tr || got2 != tr || attempts.Load() != 2 {
		t.Fatalf("k1 got %v, k2 got %v after %d attempts; want both the trace, k2 on its second",
			got1 != nil, got2 != nil, attempts.Load())
	}
	// k2's second attempt grew past the room k1's settled trace left.
	if c.Lookup(k1) != nil || c.Evictions() != 1 || c.Bytes() != int64(sz) {
		t.Fatalf("k1 cached %v, %d evictions, %d bytes; want k1 evicted and k2's %d",
			c.Lookup(k1) != nil, c.Evictions(), c.Bytes(), sz)
	}

	// k3's compile evicts k2 to make room, and is refused once it alone
	// outgrows the budget.
	k3compile := func(_ context.Context, budget core.RecordBudget) (*core.Trace, error) {
		if !budget(2 * sz) {
			t.Error("k3's compile refused room a settled trace holds")
		}
		if c.Lookup(k2) != nil || c.Evictions() != 2 {
			t.Errorf("k3 reserved without evicting k2 (evictions %d)", c.Evictions())
		}
		if budget(sz / 2) {
			t.Error("k3's reservation past the whole budget was granted")
		}
		return nil, core.ErrTraceBudget
	}
	refusedGet(t, c, k3, k3compile)
	if cached := refusedGet(t, c, k3, compileOf(tr)); c.Uncacheable() != 1 || !cached || c.Bytes() != tombstoneBytes {
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
