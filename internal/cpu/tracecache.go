package cpu

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
)

// TraceKey identifies one reusable classification schedule. The circuit
// pointer stands in for the netlist identity (machines come from the
// layout cache, so one layout is one pointer); the public-input digest
// covers the program binary and constants; the cycle budget and halt-flag
// name shape the schedule itself (the final budget cycle classifies with
// different fanouts, and the halt flag decides where the trace ends).
// Cycle batching is deliberately absent: it never changes the schedule.
type TraceKey struct {
	Circuit *circuit.Circuit
	Pub     [32]byte
	Cycles  int
	Stop    string
}

// TracePubDigest digests a packed public-input bit vector for a TraceKey.
func TracePubDigest(pub []bool) [32]byte {
	packed := make([]byte, (len(pub)+7)/8+8)
	for i, b := range pub {
		if b {
			packed[i/8] |= 1 << uint(i%8)
		}
	}
	// Length tail: distinct bit counts with equal packing must not collide.
	n := len(pub)
	for i := 0; i < 8; i++ {
		packed[len(packed)-8+i] = byte(n >> (8 * i))
	}
	return sha256.Sum256(packed)
}

// TraceCache is a bounded, singleflight store of compiled classification
// traces, keyed per program execution (TraceKey). The protocol it
// enforces is one call:
//
//	tr, cached, err := cache.Get(ctx, key, compile)
//	err == nil                        -> replay tr, never nil
//	errors.Is(err, ErrTraceBudget)    -> key's trace alone outgrows the budget
//	any other err                     -> ctx ended, or the compile failed
//
// On a miss the caller compiles the key's trace itself; concurrent callers
// on the key wait for that one compile. A waiter whose context ends
// returns ctx.Err(). A compile whose context ends (or fails) releases its
// reservation and wakes the waiters, and one of them takes it over.
//
// One approximate byte budget bounds everything the cache holds in
// traces: settled ones and compiles in flight alike. A compile reserves
// its bytes as it grows, evicting least-recently-used settled entries to
// make room; when no room is left it is refused. A compile refused because
// it alone outgrew the budget leaves a tombstone (see Oversized): its call
// and every later one on the key return core.ErrTraceBudget without
// compiling again. One refused only because other compiles held the budget
// waits until one of them ends and compiles again. A tombstone is charged
// tombstoneBytes and evicted like a trace, so keys no trace fits cannot
// grow the map without bound.
type TraceCache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64 // charged by every entry
	reserved int64 // the part of bytes compiles in flight hold
	tick     int64 // monotonic use-stamp for LRU ordering, under mu
	entries  map[TraceKey]*traceEntry
	freed    chan struct{} // closed, and replaced, whenever a compile ends

	compiles    atomic.Int64
	replays     atomic.Int64
	evictions   atomic.Int64
	uncacheable atomic.Int64
}

// Compiler compiles one key's trace, drawing every byte it keeps from
// budget and returning core.ErrTraceBudget at the first refusal, as
// core.Compile does.
type Compiler func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error)

// tombstoneBytes is what a tombstone is charged against the budget: a map
// slot, its key and its entry, rounded up.
const tombstoneBytes = 256

// traceEntry is one key's state: a compile in flight (done open), a
// settled trace, or a tombstone (neither). size is what the entry is
// charged — a compile's reservation so far, the trace's MemoryBytes, or
// tombstoneBytes. Only settled entries are evictable.
type traceEntry struct {
	trace   *core.Trace
	done    chan struct{} // closed when the compile settles; nil once settled
	tooBig  bool          // the compile alone outgrew the budget
	retry   chan struct{} // set by a refusal for room: closed once a compile ends
	size    int64
	lastUse int64
}

// NewTraceCache creates a cache holding at most maxBytes of traces,
// settled or being compiled (approximate, per Trace.MemoryBytes);
// maxBytes <= 0 means no bound.
func NewTraceCache(maxBytes int64) *TraceCache {
	return &TraceCache{budget: maxBytes, entries: make(map[TraceKey]*traceEntry), freed: make(chan struct{})}
}

// Lookup returns the cached trace for key, or nil, without compiling or
// waiting. A hit counts as a replay; a hit or a tombstone refreshes the
// entry's LRU stamp.
func (c *TraceCache) Lookup(key TraceKey) *core.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.done != nil {
		return nil
	}
	c.touch(e)
	if e.trace != nil {
		c.replays.Add(1)
	}
	return e.trace
}

// Oversized reports whether key holds a tombstone: Get would return
// core.ErrTraceBudget without compiling.
func (c *TraceCache) Oversized(key TraceKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	return e != nil && e.done == nil && e.trace == nil
}

// Get returns key's trace, compiling it with compile on a miss (see
// TraceCache). cached reports that the key was settled when Get was
// called, so the caller neither compiled nor waited. A trace this call
// compiled is not counted a replay; one it waited for, or found, is.
func (c *TraceCache) Get(ctx context.Context, key TraceKey, compile Compiler) (tr *core.Trace, cached bool, err error) {
	c.mu.Lock()
	for cached = true; c.entries[key] != nil; cached = false {
		e := c.entries[key]
		if e.done == nil {
			c.touch(e)
			c.mu.Unlock()
			if e.trace == nil {
				return nil, cached, core.ErrTraceBudget
			}
			c.replays.Add(1)
			return e.trace, cached, nil
		}
		done := e.done
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		c.mu.Lock()
	}
	e := &traceEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.compiles.Add(1)
	c.mu.Unlock()

	// Settle the entry however the compile ends, a panic included, and
	// wake the waiters on the key and the compiles refused room.
	done := e.done
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		defer close(done)
		close(c.freed)
		c.freed = make(chan struct{})
		if err == nil && tr != nil {
			c.reserved -= e.size
			e.trace, e.done = tr, nil
			c.touch(e)
			return
		}
		c.release(e)
		if !errors.Is(err, core.ErrTraceBudget) || !e.tooBig || !c.makeRoom(tombstoneBytes) {
			delete(c.entries, key) // failed, cancelled or panicked
			return
		}
		c.uncacheable.Add(1)
		e.done, e.size = nil, tombstoneBytes
		c.bytes += e.size
		c.touch(e)
	}()
	budget := func(n int) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reserve(e, int64(n))
	}
	for {
		tr, err = compile(ctx, budget)
		var size int64
		if err == nil {
			size = int64(tr.MemoryBytes()) // outside mu: a nil trace panics as the compile would
		}
		c.mu.Lock()
		if err == nil && !c.reserve(e, size-e.size) {
			// The compile reserved the trace's bytes as it grew; any rest
			// is charged now, as its budget would have.
			tr, err = nil, core.ErrTraceBudget
		}
		retry := e.retry
		e.retry = nil
		c.mu.Unlock()
		if retry == nil || !errors.Is(err, core.ErrTraceBudget) {
			return tr, false, err
		}
		// Refused only for the room compiles in flight hold: one of them
		// ends, and then this one compiles again.
		select {
		case <-retry:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// reserve charges n more bytes to compile e, evicting least-recently-used
// settled entries to make room. It reports false, and frees the compile's
// whole reservation, when the bytes do not fit: e.tooBig records whether
// they would not fit even alone, and otherwise e.retry is closed once a
// compile ends. Under mu.
func (c *TraceCache) reserve(e *traceEntry, n int64) bool {
	if c.budget > 0 && c.reserved+n > c.budget {
		// Evicting every settled entry would not make room.
		if e.tooBig = e.size+n > c.budget; !e.tooBig {
			e.retry = c.freed
		}
		c.release(e)
		return false
	}
	c.makeRoom(n)
	e.size += n
	c.bytes += n
	c.reserved += n
	return true
}

// release frees compile e's reservation. Under mu.
func (c *TraceCache) release(e *traceEntry) {
	c.bytes -= e.size
	c.reserved -= e.size
	e.size = 0
}

// touch stamps e as the most recently used entry. Under mu.
func (c *TraceCache) touch(e *traceEntry) {
	c.tick++
	e.lastUse = c.tick
}

// makeRoom evicts least-recently-used settled entries until n more bytes
// fit the budget, and reports whether they do; compiles in flight are
// never evicted. Under mu.
func (c *TraceCache) makeRoom(n int64) bool {
	for c.budget > 0 && c.bytes+n > c.budget {
		var victimKey TraceKey
		var victim *traceEntry
		for k, cand := range c.entries {
			if cand.done == nil && (victim == nil || cand.lastUse < victim.lastUse) {
				victimKey, victim = k, cand
			}
		}
		if victim == nil {
			return false
		}
		c.bytes -= victim.size
		delete(c.entries, victimKey)
		c.evictions.Add(1)
	}
	return true
}

// Compiles reports how many compiles Get has started — the
// trace-effectiveness observable mirroring Cache.Builds.
func (c *TraceCache) Compiles() int64 { return c.compiles.Load() }

// Replays reports how many lookups were served a trace they did not
// compile.
func (c *TraceCache) Replays() int64 { return c.replays.Load() }

// Evictions reports how many entries — settled traces and tombstones —
// the byte budget pushed out.
func (c *TraceCache) Evictions() int64 { return c.evictions.Load() }

// Uncacheable reports how many compiles outgrew the budget on their own
// and left a tombstone.
func (c *TraceCache) Uncacheable() int64 { return c.uncacheable.Load() }

// Bytes reports the current approximate footprint of settled traces,
// compiles in flight and tombstones.
func (c *TraceCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
