package cpu

import (
	"crypto/sha256"
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
// Cycle batching and read-ahead are deliberately absent:
// they never change the schedule.
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

// TraceCache is a bounded, singleflight-guarded store of recorded
// classification traces, keyed per program execution (TraceKey). The
// protocol it enforces:
//
//	if tr := cache.Lookup(key); tr != nil  -> replay tr
//	else if cache.BeginRecord(key)         -> classify AND record, then
//	                                          Commit (success) or Abort
//	else                                   -> classify without recording
//
// BeginRecord grants at most one recording slot per key, so concurrent
// first sessions of a program do not all pay the recording pass — the
// losers classify as before and the winner publishes the trace. Nothing
// ever blocks on a recording in flight.
//
// The cache is bounded by an approximate byte budget: committing a trace
// evicts least-recently-replayed entries until the budget holds again. A
// single trace larger than the whole budget is dropped on Commit (the
// session that recorded it still ran fine — it just is not cached).
type TraceCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	tick    int64 // monotonic use-stamp for LRU ordering, under mu
	entries map[TraceKey]*traceEntry

	recordings atomic.Int64
	replays    atomic.Int64
	evictions  atomic.Int64
}

type traceEntry struct {
	trace   *core.Trace // nil while the recording slot is held
	lastUse int64
}

// NewTraceCache creates a cache holding at most maxBytes of compiled
// traces (approximate, per Trace.MemoryBytes); maxBytes <= 0 means no
// bound.
func NewTraceCache(maxBytes int64) *TraceCache {
	return &TraceCache{budget: maxBytes, entries: make(map[TraceKey]*traceEntry)}
}

// Lookup returns the cached trace for key, or nil. A hit counts as a
// replay and refreshes the entry's LRU stamp.
func (c *TraceCache) Lookup(key TraceKey) *core.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.trace == nil {
		return nil
	}
	c.tick++
	e.lastUse = c.tick
	c.replays.Add(1)
	return e.trace
}

// BeginRecord claims the recording slot for key. It returns true for
// exactly one caller per key until that caller Commits or Aborts; everyone
// else gets false and should classify without recording.
func (c *TraceCache) BeginRecord(key TraceKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != nil {
		return false
	}
	c.entries[key] = &traceEntry{}
	c.recordings.Add(1)
	return true
}

// Commit publishes a recorded trace under key (the caller must hold the
// recording slot from BeginRecord) and evicts LRU entries past the byte
// budget.
func (c *TraceCache) Commit(key TraceKey, t *core.Trace) {
	size := int64(t.MemoryBytes())
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.trace != nil {
		return // not a held recording slot; ignore
	}
	if c.budget > 0 && size > c.budget {
		delete(c.entries, key) // larger than the whole cache: don't keep it
		return
	}
	c.tick++
	e.trace, e.lastUse = t, c.tick
	c.bytes += size
	for c.budget > 0 && c.bytes > c.budget {
		var victimKey TraceKey
		var victim *traceEntry
		for k, cand := range c.entries {
			if cand.trace == nil || cand == e {
				continue // recordings in flight have nothing to free; keep the newcomer
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victimKey, victim = k, cand
			}
		}
		if victim == nil {
			return
		}
		c.bytes -= int64(victim.trace.MemoryBytes())
		delete(c.entries, victimKey)
		c.evictions.Add(1)
	}
}

// Abort releases a recording slot without publishing (the recording run
// failed); the next session may claim it again.
func (c *TraceCache) Abort(key TraceKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.trace == nil {
		delete(c.entries, key)
	}
}

// Recordings reports how many recording slots have been granted — the
// trace-effectiveness observable mirroring Cache.Builds.
func (c *TraceCache) Recordings() int64 { return c.recordings.Load() }

// Replays reports how many sessions found a cached trace to replay.
func (c *TraceCache) Replays() int64 { return c.replays.Load() }

// Evictions reports how many committed traces the byte budget pushed out.
func (c *TraceCache) Evictions() int64 { return c.evictions.Load() }

// Bytes reports the current approximate footprint of committed traces.
func (c *TraceCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
