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

// TraceCache is a bounded, singleflight-guarded store of recorded
// classification traces, keyed per program execution (TraceKey). The
// protocol it enforces:
//
//	if tr := cache.Lookup(key); tr != nil  -> replay tr
//	else if cache.BeginRecord(key)         -> classify AND record, metering
//	                                          the recording with Reserve; then
//	                                          Commit the trace, or Abort
//	else                                   -> classify without recording
//
// BeginRecord grants at most one recording slot per key, so concurrent
// first sessions of a program do not all pay the recording pass — the
// losers classify as before and the winner publishes the trace. Nothing
// ever blocks on a recording in flight.
//
// One approximate byte budget bounds everything the cache's users hold in
// traces: committed ones and recordings in flight alike. A recording
// reserves its bytes as it grows, evicting least-recently-used entries to
// make room; when no room is left it is refused, and the recorder drops
// what it holds. A recording refused because it alone outgrew the budget
// leaves a tombstone on Abort: later sessions find it, are refused the
// slot and classify without recording instead of recording up to the
// budget again. One refused only because other recordings held the budget
// leaves nothing, so the key may record later. A tombstone is charged
// tombstoneBytes and evicted like a trace, so keys no trace fits cannot
// grow the map without bound.
type TraceCache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64 // charged by every entry
	reserved int64 // the part of bytes recordings in flight hold
	tick     int64 // monotonic use-stamp for LRU ordering, under mu
	entries  map[TraceKey]*traceEntry

	recordings  atomic.Int64
	replays     atomic.Int64
	evictions   atomic.Int64
	uncacheable atomic.Int64
}

// tombstoneBytes is what a tombstone is charged against the budget: a map
// slot, its key and its entry, rounded up.
const tombstoneBytes = 256

// traceEntry is one key's state: a recording in flight, a cached trace,
// or a tombstone (neither). size is what the entry is charged — a
// recording's reservation so far, the trace's MemoryBytes, or
// tombstoneBytes. Only settled entries (not recordings) are evictable.
type traceEntry struct {
	trace     *core.Trace
	recording bool
	tooBig    bool // the recording alone outgrew the budget
	size      int64
	lastUse   int64
}

// NewTraceCache creates a cache holding at most maxBytes of traces,
// committed or being recorded (approximate, per Trace.MemoryBytes);
// maxBytes <= 0 means no bound.
func NewTraceCache(maxBytes int64) *TraceCache {
	return &TraceCache{budget: maxBytes, entries: make(map[TraceKey]*traceEntry)}
}

// Lookup returns the cached trace for key, or nil. A hit counts as a
// replay; a hit or a tombstone refreshes the entry's LRU stamp.
func (c *TraceCache) Lookup(key TraceKey) *core.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.recording {
		return nil
	}
	c.touch(e)
	if e.trace != nil {
		c.replays.Add(1)
	}
	return e.trace
}

// BeginRecord claims the recording slot for key. It returns true for
// exactly one caller per key until that caller Commits or Aborts, and
// never while a tombstone stands for key; everyone else gets false and
// should classify without recording.
func (c *TraceCache) BeginRecord(key TraceKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != nil {
		return false
	}
	c.entries[key] = &traceEntry{recording: true}
	c.recordings.Add(1)
	return true
}

// Reserve charges n more bytes to key's recording (the caller must hold
// its slot), evicting least-recently-used entries to make room. It
// reports false, and frees the recording's whole reservation, when the
// bytes do not fit: the recorder must then drop the recording. Bound to a
// key, it is the core.RecordBudget of the recording run.
func (c *TraceCache) Reserve(key TraceKey, n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	return e != nil && e.recording && c.reserve(e, int64(n))
}

// reserve is Reserve for a held recording e. Under mu.
func (c *TraceCache) reserve(e *traceEntry, n int64) bool {
	if c.budget > 0 && c.reserved+n > c.budget {
		// Evicting every settled entry would not make room.
		e.tooBig = e.size+n > c.budget
		c.release(e)
		return false
	}
	c.makeRoom(n)
	e.size += n
	c.bytes += n
	c.reserved += n
	return true
}

// release frees a held recording's reservation. Under mu.
func (c *TraceCache) release(e *traceEntry) {
	c.bytes -= e.size
	c.reserved -= e.size
	e.size = 0
}

// Commit publishes a recorded trace under key (the caller must hold the
// recording slot from BeginRecord). A trace whose bytes the recording did
// not reserve is charged the rest now, as Reserve would charge it: if it
// does not fit, the slot is aborted instead.
func (c *TraceCache) Commit(key TraceKey, t *core.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || !e.recording {
		return
	}
	if !c.reserve(e, int64(t.MemoryBytes())-e.size) {
		c.abort(key, e)
		return
	}
	c.reserved -= e.size
	e.trace, e.recording = t, false
	c.touch(e)
}

// Abort releases a recording slot without publishing: the run failed, or
// its recording was refused. A recording that alone outgrew the budget
// leaves a tombstone, so later sessions classify without recording; any
// other lets the next session claim the slot again.
func (c *TraceCache) Abort(key TraceKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.recording {
		c.abort(key, e)
	}
}

// abort is Abort for a held recording e. Under mu.
func (c *TraceCache) abort(key TraceKey, e *traceEntry) {
	c.release(e)
	if !e.tooBig || !c.makeRoom(tombstoneBytes) {
		delete(c.entries, key)
		return
	}
	c.uncacheable.Add(1)
	e.recording, e.size = false, tombstoneBytes
	c.bytes += e.size
	c.touch(e)
}

// touch stamps e as the most recently used entry. Under mu.
func (c *TraceCache) touch(e *traceEntry) {
	c.tick++
	e.lastUse = c.tick
}

// makeRoom evicts least-recently-used settled entries until n more bytes
// fit the budget, and reports whether they do; recordings in flight are
// never evicted. Under mu.
func (c *TraceCache) makeRoom(n int64) bool {
	for c.budget > 0 && c.bytes+n > c.budget {
		var victimKey TraceKey
		var victim *traceEntry
		for k, cand := range c.entries {
			if !cand.recording && (victim == nil || cand.lastUse < victim.lastUse) {
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

// Recordings reports how many recording slots have been granted — the
// trace-effectiveness observable mirroring Cache.Builds.
func (c *TraceCache) Recordings() int64 { return c.recordings.Load() }

// Replays reports how many sessions found a cached trace to replay.
func (c *TraceCache) Replays() int64 { return c.replays.Load() }

// Evictions reports how many entries — committed traces and tombstones —
// the byte budget pushed out.
func (c *TraceCache) Evictions() int64 { return c.evictions.Load() }

// Uncacheable reports how many recordings outgrew the budget on their own
// and left a tombstone.
func (c *TraceCache) Uncacheable() int64 { return c.uncacheable.Load() }

// Bytes reports the current approximate footprint of committed traces,
// recordings in flight and tombstones.
func (c *TraceCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
