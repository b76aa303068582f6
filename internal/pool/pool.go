// Package pool implements the garble-ahead subsystem: a bounded store of
// pre-garbled session streams (proto.Recorded), keyed by session id, that
// background workers keep topped up so the online phase of a session
// collapses to OT plus frame I/O.
//
// Lifecycle rules the rest of the system leans on:
//
//   - Entries are single-use. Get pops under the pool lock, so no two
//     sessions can ever serve the same pre-garbled stream — each entry's
//     labels come from one fresh seed and must reach one evaluator only.
//   - Producers race consumers: refill workers garble in the background
//     while Get drains the front. Depth bounds how far producers run
//     ahead per key; a Get below it wakes them (demand-driven refill, no
//     polling).
//   - Entries live in memory only. An entry written to disk would hold
//     both labels of every evaluator input wire at rest — a reusable
//     garbled circuit for anyone who can read the file.
//   - Bytes are bounded once, by MemBytes. Beyond it the oldest entries of
//     a key demanded strictly less recently than the incoming one are
//     evicted — and when no colder victim exists, or the entry alone
//     exceeds the budget, the incoming entry is dropped and its key parked
//     until demand moves, so producers never spin against a full budget.
package pool

import (
	"context"
	"fmt"
	"sync"
	"time"

	"arm2gc/internal/proto"
)

// Key identifies one (program, resolved-options) stream flavor — the
// protocol session id: any client negotiating these exact public
// parameters can be served any entry garbled under the key.
type Key [32]byte

// Producer garbles one fresh entry for its key. It must return a
// never-served Recorded with a fresh seed on every call; it runs on
// refill workers concurrently with other producers and with Get.
type Producer func(ctx context.Context) (*proto.Recorded, error)

// Depth is the number of ready entries the pool keeps per registered
// key, and MemBytes bounds the bytes it holds across all keys; inserting
// beyond MemBytes evicts from a less recently demanded key.
const (
	Depth    = 2
	MemBytes = 256 << 20
)

// refillWorkers is how many refill goroutines Start launches.
const refillWorkers = 2

// slot is one registered key's queue plus its counters.
type slot struct {
	key     Key
	name    string // for stats; the registered program name
	produce Producer

	entries []*proto.Recorded // FIFO: oldest first
	filling int               // produces in flight
	lastGet int64             // pool-wide demand sequence at the last Get; LRU rank

	// parked marks a slot whose last produced entry the byte budget
	// refused. A parked slot counts no deficit — otherwise producers would
	// spin garbling entries only to drop them — until a Get or Retire
	// moves bytes and unparks it.
	parked bool

	hits, misses, refills, failures, evictions int64
	refillTime                                 time.Duration
}

func (s *slot) deficit() int {
	if s.parked {
		return 0
	}
	return Depth - len(s.entries) - s.filling
}

// Pool is the garble-ahead store. All methods are safe for concurrent
// use.
type Pool struct {
	memBudget int64 // MemBytes; tests shrink it to exercise eviction

	mu       sync.Mutex
	slots    map[Key]*slot
	order    []*slot // registration order; claim scans round-robin
	next     int     // round-robin cursor over order
	memBytes int64
	getSeq   int64
	closed   bool

	wake    chan struct{}
	started bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New creates a Pool.
func New() *Pool {
	return &Pool{
		memBudget: MemBytes,
		slots:     make(map[Key]*slot),
		wake:      make(chan struct{}, 1),
	}
}

// Register adds a key the pool keeps topped up to Depth. produce garbles
// one entry per call.
func (p *Pool) Register(key Key, name string, produce Producer) error {
	if produce == nil {
		return fmt.Errorf("pool: Register(%q): nil producer", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pool: Register(%q): pool is closed", name)
	}
	if _, dup := p.slots[key]; dup {
		return fmt.Errorf("pool: Register(%q): key already registered", name)
	}
	s := &slot{key: key, name: name, produce: produce}
	p.slots[key] = s
	p.order = append(p.order, s)
	p.kick()
	return nil
}

// Get pops the oldest ready entry for key, or nil when the key is
// unregistered or momentarily dry (the caller falls back to live
// garbling). A successful Get consumes the entry permanently — single
// use is enforced right here, under the pool lock — and wakes the refill
// workers to restore the key's Depth.
func (p *Pool) Get(key Key) *proto.Recorded {
	p.mu.Lock()
	s := p.slots[key]
	if s == nil {
		p.mu.Unlock()
		return nil
	}
	p.getSeq++
	s.lastGet = p.getSeq
	p.unparkLocked()
	if len(s.entries) == 0 {
		s.misses++
		p.mu.Unlock()
		p.kick()
		return nil
	}
	rec := s.entries[0]
	s.entries = s.entries[1:]
	s.hits++
	p.memBytes -= int64(rec.SizeBytes())
	p.mu.Unlock()
	p.kick()
	return rec
}

// unparkLocked lifts every budget park: called when demand moves (bytes
// may have been freed, and a Get is the only signal the pool waits for),
// it lets parked keys try one more produce each instead of spinning.
func (p *Pool) unparkLocked() {
	for _, s := range p.order {
		s.parked = false
	}
}

// kick nudges the refill workers without blocking.
func (p *Pool) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Start launches the refill workers; they run until ctx is cancelled or
// Close is called. Idempotent.
func (p *Pool) Start(ctx context.Context) {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	ctx, p.cancel = context.WithCancel(ctx)
	p.mu.Unlock()
	for i := 0; i < refillWorkers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.worker(ctx)
		}()
	}
}

func (p *Pool) worker(ctx context.Context) {
	for {
		s := p.claim(nil)
		if s == nil {
			select {
			case <-ctx.Done():
				return
			case <-p.wake:
				continue
			}
		}
		if err := p.fillOne(ctx, s); err != nil {
			if ctx.Err() != nil {
				return
			}
			// A failing producer must not hot-spin the worker; back off
			// before the next claim.
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
}

// claim picks the next slot with a deficit, round-robin so one hot key
// cannot starve the rest, and reserves one produce on it. Slots in skip
// are passed over (Fill quarantines failed producers there).
func (p *Pool) claim(skip map[*slot]bool) *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.order); i++ {
		s := p.order[(p.next+i)%len(p.order)]
		if s.deficit() > 0 && !skip[s] {
			p.next = (p.next + i + 1) % len(p.order)
			s.filling++
			return s
		}
	}
	return nil
}

// fillOne produces one entry for a claimed slot and inserts it. A producer
// that panics fails the refill exactly as one that returns an error: the
// refill worker survives, and so does every other key's refill.
func (p *Pool) fillOne(ctx context.Context, s *slot) error {
	start := time.Now()
	rec, err := produce(ctx, s.produce)
	took := time.Since(start)
	p.mu.Lock()
	defer p.mu.Unlock()
	s.filling--
	if err != nil {
		s.failures++
		return err
	}
	s.refills++
	s.refillTime += took
	if p.closed || p.slots[s.key] != s {
		return nil // produced after Close or Retire: drop
	}
	p.insertLocked(s, rec)
	return nil
}

// produce calls fn, returning a panic as an error.
func produce(ctx context.Context, fn Producer) (rec *proto.Recorded, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: producer panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// Fill synchronously tops every registered key up to Depth — pool
// warming for server startup and deterministic tests. It runs on the
// calling goroutine, one entry at a time, and returns the first producer
// error (later keys are still attempted).
func (p *Pool) Fill(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var firstErr error
	failed := make(map[*slot]bool)
	for {
		s := p.claim(failed)
		if s == nil {
			return firstErr
		}
		if err := p.fillOne(ctx, s); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if ctx.Err() != nil {
				return firstErr
			}
			failed[s] = true // one failure quarantines the key this pass
		}
	}
}

// insertLocked adds a produced entry under the byte budget, evicting
// colder keys' entries to make room. An entry larger than the whole
// budget is refused before anything is evicted: it could never fit, and
// emptying the colder keys on its behalf would cost them their entries
// for nothing.
func (p *Pool) insertLocked(s *slot, rec *proto.Recorded) {
	size := int64(rec.SizeBytes())
	if size > p.memBudget {
		s.evictions++
		s.parked = true
		return
	}
	for p.memBytes+size > p.memBudget {
		if !p.evictOneLocked(s) {
			// Nothing evictable but this key's own entries: refusing the
			// newest stream is the only move left.
			s.evictions++
			s.parked = true
			return
		}
	}
	s.entries = append(s.entries, rec)
	p.memBytes += size
}

// evictOneLocked drops the oldest entry of the least-recently-demanded
// slot — but only one demanded strictly less recently than keep, the
// slot being inserted into: eviction reorders the pool toward demand,
// and without the strict ordering two equally-cold keys at a full budget
// would evict each other's entries in an endless producer thrash. It
// reports false when no such victim exists.
func (p *Pool) evictOneLocked(keep *slot) bool {
	var victim *slot
	for _, s := range p.order {
		if s == keep || len(s.entries) == 0 || s.lastGet >= keep.lastGet {
			continue
		}
		if victim == nil || s.lastGet < victim.lastGet {
			victim = s
		}
	}
	if victim == nil {
		return false
	}
	victim.evictions++
	p.memBytes -= int64(victim.entries[0].SizeBytes())
	victim.entries = victim.entries[1:]
	return true
}

// Retire removes a key entirely: its ready entries are dropped and the
// registration itself goes away, so the key can be registered afresh (a
// retired program coming back with a new producer). It reports whether
// the key was known.
func (p *Pool) Retire(key Key) bool {
	p.mu.Lock()
	s := p.slots[key]
	if s == nil {
		p.mu.Unlock()
		return false
	}
	for _, rec := range s.entries {
		p.memBytes -= int64(rec.SizeBytes())
	}
	s.entries = nil
	// A produce in flight for this slot may still insert one last entry
	// into the orphaned slot; that entry is unreachable but its bytes
	// must not count, so park the slot to stop further refills and let
	// insertLocked's budget checks see a slot that wants nothing.
	s.parked = true
	delete(p.slots, key)
	for i, o := range p.order {
		if o == s {
			p.order = append(p.order[:i], p.order[i+1:]...)
			if p.next > i {
				p.next--
			}
			break
		}
	}
	p.unparkLocked() // bytes freed; parked keys may fit now
	p.mu.Unlock()
	p.kick()
	return true
}

// Close stops the refill workers, waits for any in-flight produce, and
// drops every ready entry. The pool refuses further work after.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	cancel := p.cancel
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	p.kick() // unblock workers parked on wake
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.order {
		s.entries = nil
	}
	p.memBytes = 0
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	Hits      int64 // Gets served from a ready entry
	Misses    int64 // Gets on a registered but dry key
	Refills   int64 // successful background/warming produces
	Failures  int64 // producer errors
	Evictions int64 // entries dropped for the byte budget

	RefillTime time.Duration // producer time summed over all refills

	MemBytes int64 // entry bytes held right now
	Ready    int   // ready entries across all keys right now

	Programs map[string]ProgramStats // keyed by registered name
}

// ProgramStats is one registered key's slice of the counters. When
// several keys were registered under one name their counters sum.
type ProgramStats struct {
	Ready   int // entries ready right now
	Hits    int64
	Misses  int64
	Refills int64
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		MemBytes: p.memBytes,
		Programs: make(map[string]ProgramStats, len(p.order)),
	}
	for _, s := range p.order {
		st.Hits += s.hits
		st.Misses += s.misses
		st.Refills += s.refills
		st.Failures += s.failures
		st.Evictions += s.evictions
		st.RefillTime += s.refillTime
		st.Ready += len(s.entries)
		ps := st.Programs[s.name]
		ps.Ready += len(s.entries)
		ps.Hits += s.hits
		ps.Misses += s.misses
		ps.Refills += s.refills
		st.Programs[s.name] = ps
	}
	return st
}
