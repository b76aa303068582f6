package cpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"arm2gc/internal/isa"
	"arm2gc/internal/obliv"
)

// Cache is a concurrency-safe, layout-keyed store of built processors.
// Build for the 256-word-imem layout synthesizes ~29k wires and costs
// ~10ms, so a server running many sessions over the same memory geometry
// must not pay it per session. Get deduplicates concurrent builds
// (singleflight): N goroutines asking for the same Layout share one Build
// call and one immutable *CPU. A CPU is read-only after Build — every run
// derives its own scheduler and label state — so sharing is safe.
//
// The cache never evicts: entries are a few MB each and the set of layouts
// a process uses is small and fixed (a serving process typically has one).
type Cache struct {
	m      sync.Map // cacheKey -> *cacheEntry
	builds atomic.Int64
}

// cacheKey separates machines by layout AND resolved memory backend: the
// backends synthesize different netlists for the same layout, and a
// cached machine (or a classification trace keyed off its circuit) must
// never serve sessions negotiated for another.
type cacheKey struct {
	layout  isa.Layout
	backend string
}

type cacheEntry struct {
	once sync.Once
	cpu  *CPU
	err  error
}

// Get returns the cached scan-backend processor for a layout, building it
// on first use. It is the pre-backend API, kept for call sites that want
// the historical netlist; GetMem selects a backend.
func (c *Cache) Get(l isa.Layout) (*CPU, error) {
	return c.GetMem(l, obliv.Config{Backend: obliv.Scan})
}

// GetMem returns the cached processor for a layout and memory
// configuration, building it on first use. The configuration resolves to
// a concrete backend *before* the cache lookup, so auto and an explicit
// matching name share one machine. Build errors are cached too: Build is
// deterministic, so retrying an invalid layout cannot succeed.
func (c *Cache) GetMem(l isa.Layout, mc obliv.Config) (*CPU, error) {
	backend, err := mc.Resolve(l.DataWords())
	if err != nil {
		return nil, err
	}
	v, _ := c.m.LoadOrStore(cacheKey{l, backend}, &cacheEntry{})
	e := v.(*cacheEntry)
	e.once.Do(func() {
		c.builds.Add(1)
		// Pre-set the error so a panic inside Build (which sync.Once still
		// marks done) leaves the entry failed-closed, not (nil, nil).
		e.err = fmt.Errorf("cpu: build for layout %+v panicked", l)
		e.cpu, e.err = BuildMem(l, obliv.Config{Backend: backend})
	})
	return e.cpu, e.err
}

// Builds reports how many netlist syntheses this cache has performed —
// the cache-hit observable tests and benchmarks assert on.
func (c *Cache) Builds() int64 { return c.builds.Load() }

var shared Cache

// Shared serves from the process-wide cache, for tools (the bencher) that
// build the same layout from several call sites.
func Shared(l isa.Layout) (*CPU, error) { return shared.Get(l) }

// SharedMem is Shared with backend selection.
func SharedMem(l isa.Layout, mc obliv.Config) (*CPU, error) { return shared.GetMem(l, mc) }

// SharedCache exposes the process-wide cache itself, so the root
// package's default engine and the internal tools share one set of
// machines instead of maintaining parallel caches.
func SharedCache() *Cache { return &shared }
