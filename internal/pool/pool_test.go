package pool

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/proto"
	"arm2gc/internal/sim"
)

// adderConfig builds a small 8-bit adder session config; vary salt to get
// distinct session ids (distinct pool keys) from one circuit.
func adderConfig(t *testing.T, salt int) (proto.Config, []bool) {
	t.Helper()
	b := build.New(fmt.Sprintf("adder%d", salt))
	a := b.Input(circuit.Alice, "a", 8)
	x := b.Input(circuit.Bob, "x", 8)
	b.Output("sum", b.Add(a, x))
	c := b.MustCompile()
	cfg := proto.Config{Circuit: c, Cycles: 1 + salt}
	return cfg, sim.UnpackUint(uint64(40+salt), 8)
}

// recordProducer garbles real entries for tests; every call draws a fresh
// seed, so Seed() doubles as an entry identity.
func recordProducer(cfg proto.Config, alice []bool) Producer {
	return func(ctx context.Context) (*proto.Recorded, error) {
		rec, _, err := proto.RecordGarbler(ctx, cfg, alice, nil)
		return rec, err
	}
}

func keyOf(t *testing.T, cfg proto.Config) Key {
	t.Helper()
	sid, err := cfg.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	return Key(sid)
}

// oneEntrySize produces a throwaway entry to size byte budgets exactly.
func oneEntrySize(t *testing.T, cfg proto.Config, alice []bool) int64 {
	t.Helper()
	rec, _, err := proto.RecordGarbler(context.Background(), cfg, alice, nil)
	if err != nil {
		t.Fatal(err)
	}
	return int64(rec.SizeBytes())
}

// waitReady polls until the pool holds want ready entries (refill workers
// run in the background) or fails the test.
func waitReady(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := p.Stats().Ready; got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("pool holds %d ready entries, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolSingleUse is the core guarantee: with Depth entries filled and
// 32 concurrent Gets racing, exactly Depth succeed and no stream is ever
// handed out twice (every Recorded carries a fresh seed; duplicates would share
// one). Run under -race in CI.
func TestPoolSingleUse(t *testing.T) {
	cfg, alice := adderConfig(t, 0)
	p := New()
	defer p.Close()
	key := keyOf(t, cfg)
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Ready != Depth || st.Refills != Depth {
		t.Fatalf("after Fill: ready %d refills %d, want %d/%d", st.Ready, st.Refills, Depth, Depth)
	}

	var mu sync.Mutex
	seeds := make(map[core.Seed]int)
	var hits int
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := p.Get(key)
			if rec == nil {
				return
			}
			mu.Lock()
			seeds[rec.Seed()]++
			hits++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if hits != Depth {
		t.Fatalf("%d Gets succeeded, want exactly %d", hits, Depth)
	}
	for s, n := range seeds {
		if n != 1 {
			t.Fatalf("stream %x served %d times", s[:4], n)
		}
	}
	st := p.Stats()
	if st.Hits != Depth || st.Misses != 32-Depth {
		t.Fatalf("hits %d misses %d, want %d/%d", st.Hits, st.Misses, Depth, 32-Depth)
	}
	if got := p.Get(Key{0xff}); got != nil {
		t.Fatal("unregistered key returned an entry")
	}
}

// TestPoolDemandRefill: background workers must restore a key's Depth
// after Gets drain it — woken by the Get, not by polling.
func TestPoolDemandRefill(t *testing.T) {
	cfg, alice := adderConfig(t, 0)
	p := New()
	defer p.Close()
	key := keyOf(t, cfg)
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	waitReady(t, p, Depth)
	if p.Get(key) == nil {
		t.Fatal("warm pool missed")
	}
	waitReady(t, p, Depth) // the Get kicked a refill
	if st := p.Stats(); st.Refills < Depth+1 {
		t.Fatalf("refills %d, want at least %d", st.Refills, Depth+1)
	}
}

// TestPoolConcurrentProducersConsumers races refill workers against
// concurrent Gets (run under -race in CI) and re-checks single use across
// the whole run.
func TestPoolConcurrentProducersConsumers(t *testing.T) {
	cfg, alice := adderConfig(t, 0)
	p := New()
	key := keyOf(t, cfg)
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)

	var mu sync.Mutex
	seeds := make(map[core.Seed]bool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if rec := p.Get(key); rec != nil {
					mu.Lock()
					if seeds[rec.Seed()] {
						t.Error("stream served twice")
					}
					seeds[rec.Seed()] = true
					mu.Unlock()
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if len(seeds) == 0 {
		t.Fatal("no Gets were served at all")
	}
	// Close drops whatever is left; a second Close is a no-op.
	p.Close()
	if st := p.Stats(); st.Ready != 0 || st.MemBytes != 0 {
		t.Fatalf("after Close: ready %d memBytes %d", st.Ready, st.MemBytes)
	}
}

// TestPoolByteEviction: a byte budget of two entries across two keys
// must evict the least-recently-demanded key's oldest entry for the
// incoming one, and never exceed the budget.
func TestPoolByteEviction(t *testing.T) {
	cfgA, aliceA := adderConfig(t, 0)
	cfgB, aliceB := adderConfig(t, 1)
	size := oneEntrySize(t, cfgA, aliceA)
	budget := 2*size + size/2
	p := New()
	p.memBudget = budget
	defer p.Close()
	keyA, keyB := keyOf(t, cfgA), keyOf(t, cfgB)
	if err := p.Register(keyA, "a", recordProducer(cfgA, aliceA)); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(keyB, "b", recordProducer(cfgB, aliceB)); err != nil {
		t.Fatal(err)
	}
	// Fill wants 2·Depth entries; only ~2 fit.
	p.Fill(context.Background())
	st := p.Stats()
	if st.MemBytes > budget {
		t.Fatalf("resident %d bytes over the %d budget", st.MemBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("over-budget fill recorded no evictions")
	}
	if st.Ready == 0 || st.Ready > 2 {
		t.Fatalf("ready %d entries, want 1-2 under a 2-entry budget", st.Ready)
	}

	// Demand key A, then overfill: the eviction victim must be B (least
	// recently demanded), never the key being inserted into.
	p.Get(keyA)
	p.Fill(context.Background())
	st = p.Stats()
	if st.Programs["a"].Ready == 0 {
		t.Fatal("recently-demanded key was starved by eviction")
	}
	if st.MemBytes > budget {
		t.Fatalf("resident %d bytes over budget after refill", st.MemBytes)
	}
}

// TestPoolOversizedEntryKeepsColderEntries: an entry larger than the
// whole budget can never be admitted, so it must be refused before any
// eviction — demanding its key most recently must not cost a colder key
// its ready entries, on the first Fill or on any later one.
func TestPoolOversizedEntryKeepsColderEntries(t *testing.T) {
	cfgSmall, aliceSmall := adderConfig(t, 0)
	cfgBig, aliceBig := adderConfig(t, 40) // 41 cycles of tables
	small := oneEntrySize(t, cfgSmall, aliceSmall)
	budget := 3 * small
	if big := oneEntrySize(t, cfgBig, aliceBig); big <= budget {
		t.Fatalf("big entry of %d bytes fits the %d-byte budget; the test needs it not to", big, budget)
	}
	p := New()
	p.memBudget = budget
	defer p.Close()
	keySmall, keyBig := keyOf(t, cfgSmall), keyOf(t, cfgBig)
	if err := p.Register(keySmall, "small", recordProducer(cfgSmall, aliceSmall)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(keyBig, "big", recordProducer(cfgBig, aliceBig)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if p.Get(keyBig) != nil { // demand: the big key is now the hottest
			t.Fatal("oversized entry was admitted")
		}
		if err := p.Fill(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if got := st.Programs["small"]; got.Ready != Depth || got.Refills != Depth {
			t.Fatalf("round %d: small key ready %d refills %d, want its %d warmed entries untouched",
				round, got.Ready, got.Refills, Depth)
		}
		if st.Evictions != int64(round+1) || st.Programs["big"].Ready != 0 {
			t.Fatalf("round %d: evictions %d big ready %d, want only the oversized entries refused",
				round, st.Evictions, st.Programs["big"].Ready)
		}
	}
}

// TestPoolRegisterValidation covers the registration error paths and the
// closed-pool behavior.
func TestPoolRegisterValidation(t *testing.T) {
	cfg, alice := adderConfig(t, 0)
	p := New()
	key := keyOf(t, cfg)
	if err := p.Register(key, "adder", nil); err == nil {
		t.Fatal("nil producer accepted")
	}
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	p.Close()
	if err := p.Register(Key{2}, "late", recordProducer(cfg, alice)); err == nil {
		t.Fatal("closed pool accepted a registration")
	}
	if rec := p.Get(key); rec != nil {
		t.Fatal("closed pool served an entry")
	}
}

// TestPoolProducerFailure: a failing producer surfaces from Fill, counts
// as a failure, quarantines the key for the pass, and leaves the pool
// serving (misses fall back to live garbling upstream).
func TestPoolProducerFailure(t *testing.T) {
	cfgGood, aliceGood := adderConfig(t, 1)
	p := New()
	defer p.Close()
	bad := func(ctx context.Context) (*proto.Recorded, error) {
		return nil, fmt.Errorf("boom")
	}
	if err := p.Register(Key{3}, "bad", bad); err != nil {
		t.Fatal(err)
	}
	good := keyOf(t, cfgGood)
	if err := p.Register(good, "good", recordProducer(cfgGood, aliceGood)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(context.Background()); err == nil {
		t.Fatal("Fill swallowed the producer error")
	}
	st := p.Stats()
	if st.Failures == 0 {
		t.Fatal("producer failure not counted")
	}
	// The healthy key still filled to depth despite the sick one.
	if st.Programs["good"].Ready != Depth {
		t.Fatalf("healthy key ready %d, want %d", st.Programs["good"].Ready, Depth)
	}
	if rec := p.Get(Key{3}); rec != nil {
		t.Fatal("failing key served an entry")
	}
	if rec := p.Get(good); rec == nil {
		t.Fatal("healthy key missed")
	}
}

// TestPoolProducerPanic: a producer that panics fails its refill like one
// that returns an error — counted once, surfaced from Fill — and neither
// Fill nor the background refill workers die of it: the other key fills
// to depth and keeps being refilled on demand.
func TestPoolProducerPanic(t *testing.T) {
	cfgGood, aliceGood := adderConfig(t, 1)
	p := New()
	defer p.Close()
	panicky := func(ctx context.Context) (*proto.Recorded, error) { panic("producer bug") }
	if err := p.Register(Key{4}, "panicky", panicky); err != nil {
		t.Fatal(err)
	}
	good := keyOf(t, cfgGood)
	if err := p.Register(good, "good", recordProducer(cfgGood, aliceGood)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(context.Background()); err == nil || !strings.Contains(err.Error(), "producer bug") {
		t.Fatalf("Fill returned %v, want the producer's panic as an error", err)
	}
	st := p.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures %d, want 1", st.Failures)
	}
	if st.Programs["good"].Ready != Depth {
		t.Fatalf("healthy key ready %d, want %d", st.Programs["good"].Ready, Depth)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	if p.Get(good) == nil {
		t.Fatal("healthy key missed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Programs["good"].Ready != Depth {
		if time.Now().After(deadline) {
			t.Fatal("refill workers stopped refilling after a producer panicked")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolRetire: retiring a key drops its entries, removes the
// registration (its deficit no longer drives refill), and frees the key
// for a fresh registration.
func TestPoolRetire(t *testing.T) {
	cfg, alice := adderConfig(t, 0)
	p := New()
	defer p.Close()
	key := keyOf(t, cfg)
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !p.Retire(key) {
		t.Fatal("known key reported unknown")
	}
	if p.Retire(key) {
		t.Fatal("retired key reported known twice")
	}
	st := p.Stats()
	if st.Ready != 0 || st.MemBytes != 0 {
		t.Fatalf("after Retire: ready %d mem %d", st.Ready, st.MemBytes)
	}
	if rec := p.Get(key); rec != nil {
		t.Fatal("retired key still serves entries")
	}
	// The registration is gone: Fill finds no deficit.
	if err := p.Fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Ready; got != 0 {
		t.Fatalf("retired key refilled to %d, want 0", got)
	}
	// The key can be registered afresh.
	if err := p.Register(key, "adder", recordProducer(cfg, alice)); err != nil {
		t.Fatalf("re-register after Retire: %v", err)
	}
	if err := p.Fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Ready; got != Depth {
		t.Fatalf("re-registered key refilled to %d, want %d", got, Depth)
	}
}
