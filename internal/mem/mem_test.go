package mem

import (
	"testing"

	"secpb/internal/config"
)

func smallCacheCfg() config.CacheConfig {
	// 2 sets x 2 ways x 64B blocks.
	return config.CacheConfig{SizeBytes: 256, Ways: 2, BlockBytes: 64, AccessCycles: 2}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	if c.Access(0x0, false, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x0, false, false)
	if !c.Access(0x0, false, false) {
		t.Fatal("filled block missed")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	// Blocks 0x000, 0x080, 0x100 all map to set 0 (set index = bit 6).
	c.Fill(0x000, false, false)
	c.Fill(0x100, false, false)
	c.Access(0x000, false, false) // refresh 0x000: now 0x100 is LRU
	v, had := c.Fill(0x200, false, false)
	if !had || v.Addr != 0x100 {
		t.Fatalf("victim = %+v (had=%v), want 0x100", v, had)
	}
	if !c.Lookup(0x000) || c.Lookup(0x100) || !c.Lookup(0x200) {
		t.Error("post-eviction residency wrong")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	c.Fill(0x000, true, false) // truly dirty
	c.Fill(0x100, false, false)
	v, had := c.Fill(0x200, false, false)
	if !had || !v.Dirty || v.Discarded {
		t.Fatalf("dirty victim = %+v", v)
	}
	_, _, _, wbacks := c.Stats()
	if wbacks != 1 {
		t.Errorf("writebacks = %d", wbacks)
	}
}

func TestPersistDirtySilentDiscard(t *testing.T) {
	// Section IV.C: persist-dirty lines (already persisted via the PB)
	// are silently discarded on eviction — no writeback.
	c := NewCache("t", smallCacheCfg())
	c.Fill(0x000, true, true) // persist dirty
	c.Fill(0x100, false, false)
	v, had := c.Fill(0x200, false, false)
	if !had || v.Dirty || !v.Discarded {
		t.Fatalf("persist-dirty victim = %+v, want silent discard", v)
	}
	_, _, _, wbacks := c.Stats()
	if wbacks != 0 {
		t.Errorf("writebacks = %d, want 0", wbacks)
	}
}

func TestPersistWriteUpgradesState(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	c.Fill(0x000, false, false)
	c.Access(0x000, true, true)
	c.Fill(0x100, false, false)
	v, _ := c.Fill(0x200, false, false)
	if v.Addr != 0x000 || !v.Discarded {
		t.Errorf("upgraded line not persist-dirty: %+v", v)
	}
}

func TestPersistDirtyNotDowngradedByPlainWrite(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	c.Fill(0x000, true, true)
	c.Access(0x000, true, false) // plain write must not lose persist bit
	c.Fill(0x100, false, false)
	v, _ := c.Fill(0x200, false, false)
	if !v.Discarded {
		t.Error("persist-dirty line downgraded to dirty by plain write")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewCache("t", smallCacheCfg())
	c.Fill(0x000, true, false)
	if !c.Invalidate(0x000) {
		t.Error("invalidating dirty line reported clean")
	}
	if c.Lookup(0x000) {
		t.Error("block resident after invalidate")
	}
	if c.Invalidate(0x000) {
		t.Error("invalidating absent line reported dirty")
	}
}

// load performs a read the way the engine does: probe L1, and walk the
// rest of the hierarchy only on a miss. Level 1 reports an L1 hit.
func load(h *Hierarchy, blockAddr uint64) AccessResult {
	if h.L1().AccessRead(blockAddr) {
		return AccessResult{Level: 1, Cycles: h.L1().Latency()}
	}
	return h.LoadAfterL1Miss(blockAddr)
}

func TestHierarchyLoadLevels(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	r := load(h, 0x1000)
	if r.Level != 4 || !r.PMAccess {
		t.Fatalf("cold load = %+v, want PM access", r)
	}
	wantCold := cfg.L1.AccessCycles + cfg.L2.AccessCycles + cfg.L3.AccessCycles + cfg.PMReadCycles()
	if r.Cycles != wantCold {
		t.Errorf("cold load cycles = %d, want %d", r.Cycles, wantCold)
	}
	r = load(h, 0x1000)
	if r.Level != 1 || r.Cycles != cfg.L1.AccessCycles {
		t.Errorf("warm load = %+v, want L1 hit", r)
	}
}

func TestHierarchyStoreNoPMFetch(t *testing.T) {
	h := NewHierarchy(config.Default())
	h.StoreTouch(0x2000)
	// A PB-backed store write-allocates in every level it misses; the
	// PB, not PM, supplies the rest of the block.
	for _, c := range []*Cache{h.L1(), h.L2(), h.L3()} {
		if !c.Lookup(0x2000) {
			t.Errorf("%s: store did not allocate the line", c.Name())
		}
	}
	// Store-allocated line serves subsequent loads from L1.
	if lr := load(h, 0x2000); lr.Level != 1 {
		t.Errorf("load after store level = %d, want 1", lr.Level)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	load(h, 0x3000)
	// Evict from tiny... L1 is 64KB/8-way/128 sets: fill set with 8
	// conflicting blocks (stride = 128*64 = 8KB).
	for i := uint64(1); i <= 8; i++ {
		load(h, 0x3000+i*8192)
	}
	r := load(h, 0x3000)
	if r.Level != 2 {
		t.Errorf("level = %d, want 2 (L1 evicted, L2 resident)", r.Level)
	}
	if r.Cycles != cfg.L1.AccessCycles+cfg.L2.AccessCycles {
		t.Errorf("cycles = %d", r.Cycles)
	}
}

func TestStoreBufferAbsorbsBurst(t *testing.T) {
	sb := NewStoreBuffer(4)
	// 4 stores with slow acceptance: no stall while buffer has room.
	for i := uint64(0); i < 4; i++ {
		if got := sb.Push(i, 1000+i); got != i {
			t.Fatalf("store %d stalled to %d", i, got)
		}
	}
	if sb.Occupancy() != 4 {
		t.Fatalf("occupancy = %d", sb.Occupancy())
	}
	// Fifth store blocks until the oldest acceptance (cycle 1000).
	if got := sb.Push(4, 2000); got != 1000 {
		t.Fatalf("full push proceeded at %d, want 1000", got)
	}
	if sb.StallCycles() != 996 {
		t.Errorf("stall cycles = %d, want 996", sb.StallCycles())
	}
}

func TestStoreBufferRetiresAccepted(t *testing.T) {
	sb := NewStoreBuffer(2)
	sb.Push(0, 5)
	sb.Push(1, 6)
	// At cycle 10 both have been accepted; no stall.
	if got := sb.Push(10, 12); got != 10 {
		t.Fatalf("push stalled to %d", got)
	}
	if sb.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", sb.Occupancy())
	}
}

func TestStoreBufferDrainedBy(t *testing.T) {
	sb := NewStoreBuffer(8)
	sb.Push(0, 100)
	sb.Push(1, 50)
	sb.Push(2, 70)
	if got := sb.DrainedBy(); got != 100 {
		t.Errorf("DrainedBy = %d, want 100", got)
	}
}

func TestStoreBufferPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStoreBuffer(0)
}

func BenchmarkHierarchyLoad(b *testing.B) {
	h := NewHierarchy(config.Default())
	for i := 0; i < b.N; i++ {
		load(h, uint64(i%100000)*64)
	}
}
