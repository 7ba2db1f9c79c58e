package nvm

import (
	"strings"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crypto"
)

func secureController(t *testing.T) *Controller {
	t.Helper()
	cfg := config.Default() // COBCM: secure
	c, err := NewController(cfg, []byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func plainBlock(fill byte) [addr.BlockBytes]byte {
	var d [addr.BlockBytes]byte
	for i := range d {
		d[i] = fill
	}
	return d
}

// persist is PersistBlock without prepared metadata, taking the block
// by value for test-site convenience.
func persist(c *Controller, b addr.Block, data [addr.BlockBytes]byte) (Cost, error) {
	return c.PersistBlock(b, &data, nil)
}

func TestPMReadWrite(t *testing.T) {
	pm := NewPM(1 << 20)
	b := addr.BlockOf(0x1000)
	if d := pm.Read(b); d != ([addr.BlockBytes]byte{}) {
		t.Error("fresh PM not zero")
	}
	pm.Write(b, plainBlock(7))
	if d := pm.Read(b); d[0] != 7 {
		t.Error("readback mismatch")
	}
	r, w := pm.Stats()
	if r != 2 || w != 1 {
		t.Errorf("stats = %d/%d", r, w)
	}
	if pm.Len() != 1 || len(pm.Blocks()) != 1 {
		t.Error("block accounting wrong")
	}
}

func TestPMSnapshotAndTamper(t *testing.T) {
	pm := NewPM(1 << 20)
	b := addr.BlockOf(0x40)
	pm.Write(b, plainBlock(1))
	snap := pm.Snapshot()
	pm.Write(b, plainBlock(2))
	if d, _ := snap.Peek(b); d[0] != 1 {
		t.Error("snapshot mutated")
	}
	if err := snap.Tamper(b, 3); err != nil {
		t.Fatal(err)
	}
	if d, _ := snap.Peek(b); d[0] != 1^(1<<3) {
		t.Error("tamper did not flip bit 3")
	}
	if err := snap.Tamper(addr.BlockOf(0x9000), 0); err == nil {
		t.Error("tampering absent block succeeded")
	}
}

func TestInsecureControllerRoundTrip(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeBBB)
	c, err := NewController(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Secure() {
		t.Fatal("BBB controller claims secure")
	}
	b := addr.BlockOf(0x2000)
	data := plainBlock(0xAA)
	cost, err := persist(c, b, data)
	if err != nil {
		t.Fatal(err)
	}
	if cost.PMDataWrites != 1 || cost.Hashes != 0 || cost.AESOps != 0 {
		t.Errorf("insecure persist cost = %+v", cost)
	}
	// Insecure PM holds plaintext.
	if d, _ := c.PM().Peek(b); d != data {
		t.Error("BBB did not store plaintext")
	}
	got, _, err := c.FetchBlock(b)
	if err != nil || got != data {
		t.Errorf("fetch = %v, err %v", got[0], err)
	}
}

func TestSecurePersistEncryptsAndVerifies(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x3000)
	data := plainBlock(0x5C)
	cost, err := persist(c, b, data)
	if err != nil {
		t.Fatal(err)
	}
	// Ciphertext in PM must differ from plaintext.
	if ct, _ := c.PM().Peek(b); ct == data {
		t.Error("PM holds plaintext under secure scheme")
	}
	// Lazy drain pays for everything: OTP, MAC, full BMT walk.
	if cost.AESOps != 1 {
		t.Errorf("AES ops = %d, want 1", cost.AESOps)
	}
	if cost.BMTLevels != 8 {
		t.Errorf("BMT levels = %d, want 8", cost.BMTLevels)
	}
	if cost.Hashes != 8+1 {
		t.Errorf("hashes = %d, want 9 (8 BMT + MAC)", cost.Hashes)
	}
	got, _, err := c.FetchBlock(b)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got != data {
		t.Error("decrypted plaintext mismatch")
	}
}

func TestPreparedMetaSkipsWork(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x4000)
	data := plainBlock(0x11)

	// Simulate an eager scheme: precompute everything at allocation.
	ctr, _ := c.NextCounter(b)
	otp, _ := c.MakeOTP(b, ctr)
	var ct [addr.BlockBytes]byte
	crypto.XOR(&ct, &data, &otp)
	mac, _ := c.MakeMAC(b, &ct, ctr)
	chargeCost := c.ChargeBMTWalk(b)
	if chargeCost.BMTLevels != 8 {
		t.Errorf("eager BMT charge levels = %d", chargeCost.BMTLevels)
	}

	prep := PreparedMeta{
		CounterDone: true, Counter: ctr,
		OTPDone: true, OTP: otp,
		CipherDone: true, Cipher: ct,
		MACDone: true, MAC: mac,
		BMTDone: true,
	}
	cost, err := c.PersistBlock(b, &data, &prep)
	if err != nil {
		t.Fatal(err)
	}
	if cost.AESOps != 0 {
		t.Errorf("prepared drain ran AES %d times", cost.AESOps)
	}
	if cost.BMTLevels != 0 {
		t.Errorf("prepared drain walked %d BMT levels", cost.BMTLevels)
	}
	// MAC hash must not be recomputed; only possible hash cost is zero.
	if cost.Hashes != 0 {
		t.Errorf("prepared drain hashed %d times", cost.Hashes)
	}
	got, _, err := c.FetchBlock(b)
	if err != nil || got != data {
		t.Fatalf("fetch after prepared drain: %v err %v", got[0], err)
	}
}

func TestStalePreparedCounterIsDiscarded(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x5000)
	data := plainBlock(0x22)
	// Prepared under a counter that will not match (simulate staleness).
	prep := PreparedMeta{CounterDone: true, Counter: 999, OTPDone: true}
	if _, err := c.PersistBlock(b, &data, &prep); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.FetchBlock(b)
	if err != nil || got != data {
		t.Errorf("stale prep produced wrong recovery: %v err %v", got[0], err)
	}
}

func TestRepeatedPersistBumpsCounter(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x6000)
	var cts [3][addr.BlockBytes]byte
	for i := range cts {
		if _, err := persist(c, b, plainBlock(0x33)); err != nil {
			t.Fatal(err)
		}
		cts[i], _ = c.PM().Peek(b)
	}
	if cts[0] == cts[1] || cts[1] == cts[2] {
		t.Error("same plaintext re-encrypted to same ciphertext (counter not fresh)")
	}
	if got := c.Counters().Value(b); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
}

func TestFetchDetectsDataTamper(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x7000)
	if _, err := persist(c, b, plainBlock(0x44)); err != nil {
		t.Fatal(err)
	}
	if err := c.PM().Tamper(b, 17); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchBlock(b); err == nil {
		t.Fatal("tampered ciphertext passed verification")
	} else if !strings.Contains(err.Error(), "integrity") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFetchDetectsCounterRollback(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x8000)
	persist(c, b, plainBlock(1))
	oldCT, _ := c.PM().Peek(b)
	oldTag, _ := c.MACs().Get(b)
	persist(c, b, plainBlock(2))
	// Replay attack: restore old ciphertext+MAC and roll the counter
	// back so (data, counter, MAC) are mutually consistent.
	c.PM().Write(b, oldCT)
	c.MACs().Put(b, oldTag)
	if err := c.Counters().Tamper(b, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchBlock(b); err == nil {
		t.Fatal("rollback of consistent (data,counter,MAC) triple passed — BMT must catch this")
	}
}

func TestFetchFreshBlockIsZero(t *testing.T) {
	c := secureController(t)
	got, cost, err := c.FetchBlock(addr.BlockOf(0xABC000))
	if err != nil {
		t.Fatalf("fresh fetch errored: %v", err)
	}
	if got != ([addr.BlockBytes]byte{}) {
		t.Error("fresh block not zero")
	}
	if cost.PMReads != 1 {
		t.Errorf("fresh fetch cost = %+v", cost)
	}
}

func TestCounterOverflowReencryptsPage(t *testing.T) {
	c := secureController(t)
	b := addr.BlockOf(0x9000)
	sib := addr.BlockOf(0x9040)
	sibData := plainBlock(0x77)
	if _, err := persist(c, sib, sibData); err != nil {
		t.Fatal(err)
	}
	// Drive b's minor counter to overflow (255 persists reach max,
	// the 256th triggers re-encryption).
	var sawReencrypt bool
	c.SetReencryptHook(func(page uint64) {
		if page == b.Page() {
			sawReencrypt = true
		}
	})
	for i := 0; i < 256; i++ {
		if _, err := persist(c, b, plainBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !sawReencrypt {
		t.Fatal("256 persists did not trigger page re-encryption")
	}
	if c.Reencrypts() != 1 {
		t.Errorf("reencrypts = %d", c.Reencrypts())
	}
	// The sibling must still decrypt and verify under its new counter.
	got, _, err := c.FetchBlock(sib)
	if err != nil {
		t.Fatalf("sibling fetch after re-encryption: %v", err)
	}
	if got != sibData {
		t.Error("sibling plaintext lost across page re-encryption")
	}
	// And b itself.
	got, _, err = c.FetchBlock(b)
	if err != nil || got != plainBlock(255) {
		t.Errorf("b fetch after overflow: err %v", err)
	}
}

func TestCtrCacheHitsOnLocality(t *testing.T) {
	c := secureController(t)
	b1 := addr.BlockOf(0xA000)
	b2 := addr.BlockOf(0xA040) // same page -> same counter line
	persist(c, b1, plainBlock(1))
	cost, _ := persist(c, b2, plainBlock(2))
	if !cost.CtrCacheHit {
		t.Error("second block of same page missed counter cache")
	}
}

func TestMetadataCachesExposed(t *testing.T) {
	c := secureController(t)
	ctr, mac, bmtc := c.MetadataCaches()
	if ctr == nil || mac == nil || bmtc == nil {
		t.Fatal("metadata caches nil on secure controller")
	}
	cfg := config.Default().WithScheme(config.SchemeBBB)
	ic, _ := NewController(cfg, nil)
	ctr, _, _ = ic.MetadataCaches()
	if ctr != nil {
		t.Error("insecure controller has metadata caches")
	}
}

func BenchmarkPersistBlockLazy(b *testing.B) {
	cfg := config.Default()
	c, _ := NewController(cfg, []byte("k"))
	data := plainBlock(0x5C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persist(c, addr.FromIndex(uint64(i%10000)), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchBlock(b *testing.B) {
	cfg := config.Default()
	c, _ := NewController(cfg, []byte("k"))
	data := plainBlock(0x5C)
	for i := 0; i < 1000; i++ {
		persist(c, addr.FromIndex(uint64(i)), data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.FetchBlock(addr.FromIndex(uint64(i % 1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUnifiedMDC(t *testing.T) {
	cfg := config.Default()
	cfg.UnifiedMDC = true
	c, err := NewController(cfg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	ctr, mac, bmtc := c.MetadataCaches()
	if ctr != mac || mac != bmtc {
		t.Fatal("unified MDC did not share one cache")
	}
	// The full data path still works and verifies.
	b := addr.BlockOf(0xB000)
	if _, err := persist(c, b, plainBlock(0x3C)); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.FetchBlock(b)
	if err != nil || got != plainBlock(0x3C) {
		t.Fatalf("unified MDC round trip: err=%v", err)
	}
}

func TestUnifiedMDCKeysDoNotAlias(t *testing.T) {
	// Counter line 0, MAC line 0 and BMT leaf 0 all have base pseudo-
	// address 0: with a unified cache they must still occupy distinct
	// lines (type tags). Touch all three for block 0 and ensure the
	// second round hits for each.
	cfg := config.Default()
	cfg.UnifiedMDC = true
	c, err := NewController(cfg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := addr.BlockOf(0)
	if _, err := persist(c, b, plainBlock(1)); err != nil {
		t.Fatal(err)
	}
	// Second persist: counter and MAC lines must now hit.
	cost, err := persist(c, b, plainBlock(2))
	if err != nil {
		t.Fatal(err)
	}
	if !cost.CtrCacheHit {
		t.Error("counter line evicted/aliased in unified MDC")
	}
	if cost.BMTNodeFetch != 0 {
		t.Error("BMT path re-fetched despite unified MDC residency")
	}
}

// TestSnapshotRestoreIsolation checks the crash image's ownership
// rules: Snapshot copies the live controller, Restore adopts the image
// it is given, and Clone detaches an image that is restored twice.
func TestSnapshotRestoreIsolation(t *testing.T) {
	c := secureController(t)
	var plain [addr.BlockBytes]byte
	plain[0] = 0xAB
	b := addr.FromIndex(3)
	if _, err := c.PersistBlock(b, &plain, nil); err != nil {
		t.Fatal(err)
	}
	c.CompleteSweep()
	img := c.Snapshot()
	if img.Config != c.Config() {
		t.Fatal("image lost the controller's config")
	}

	first, err := Restore(img.Clone(), []byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.PM().Tamper(b, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.FetchBlock(b); err == nil {
		t.Fatal("tampered restore verified clean")
	}
	for name, mc := range map[string]*Controller{"live": c, "image": mustRestore(t, img)} {
		got, _, err := mc.FetchBlock(b)
		if err != nil || got != plain {
			t.Errorf("%s controller saw the clone's tamper: %v", name, err)
		}
	}
}

func mustRestore(t *testing.T, img Image) *Controller {
	t.Helper()
	mc, err := Restore(img, []byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	return mc
}
