package nvm

import (
	"errors"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/fault"
)

func faultyConfig(wf, torn, rot float64) config.Config {
	cfg := config.Default()
	cfg.FaultWriteFailRate = wf
	cfg.FaultTornRate = torn
	cfg.FaultRotRate = rot
	cfg.FaultSeed = 0xDECAF
	return cfg
}

// TestRetryPathAbsorbsWriteFaults drives the secure persist path over
// media with frequent transient and torn write failures: every block
// must still land byte-exact (program-and-verify catches each fault),
// the retry counters must show the loop actually worked, and the extra
// cost must appear in the existing Cost events.
func TestRetryPathAbsorbsWriteFaults(t *testing.T) {
	cfg := faultyConfig(0.1, 0.1, 0)
	mc, err := NewController(cfg, []byte("media-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	var plain [addr.BlockBytes]byte
	var extraWrites int
	for i := uint64(0); i < 400; i++ {
		b := addr.FromIndex(i * 3)
		plain[0], plain[1] = byte(i), byte(i>>8)
		cost, err := mc.PersistBlock(b, &plain, nil)
		if err != nil {
			t.Fatalf("persist %#x: %v", b.Addr(), err)
		}
		if cost.PMReads < 1 {
			t.Fatalf("write-verify read-back missing from cost: %+v", cost)
		}
		extraWrites += cost.PMDataWrites - 1
	}
	mc.CompleteSweep()
	st := mc.MediaStats()
	if st.WriteRetries == 0 || st.Faults.Total() == 0 {
		t.Fatalf("fault rates 10%%/10%% over 400 writes produced no retries: %+v", st)
	}
	if uint64(extraWrites) != st.WriteRetries {
		t.Errorf("retry writes not reflected in Cost: %d events vs %d retries", extraWrites, st.WriteRetries)
	}
	if st.BackoffCycles == 0 {
		t.Error("retries charged no backoff cycles")
	}
	// Every block must decrypt correctly despite the faulty writes.
	for i := uint64(0); i < 400; i++ {
		b := addr.FromIndex(i * 3)
		got, _, err := mc.FetchBlock(b)
		if err != nil {
			t.Fatalf("fetch %#x: %v", b.Addr(), err)
		}
		if got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("block %#x recovered wrong plaintext", b.Addr())
		}
	}
}

// TestPerfectMediaHasZeroMediaStats pins the byte-identity contract: with
// the fault model off, the checked write path is exactly the old one —
// no extra cost events, no retry state, no injector.
func TestPerfectMediaHasZeroMediaStats(t *testing.T) {
	mc, err := NewController(config.Default(), []byte("media-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	var plain [addr.BlockBytes]byte
	for i := uint64(0); i < 50; i++ {
		if _, err := mc.PersistBlock(addr.FromIndex(i), &plain, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := mc.MediaStats(); st != (MediaStats{}) {
		t.Fatalf("perfect media accumulated media stats: %+v", st)
	}
	if mc.PM().Faulty() {
		t.Fatal("injector armed without fault config")
	}
}

// TestBadBlockRemapSurvivesSnapshot retires cells and checks the table
// rides through Snapshot/Restore with its checksum intact.
func TestBadBlockRemapSurvivesSnapshot(t *testing.T) {
	cfg := config.Default()
	mc, err := NewController(cfg, []byte("media-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	var plain [addr.BlockBytes]byte
	for i := uint64(0); i < 8; i++ {
		if _, err := mc.PersistBlock(addr.FromIndex(i), &plain, nil); err != nil {
			t.Fatal(err)
		}
	}
	mc.CompleteSweep()
	mc.PM().Retire(addr.FromIndex(2))
	mc.PM().Retire(addr.FromIndex(5))

	img := mc.Snapshot()
	if img.PM.BadBlocks() != 2 {
		t.Fatalf("snapshot lost bad-block entries: %d", img.PM.BadBlocks())
	}
	mc2, err := Restore(img, []byte("media-test-key"))
	if err != nil {
		t.Fatalf("restore with valid bad-block table: %v", err)
	}
	if mc2.PM().BadBlocks() != 2 {
		t.Fatalf("restore lost bad-block entries: %d", mc2.PM().BadBlocks())
	}
}

// TestRestoreRejectsCorruptBadBlockTable is the satellite bugfix: a
// snapshot whose bad-block table no longer matches its checksum must be
// refused with a typed error, not adopted (or panicked over).
func TestRestoreRejectsCorruptBadBlockTable(t *testing.T) {
	cfg := config.Default()
	mc, err := NewController(cfg, []byte("media-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	var plain [addr.BlockBytes]byte
	if _, err := mc.PersistBlock(addr.FromIndex(1), &plain, nil); err != nil {
		t.Fatal(err)
	}
	mc.CompleteSweep()
	mc.PM().Retire(addr.FromIndex(1))

	img := mc.Snapshot()
	if err := img.PM.CorruptBadBlockTable(); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(img, []byte("media-test-key"))
	var corrupt *CorruptStateError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Restore accepted a corrupt bad-block table: err=%v", err)
	}
	if corrupt.Component != "bad-block table" {
		t.Fatalf("wrong component: %q", corrupt.Component)
	}
}

// TestWriteAttemptTearsAndFails exercises the device-level fault
// outcomes directly: at rate 1 every attempt faults, and torn writes
// must latch a strict prefix.
func TestWriteAttemptTearsAndFails(t *testing.T) {
	pm := NewPM(1 << 20)
	pm.SetFault(fault.New(fault.Config{Seed: 5, TornRate: 0.999}))
	var line [addr.BlockBytes]byte
	for i := range line {
		line[i] = 0xAA
	}
	b := addr.FromIndex(7)
	pm.WriteAttempt(b, &line)
	if pm.VerifyWrite(b, &line) {
		t.Fatal("torn write at rate ~1 verified clean")
	}
	got, ok := pm.Peek(b)
	if !ok {
		t.Fatal("torn write latched nothing at all")
	}
	n := 0
	for n < addr.BlockBytes && got[n] == 0xAA {
		n++
	}
	if n == 0 || n == addr.BlockBytes {
		t.Fatalf("torn write latched %d bytes, want strict prefix", n)
	}
	for _, rest := range got[n:] {
		if rest != 0 {
			t.Fatal("torn write latched non-prefix bytes")
		}
	}

	pm2 := NewPM(1 << 20)
	pm2.SetFault(fault.New(fault.Config{Seed: 5, WriteFailRate: 0.999}))
	pm2.WriteAttempt(b, &line)
	if _, ok := pm2.Peek(b); ok {
		t.Fatal("failed write latched cells")
	}
}

// TestReadRotIsPersistent checks that a rot flip observed by Read is
// damage to the stored line, not noise on the returned copy.
func TestReadRotIsPersistent(t *testing.T) {
	pm := NewPM(1 << 20)
	pm.SetFault(fault.New(fault.Config{Seed: 11, RotRate: 0.999}))
	var line [addr.BlockBytes]byte
	b := addr.FromIndex(3)
	pm.Write(b, line)
	got := pm.Read(b)
	if got == line {
		t.Fatal("read at rot rate ~1 observed no flip")
	}
	stored, _ := pm.Peek(b)
	if stored != got {
		t.Fatal("rot flip was not persisted to the stored line")
	}
}
