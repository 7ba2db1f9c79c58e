package crypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestEngineKnownAnswer pins the engine's output bytes: sub-key
// derivation, the OTP seed layout, and the MAC and node key blocks all
// feed one sha256 over pads, tags and node hashes (including the empty,
// one-block-boundary and multi-block node inputs) under three keys. Any
// drift fails here, not only in the artifact pins of golden_test.go.
func TestEngineKnownAnswer(t *testing.T) {
	const want = "dd5ca133231202917ae8368ccd18bacc3d37339736362cbbdce5fabbd4642721"
	h := sha256.New()
	for _, key := range []string{"secpb-experiment-key", "", "k"} {
		e, err := NewEngine([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 64; i++ {
			pad := e.OTP(i<<6|i<<40, 7*i+1)
			h.Write(pad[:])
			var ct [CacheLineSize]byte
			for j := range ct {
				ct[j] = byte(31*i + uint64(j))
			}
			tag := e.MAC(&ct, i<<6, i)
			h.Write(tag[:])
			for _, n := range []int{0, 64, 111, 112, 300} {
				node := e.HashNode(make([]byte, n))
				h.Write(node[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("engine output digest = %s, want %s", got, want)
	}
}

func TestEngineEncryptDecryptRoundTrip(t *testing.T) {
	e, err := NewEngine([]byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(data [CacheLineSize]byte, addr, ctr uint64) bool {
		ct := e.Encrypt(&data, addr, ctr)
		pt := e.Decrypt(&ct, addr, ctr)
		return pt == data
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineOTPDataIndependent(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	p1 := e.OTP(0x1000, 5)
	p2 := e.OTP(0x1000, 5)
	if p1 != p2 {
		t.Error("OTP not deterministic for same (addr, counter)")
	}
	if e.OTP(0x1000, 6) == p1 {
		t.Error("OTP unchanged when counter changed")
	}
	if e.OTP(0x1040, 5) == p1 {
		t.Error("OTP unchanged when address changed")
	}
}

func TestEngineCiphertextChangesWithCounter(t *testing.T) {
	// Counter freshness: re-encrypting the same plaintext with a bumped
	// counter must produce different ciphertext (defeats snooping of
	// repeated writes).
	e, _ := NewEngine([]byte("k"))
	var data [CacheLineSize]byte
	copy(data[:], "same plaintext")
	c1 := e.Encrypt(&data, 0x40, 1)
	c2 := e.Encrypt(&data, 0x40, 2)
	if c1 == c2 {
		t.Error("ciphertext identical across counter bump")
	}
}

func TestEngineMACDetectsTampering(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	var ct [CacheLineSize]byte
	copy(ct[:], "ciphertext block")
	tag := e.MAC(&ct, 0x80, 7)
	// Same inputs verify.
	if e.MAC(&ct, 0x80, 7) != tag {
		t.Fatal("MAC not deterministic")
	}
	// Spoofing: data modified.
	mod := ct
	mod[3] ^= 1
	if e.MAC(&mod, 0x80, 7) == tag {
		t.Error("MAC unchanged after data tamper")
	}
	// Splicing: moved to another address.
	if e.MAC(&ct, 0xC0, 7) == tag {
		t.Error("MAC unchanged after address splice")
	}
	// Replay: older counter.
	if e.MAC(&ct, 0x80, 6) == tag {
		t.Error("MAC unchanged after counter rollback")
	}
}

func TestEngineKeySeparation(t *testing.T) {
	e1, _ := NewEngine([]byte("key-one"))
	e2, _ := NewEngine([]byte("key-two"))
	var data [CacheLineSize]byte
	if e1.Encrypt(&data, 0, 0) == e2.Encrypt(&data, 0, 0) {
		t.Error("different engine keys produced same ciphertext")
	}
}

func TestHashNodeDomainSeparation(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	var blk [CacheLineSize]byte
	mac := e.MAC(&blk, 0, 0)
	node := e.HashNode(make([]byte, CacheLineSize))
	if bytes.Equal(mac[:], node[:MACSize]) {
		t.Error("MAC and HashNode collide on same-length input")
	}
	n2 := e.HashNode([]byte{1, 2, 3})
	if node == n2 {
		t.Error("HashNode ignores input")
	}
}

func BenchmarkEngineEncryptLine(b *testing.B) {
	e, _ := NewEngine([]byte("k"))
	var data [CacheLineSize]byte
	b.SetBytes(CacheLineSize)
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(&data, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkEngineMAC(b *testing.B) {
	e, _ := NewEngine([]byte("k"))
	var ct [CacheLineSize]byte
	b.SetBytes(CacheLineSize)
	for i := 0; i < b.N; i++ {
		_ = e.MAC(&ct, uint64(i)<<6, uint64(i))
	}
}

func TestPadReuseLeaksXOR(t *testing.T) {
	// WHY counter freshness is non-negotiable: encrypting two different
	// plaintexts under the same (address, counter) pad lets a snooping
	// attacker compute pt1 XOR pt2 without any key material. This is
	// the leak the split counters (and their crash consistency!)
	// prevent — and exactly what goes wrong if a crash rolls a counter
	// back while new data persisted (the recoverability gap).
	e, _ := NewEngine([]byte("k"))
	var pt1, pt2 [CacheLineSize]byte
	copy(pt1[:], "attack at dawn----------------")
	copy(pt2[:], "attack at dusk----------------")
	ct1 := e.Encrypt(&pt1, 0x1000, 5)
	ct2 := e.Encrypt(&pt2, 0x1000, 5) // same counter: pad reuse!
	var leaked, truth [CacheLineSize]byte
	XOR(&leaked, &ct1, &ct2)
	XOR(&truth, &pt1, &pt2)
	if leaked != truth {
		t.Fatal("pad reuse did not leak the plaintext XOR (model broken)")
	}
	// With a fresh counter the relationship disappears.
	ct2fresh := e.Encrypt(&pt2, 0x1000, 6)
	XOR(&leaked, &ct1, &ct2fresh)
	if leaked == truth {
		t.Fatal("fresh counter still leaks plaintext XOR")
	}
}
