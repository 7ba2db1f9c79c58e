package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync"
)

// CacheLineSize is the size of a memory block protected as a unit (64B),
// matching the paper's cache line and SecPB entry data size.
const CacheLineSize = 64

// MACSize is the per-block MAC size in bytes. The paper's SecPB entry
// reserves 512 bits per MAC.
const MACSize = 64

// Engine is the memory controller's cryptographic engine: it derives
// one-time pads from (address, counter) seeds, XORs pads with plaintext
// (counter-mode encryption), and computes block MACs and BMT node hashes.
//
// Counter-mode encryption with address-dependent seeds is the split
// counter scheme of Yan et al. used by the paper: the OTP depends only on
// the data-value-independent (address, counter) pair, never on the data.
//
// MAC and HashNode are keyed-midstate constructions over a full 128-byte
// key block (see fast512.go): the hot path restores a cached midstate and
// compresses a single final block via stdlib crypto/sha512, while
// MACReference / HashNodeReference recompute the same digests on the
// hand-rolled SHA512 for differential testing.
type Engine struct {
	aes *Cipher
	// fastAES is the stdlib AES cipher for the same sub-key: on amd64 it
	// compiles to AES-NI instructions, so the pad-generation hot path
	// costs a few cycles per block instead of a T-table round loop. The
	// hand-rolled Cipher remains the differential-test reference
	// (OTPReference, FuzzOTPFastVsReference).
	fastAES cipher.Block
	macKey  [32]byte
	// fast is the per-engine stdlib digest (plus scratch) the midstates
	// are restored into; macMid/nodeMid are the shared, immutable
	// key-block midstates. The engine models one hardware unit and is
	// not safe for concurrent use.
	fast    *fastHasher
	macMid  []byte
	nodeMid []byte
	fastOK  bool
	// otpSeed/otpPad are per-engine scratch for pad generation. Stack
	// arrays sliced into the cipher.Block interface call escape to the
	// heap; routing them through these fields keeps OTPInto (and the
	// Encrypt/Decrypt convenience wrappers) allocation-free. The engine
	// models one hardware unit and is not concurrency-safe.
	otpSeed [BlockSize]byte
	otpPad  [CacheLineSize]byte
}

// derived is the cacheable, immutable part of an engine: the expanded
// AES key schedule, the MAC sub-key, and the key-block midstates for the
// fast hash path. Experiment sweeps build hundreds of controllers under
// the same master key (one per simulated system); caching the derivation
// means the SHA-512 key stretch, the Rijndael key expansion, and the two
// midstate captures run once per distinct key, not once per simulation.
// The *Cipher and midstate slices are shared across engines — they are
// immutable and safe for concurrent use.
type derived struct {
	aes     *Cipher
	fastAES cipher.Block
	macKey  [32]byte
	macMid  []byte
	nodeMid []byte
	fastOK  bool
}

// deriveCacheMax bounds deriveCache growth under adversarial key churn.
const deriveCacheMax = 1024

var (
	deriveMu    sync.RWMutex
	deriveCache = map[string]derived{}
)

// NewEngine returns an engine keyed by the given secret. Different key
// material is derived internally for encryption and authentication.
// Engines sharing a key share the (read-only) key schedule and hash
// midstates but carry private hash scratch state; each engine instance
// remains single-threaded, as before.
func NewEngine(key []byte) (*Engine, error) {
	k := string(key)
	deriveMu.RLock()
	d, ok := deriveCache[k]
	deriveMu.RUnlock()
	if !ok {
		// Derive independent sub-keys via SHA-512 so a single master
		// secret configures the whole engine.
		sum := Sum512(append([]byte("secpb-engine-v1:"), key...))
		aesRef, err := NewCipher(sum[:16]) // AES-128 pad generator
		if err != nil {
			return nil, err
		}
		d = derived{aes: aesRef}
		// The stdlib cipher is pure acceleration: same AES-128 under the
		// same sub-key, hardware instructions where available. A nil
		// fastAES (cannot happen for a valid 16-byte key) would simply
		// leave the reference path in use.
		if std, err := aes.NewCipher(sum[:16]); err == nil {
			d.fastAES = std
		}
		copy(d.macKey[:], sum[16:48])
		macBlock := keyBlock(&d.macKey)
		nodeBlock := keyBlock(&d.macKey, 0xB7) // domain separation from MAC
		macMid, okMAC := midstate(&macBlock)
		nodeMid, okNode := midstate(&nodeBlock)
		d.fastOK = okMAC && okNode
		if d.fastOK {
			d.macMid, d.nodeMid = macMid, nodeMid
		}
		deriveMu.Lock()
		if len(deriveCache) >= deriveCacheMax {
			// Evict one random entry (map iteration order is
			// randomized) instead of flushing the whole cache: a full
			// flush evicted every hot key mid-sweep and forced all
			// concurrent simulations to re-derive at once.
			for old := range deriveCache {
				delete(deriveCache, old)
				break
			}
		}
		deriveCache[k] = d
		deriveMu.Unlock()
	}
	e := &Engine{aes: d.aes, fastAES: d.fastAES, macKey: d.macKey}
	if d.fastOK {
		if fast, ok := newFastHasher(); ok {
			e.fast = fast
			e.macMid = d.macMid
			e.nodeMid = d.nodeMid
			e.fastOK = true
		}
	}
	return e, nil
}

// OTP computes the 64-byte one-time pad for a block at the given physical
// block address with the given counter value. The pad is the AES
// encryption of four distinct (addr, counter, lane) seeds. The stdlib
// cipher (AES-NI on amd64) computes it when available; OTPReference is
// the hand-rolled oracle the differential fuzzer holds it against.
func (e *Engine) OTP(blockAddr uint64, counter uint64) [CacheLineSize]byte {
	var pad [CacheLineSize]byte
	e.OTPInto(&pad, blockAddr, counter)
	return pad
}

// OTPInto writes the pad for (blockAddr, counter) directly into dst —
// the hot-path form that spares the 64-byte return and reassignment
// copies when the pad's destination (a persist-buffer entry field)
// already exists.
func (e *Engine) OTPInto(dst *[CacheLineSize]byte, blockAddr uint64, counter uint64) {
	if e.fastAES == nil {
		*dst = e.OTPReference(blockAddr, counter)
		return
	}
	binary.LittleEndian.PutUint64(e.otpSeed[0:], blockAddr)
	for lane := 0; lane < CacheLineSize/BlockSize; lane++ {
		binary.LittleEndian.PutUint64(e.otpSeed[8:], counter<<2|uint64(lane))
		e.fastAES.Encrypt(dst[lane*BlockSize:], e.otpSeed[:])
	}
}

// OTPReference computes the same pad on the from-scratch T-table AES —
// the differential-test oracle for the fast path.
func (e *Engine) OTPReference(blockAddr uint64, counter uint64) [CacheLineSize]byte {
	var pad [CacheLineSize]byte
	var seed [BlockSize]byte
	binary.LittleEndian.PutUint64(seed[0:], blockAddr)
	for lane := 0; lane < CacheLineSize/BlockSize; lane++ {
		binary.LittleEndian.PutUint64(seed[8:], counter<<2|uint64(lane))
		e.aes.Encrypt(pad[lane*BlockSize:], seed[:])
	}
	return pad
}

// XOR writes dst = a XOR b for 64-byte blocks. In hardware this is the
// single-cycle ciphertext generation step.
func XOR(dst, a, b *[CacheLineSize]byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// Encrypt returns the ciphertext of a 64-byte plaintext block under the
// (blockAddr, counter) pad.
func (e *Engine) Encrypt(plain *[CacheLineSize]byte, blockAddr, counter uint64) [CacheLineSize]byte {
	e.OTPInto(&e.otpPad, blockAddr, counter)
	var ct [CacheLineSize]byte
	XOR(&ct, plain, &e.otpPad)
	return ct
}

// Decrypt returns the plaintext of a 64-byte ciphertext block under the
// (blockAddr, counter) pad. Counter mode is symmetric, so this is the
// same operation as Encrypt.
func (e *Engine) Decrypt(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [CacheLineSize]byte {
	return e.Encrypt(cipher, blockAddr, counter)
}

// MAC computes the 64-byte authentication tag over (ciphertext, address,
// counter). Binding the address defeats splicing and the counter defeats
// (counter-aware) replay; freshness of the counter itself is guaranteed
// by the BMT.
//
// The 80-byte (header || ciphertext) tail always fits the single-block
// fast path, so a MAC costs one SHA-512 compression from the cached key
// midstate.
func (e *Engine) MAC(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [MACSize]byte {
	var tag [MACSize]byte
	e.MACInto(&tag, cipher, blockAddr, counter)
	return tag
}

// MACInto writes the tag directly into dst — the hot-path form for
// callers whose tag destination already exists (per-store early MAC
// regeneration writes straight into the entry's M field).
func (e *Engine) MACInto(dst *[MACSize]byte, cipher *[CacheLineSize]byte, blockAddr, counter uint64) {
	if e.fastOK {
		var tail [16 + CacheLineSize]byte
		binary.LittleEndian.PutUint64(tail[0:], blockAddr)
		binary.LittleEndian.PutUint64(tail[8:], counter)
		copy(tail[16:], cipher[:])
		if e.fast.oneBlock(e.macMid, tail[:], dst) {
			return
		}
	}
	*dst = e.MACReference(cipher, blockAddr, counter)
}

// MACReference computes the same tag as MAC on the hand-rolled SHA512,
// by literally assembling the documented message
//
//	macBlock || addr || ctr || ct
//
// and hashing it in one shot. It is the differential-test oracle for
// the fast path and the fallback when state capture is unavailable;
// like the other reference implementations it favors obvious
// correctness over speed.
func (e *Engine) MACReference(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [MACSize]byte {
	block := keyBlock(&e.macKey)
	msg := make([]byte, 0, BlockBytes+16+CacheLineSize)
	msg = append(msg, block[:]...)
	msg = binary.LittleEndian.AppendUint64(msg, blockAddr)
	msg = binary.LittleEndian.AppendUint64(msg, counter)
	msg = append(msg, cipher[:]...)
	return Sum512(msg)
}

// HashNode computes a keyed BMT node hash over arbitrary child material.
// BMT interior nodes (8 children × 8-byte digests = 64 bytes) fit the
// single-compression fast path; longer inputs stream through the stdlib
// digest from the same midstate.
func (e *Engine) HashNode(children []byte) [Size512]byte {
	if e.fastOK {
		var out [Size512]byte
		if len(children) <= maxOneBlockTail {
			if e.fast.oneBlock(e.nodeMid, children, &out) {
				return out
			}
		} else if e.fast.long(e.nodeMid, children, &out) {
			return out
		}
	}
	return e.HashNodeReference(children)
}

// HashNodeReference computes the same digest as HashNode on the
// hand-rolled SHA512, assembling the documented nodeBlock || children
// message and hashing it in one shot, favoring obvious correctness over
// speed.
func (e *Engine) HashNodeReference(children []byte) [Size512]byte {
	block := keyBlock(&e.macKey, 0xB7)
	msg := make([]byte, 0, BlockBytes+len(children))
	msg = append(msg, block[:]...)
	msg = append(msg, children...)
	return Sum512(msg)
}
