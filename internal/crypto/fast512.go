package crypto

import (
	"crypto/sha512"
	"encoding"
	"encoding/binary"
	"hash"
)

// This file is the engine's fast SHA-512 path. The hot hash primitives
// (per-store MACs and BMT node hashes) run on the standard library's
// crypto/sha512 — assembly-backed on amd64/arm64 — restored from cached
// key-block midstates.
//
// Both primitives are keyed-midstate constructions:
//
//	MAC(ct, a, c)   = SHA-512(macBlock  || addr || ctr || ct)
//	HashNode(child) = SHA-512(nodeBlock || child)
//
// where macBlock and nodeBlock are 128-byte key blocks (the 32-byte MAC
// key, zero padded; the node block additionally carries the 0xB7 domain
// byte so the two primitives can never collide). Because each key block
// is exactly one compression block, its midstate is computed once per
// distinct key and cached; a MAC then costs a single compression of the
// final padded block instead of re-absorbing the key every call, and
// finalization is allocation-free (the digest words are read straight
// out of the compressed state — no state copy, no pad-array build).

// stdState is what the fast path needs from the stdlib digest:
// incremental hashing plus state capture/restore for keyed midstates.
// crypto/sha512 has implemented the three encoding interfaces since
// Go 1.4 (marshal/unmarshal) and Go 1.24 (append); the constructor
// still self-checks and falls back to the one-shot reference if the
// assertion or the state layout ever changes.
type stdState interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	encoding.BinaryAppender
}

// Offsets into the stdlib digest's marshaled state: a 4-byte magic
// ("sha\x07") followed by the eight big-endian hash words. For a state
// that has just compressed its final padded block, those words are
// exactly the SHA-512 digest.
const (
	stateMagicLen = 4
	stateLen      = stateMagicLen + Size512 + BlockBytes + 8
)

// suffix layout shared by both primitives: a message tail of up to
// maxOneBlockTail bytes after the key block still fits — with the 0x80
// terminator and the 16-byte length — in one compression block.
const maxOneBlockTail = BlockBytes - 17

// newStdState returns a fresh stdlib SHA-512 digest with state capture,
// or ok=false if the stdlib type ever stops satisfying stdState.
func newStdState() (stdState, bool) {
	d, ok := sha512.New().(stdState)
	return d, ok
}

// keyBlock builds the 128-byte key block for a primitive: the MAC key
// followed by the domain-separation bytes, zero padded to a full
// compression block.
func keyBlock(key *[32]byte, domain ...byte) [BlockBytes]byte {
	var b [BlockBytes]byte
	copy(b[:], key[:])
	copy(b[32:], domain)
	return b
}

// fastHasher is the per-engine fast-path state: the stdlib digest the
// midstates are restored into plus fixed scratch buffers. Keeping the
// buffers here (stable heap memory) instead of on the stack matters:
// stack arrays passed through the hash.Hash interface escape, which
// would cost two heap allocations per digest.
type fastHasher struct {
	d     stdState
	final [BlockBytes]byte
	state [stateLen]byte
}

func newFastHasher() (*fastHasher, bool) {
	d, ok := newStdState()
	if !ok {
		return nil, false
	}
	return &fastHasher{d: d}, true
}

// midstate captures the stdlib digest state after absorbing one key
// block. The returned slice is immutable and safe to share across
// engines. ok is false if the stdlib digest no longer supports state
// capture or the captured state fails the self-check.
func midstate(block *[BlockBytes]byte) (mid []byte, ok bool) {
	f, isStd := newFastHasher()
	if !isStd {
		return nil, false
	}
	if _, err := f.d.Write(block[:]); err != nil {
		return nil, false
	}
	mid, err := f.d.MarshalBinary()
	if err != nil || len(mid) != stateLen {
		return nil, false
	}
	// Self-check: one digest through the midstate fast path must match
	// a one-shot SHA-512 of (key block || probe). This guards the
	// marshaled-state layout assumption at construction time, so the
	// per-call path can trust it unconditionally.
	probe := [48]byte{0: 1, 21: 0xA5, 47: 0xFF}
	var got [Size512]byte
	if !f.oneBlock(mid, probe[:], &got) {
		return nil, false
	}
	if got != sha512.Sum512(append(block[:], probe[:]...)) {
		return nil, false
	}
	return mid, true
}

// oneBlock hashes (key block || tail) in a single compression from the
// key block's midstate: the final block — tail, 0x80 terminator, message
// bit length — is assembled in the scratch buffer, the midstate is
// restored into the digest, and the digest words are extracted from the
// re-marshaled state. No heap allocation on this path.
func (f *fastHasher) oneBlock(mid []byte, tail []byte, out *[Size512]byte) bool {
	if len(tail) > maxOneBlockTail {
		return false
	}
	n := copy(f.final[:], tail)
	f.final[n] = 0x80
	clear(f.final[n+1 : BlockBytes-8])
	binary.BigEndian.PutUint64(f.final[BlockBytes-8:], uint64(BlockBytes+n)*8)
	if err := f.d.UnmarshalBinary(mid); err != nil {
		return false
	}
	f.d.Write(f.final[:])
	st, err := f.d.AppendBinary(f.state[:0])
	if err != nil || len(st) < stateMagicLen+Size512 {
		return false
	}
	copy(out[:], st[stateMagicLen:stateMagicLen+Size512])
	return true
}
