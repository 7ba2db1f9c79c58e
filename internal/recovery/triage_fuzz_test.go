package recovery

import (
	"fmt"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/crypto"
	"secpb/internal/xrand"
)

// FuzzTriageQuarantine is the exactness property of block-granular
// triage: tamper with 1-4 distinct blocks (a ciphertext bit or a MAC
// bit each) and quarantine must contain exactly the tampered set — no
// false negatives (damage escaping quarantine) and no false positives
// (healthy blocks withheld). Every untampered block must additionally
// be salvaged byte-identical to its pre-damage plaintext. Fuzzed inputs
// steer scheme choice, victim count, and a seed from which victims,
// damage kinds, and bit positions derive deterministically.
func FuzzTriageQuarantine(f *testing.F) {
	getCorruptionBases(f)
	f.Add(uint8(0), uint8(1), uint64(0))
	f.Add(uint8(1), uint8(2), uint64(42))
	f.Add(uint8(3), uint8(3), uint64(0xDEAD))
	f.Add(uint8(5), uint8(4), uint64(0xFA017))
	f.Fuzz(func(t *testing.T, schemeSel uint8, nSel uint8, seed uint64) {
		bases := getCorruptionBases(t)
		base := bases[int(schemeSel)%len(bases)]
		mc, err := base.clone()
		if err != nil {
			t.Fatal(err)
		}
		eng := mc.Engine()

		// Golden plaintexts before any damage.
		want := make(map[addr.Block][addr.BlockBytes]byte, len(base.blocks))
		for _, b := range base.blocks {
			ct, _ := mc.PM().Peek(b)
			want[b] = eng.Decrypt(&ct, b.Addr(), mc.Counters().Value(b))
		}

		n := int(nSel)%4 + 1
		if n > len(base.blocks) {
			n = len(base.blocks)
		}
		r := xrand.New(seed | 1)
		tampered := make(map[addr.Block]string, n)
		for len(tampered) < n {
			victim := base.blocks[r.Intn(len(base.blocks))]
			if _, dup := tampered[victim]; dup {
				continue
			}
			if r.Bool(0.5) {
				bit := r.Intn(addr.BlockBytes * 8)
				if err := mc.PM().Tamper(victim, bit); err != nil {
					t.Fatal(err)
				}
				tampered[victim] = fmt.Sprintf("ciphertext bit %d", bit)
			} else {
				bit := r.Intn(crypto.MACSize * 8)
				if err := mc.MACs().Tamper(victim, bit); err != nil {
					t.Fatal(err)
				}
				tampered[victim] = fmt.Sprintf("MAC bit %d", bit)
			}
		}

		rep, err := Triage(mc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quarantined != len(tampered) {
			t.Errorf("%s: %d blocks tampered, %d quarantined", base.img.Config.Scheme, len(tampered), rep.Quarantined)
		}
		for _, b := range base.blocks {
			class, ok := rep.Class(b)
			if !ok {
				t.Fatalf("%s: block %#x not triaged", base.img.Config.Scheme, b.Addr())
			}
			if what, hit := tampered[b]; hit {
				if class != ClassQuarantined {
					t.Errorf("%s: %s on block %#x classed %v, want quarantined (false negative)",
						base.img.Config.Scheme, what, b.Addr(), class)
				}
				continue
			}
			if class == ClassQuarantined {
				t.Errorf("%s: untampered block %#x quarantined (false positive)", base.img.Config.Scheme, b.Addr())
				continue
			}
			if got, ok := rep.Recovered(b); !ok || got != want[b] {
				t.Errorf("%s: untampered block %#x not salvaged byte-identically", base.img.Config.Scheme, b.Addr())
			}
		}
	})
}
