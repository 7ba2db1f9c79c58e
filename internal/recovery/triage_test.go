package recovery

import (
	"testing"

	"secpb/internal/addr"
)

// TestTriageCleanImage: an undamaged post-drain image triages fully
// clean, with every block salvaged byte-identically.
func TestTriageCleanImage(t *testing.T) {
	for _, base := range getCorruptionBases(t) {
		mc, err := base.clone()
		if err != nil {
			t.Fatal(err)
		}
		eng := mc.Engine()
		rep, err := Triage(mc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded() {
			t.Fatalf("%v: pristine image triaged degraded: %s", base.img.Config.Scheme, rep)
		}
		if rep.Clean != len(base.blocks) || rep.Blocks != len(base.blocks) {
			t.Fatalf("%v: %d of %d blocks clean", base.img.Config.Scheme, rep.Clean, len(base.blocks))
		}
		for _, b := range base.blocks {
			ct, _ := mc.PM().Peek(b)
			want := eng.Decrypt(&ct, b.Addr(), mc.Counters().Value(b))
			got, ok := rep.Recovered(b)
			if !ok || got != want {
				t.Fatalf("%v: clean block %#x not salvaged byte-identically", base.img.Config.Scheme, b.Addr())
			}
		}
	}
}

// TestTriageClassifiesDamage stages all three damage shapes on one image
// and checks each lands in its class while untouched blocks stay clean
// and byte-identical.
func TestTriageClassifiesDamage(t *testing.T) {
	bases := getCorruptionBases(t)
	base := bases[len(bases)-1] // laziest scheme
	if len(base.blocks) < 4 {
		t.Fatalf("base image too small: %d blocks", len(base.blocks))
	}
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

	// Damage 1: ciphertext bit -> quarantined.
	ctVictim := base.blocks[0]
	if err := mc.PM().Tamper(ctVictim, 13); err != nil {
		t.Fatal(err)
	}
	// Damage 2: MAC bit -> quarantined.
	macVictim := base.blocks[1]
	if err := mc.MACs().Tamper(macVictim, 5); err != nil {
		t.Fatal(err)
	}
	// Damage 3: stored BMT node on some page's path -> every MAC-clean
	// block of that page becomes recoverable. Pick a page none of the
	// quarantine victims sit on so the classes stay disjoint.
	var treeVictim addr.Block
	for _, b := range base.blocks[2:] {
		if b.CounterLine() != ctVictim.CounterLine() && b.CounterLine() != macVictim.CounterLine() {
			treeVictim = b
			break
		}
	}
	if treeVictim == 0 && base.blocks[2].CounterLine() == ctVictim.CounterLine() {
		t.Skip("no block on an undamaged page; image too clustered")
	}
	ids := mc.Tree().PathNodeIDs(treeVictim.Page())
	id := ids[0]
	level, idx := int(id>>56), id&((1<<56)-1)
	node, ok := mc.Tree().Node(level, idx)
	if !ok {
		t.Fatalf("path node (%d,%d) not materialized", level, idx)
	}
	node[0] ^= 1
	if err := mc.Tree().Tamper(level, idx, node); err != nil {
		t.Fatal(err)
	}
	// The tampered node breaks path verification for every page whose
	// walk touches it (as ancestor or sibling); those pages' MAC-clean
	// blocks must all triage recoverable. Establish the blast radius
	// directly from the tree.
	treeDamaged := make(map[uint64]bool)
	for _, b := range base.blocks {
		page := b.CounterLine()
		if _, seen := treeDamaged[page]; seen {
			continue
		}
		line, ok := mc.Counters().Peek(page)
		if !ok {
			t.Fatalf("page %d has no counters", page)
		}
		treeDamaged[page] = mc.Tree().Verify(page, line.Bytes()) != nil
	}
	if !treeDamaged[treeVictim.CounterLine()] {
		t.Fatal("tampered node did not break its own page's path")
	}

	rep, err := Triage(mc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() {
		t.Fatal("damaged image triaged clean")
	}
	for _, b := range base.blocks {
		class, ok := rep.Class(b)
		if !ok {
			t.Fatalf("block %#x not triaged", b.Addr())
		}
		switch {
		case b == ctVictim || b == macVictim:
			if class != ClassQuarantined {
				t.Errorf("damaged block %#x classed %v, want quarantined", b.Addr(), class)
			}
			if _, salvaged := rep.Recovered(b); salvaged {
				t.Errorf("quarantined block %#x was salvaged", b.Addr())
			}
		case treeDamaged[b.CounterLine()]:
			if class != ClassRecoverable {
				t.Errorf("block %#x on tree-damaged page classed %v, want recoverable", b.Addr(), class)
			}
			if got, ok := rep.Recovered(b); !ok || got != want[b] {
				t.Errorf("recoverable block %#x not salvaged byte-identically", b.Addr())
			}
		default:
			if class != ClassClean {
				t.Errorf("untouched block %#x classed %v (false positive)", b.Addr(), class)
			}
			if got, ok := rep.Recovered(b); !ok || got != want[b] {
				t.Errorf("clean block %#x not salvaged byte-identically", b.Addr())
			}
		}
	}
	// A tampered stored node breaks paths but not the register replay.
	if !rep.RootConsistent {
		t.Error("replayed root should still match the register (counters untouched)")
	}
}

// TestTriageCounterDamage: a tampered counter quarantines its block (the
// MAC is counter-bound), flags the page, and breaks root derivability.
func TestTriageCounterDamage(t *testing.T) {
	bases := getCorruptionBases(t)
	base := bases[0]
	mc, err := base.clone()
	if err != nil {
		t.Fatal(err)
	}
	victim := base.blocks[len(base.blocks)/2]
	old := uint8(mc.Counters().Value(victim))
	if err := mc.Counters().Tamper(victim, old+1); err != nil {
		t.Fatal(err)
	}
	rep, err := Triage(mc)
	if err != nil {
		t.Fatal(err)
	}
	if class, _ := rep.Class(victim); class != ClassQuarantined {
		t.Errorf("counter-tampered block classed %v, want quarantined", class)
	}
	if rep.RootConsistent {
		t.Error("tampered counter should break root derivability")
	}
	if rep.BadPages == 0 {
		t.Error("tampered counter's page should fail its BMT path")
	}
}
