// Package recovery implements the crash-recovery side of SecPB: the
// battery-powered crash drain, post-crash recovery with integrity
// verification, the crash-observer policies (blocking / warning), and an
// attack harness (tampering, rollback, and the recoverability-gap
// failure the paper motivates with Figure 1b).
//
// The central correctness statement (the PLP invariants of Section
// III.A) is checked end-to-end: after a crash at any point, recovery
// must decrypt every persisted block to exactly the plaintext the crash
// observer is allowed to see (the persist-order prefix), and integrity
// verification must succeed — or, if the crash drain is broken or the
// PM image tampered with, must fail loudly.
package recovery

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/engine"
	"secpb/internal/nvm"
)

// Report summarizes one crash-recovery experiment.
type Report struct {
	EntriesDrained  int      // SecPB entries drained on battery
	DrainCost       nvm.Cost // work the battery paid for
	BlocksChecked   int      // persisted blocks recovered and compared
	PlainMismatches int      // wrong plaintext after recovery
	VerifyFailures  int      // integrity verification failures
	FirstBad        string   // description of the first failure, if any
}

// Clean reports whether recovery was fully successful.
func (r Report) Clean() bool {
	return r.PlainMismatches == 0 && r.VerifyFailures == 0
}

// String renders a summary.
func (r Report) String() string {
	status := "CLEAN"
	if !r.Clean() {
		status = "CORRUPT: " + r.FirstBad
	}
	return fmt.Sprintf("recovery: drained %d entries, checked %d blocks, %d plaintext mismatches, %d verify failures [%s]",
		r.EntriesDrained, r.BlocksChecked, r.PlainMismatches, r.VerifyFailures, status)
}

// CrashAndRecover performs the full correct procedure on a crashed
// engine: battery-drain every SecPB entry (completing memory tuples per
// the scheme's laziness), then recover: fetch, decrypt and verify every
// block the crash observer is entitled to see, comparing against the
// program's plaintext view.
func CrashAndRecover(e *engine.Engine) (Report, error) {
	var rep Report
	if spb := e.SecPB(); spb != nil {
		n, cost, err := spb.CrashDrain()
		if err != nil {
			return rep, fmt.Errorf("recovery: crash drain: %w", err)
		}
		rep.EntriesDrained = n
		rep.DrainCost = cost
	}
	verify(e, &rep)
	return rep, nil
}

// verify recovers every persisted block and fills in the report.
func verify(e *engine.Engine, rep *Report) {
	mc := e.Controller()
	mem := e.Memory()
	for _, b := range addr.SortedBlocks(mem) {
		want := mem[b]
		rep.BlocksChecked++
		got, _, err := mc.FetchBlock(b)
		if err != nil {
			rep.VerifyFailures++
			if rep.FirstBad == "" {
				rep.FirstBad = fmt.Sprintf("block %#x: %v", b.Addr(), err)
			}
			continue
		}
		if got != want {
			rep.PlainMismatches++
			if rep.FirstBad == "" {
				rep.FirstBad = fmt.Sprintf("block %#x: wrong plaintext", b.Addr())
			}
		}
	}
}

// GapCrash simulates the recoverability gap of Figure 1(b): a persistent
// hierarchy whose point of persistency moved on-chip (stores persisted
// on entry to the buffer) but whose security point of persistency stayed
// at the memory controller with no crash coordination. On power loss
// the buffered data blocks reach PM — encrypted under the counters the
// MC's volatile metadata caches had already advanced — but the counter,
// MAC, and BMT updates themselves are lost with the volatile caches.
//
// Recovery after GapCrash demonstrates the failure the paper closes:
// stale counters decrypt to garbage and integrity verification fails.
func GapCrash(e *engine.Engine) (Report, error) {
	var rep Report
	spb := e.SecPB()
	if spb == nil {
		return rep, fmt.Errorf("recovery: GapCrash requires a persist buffer")
	}
	mc := e.Controller()
	if !mc.Secure() {
		return rep, fmt.Errorf("recovery: GapCrash requires a secure controller")
	}
	for {
		entry := spb.PopOldest()
		if entry == nil {
			break
		}
		rep.EntriesDrained++
		// The in-flight counter value (storage counter + 1) was only
		// in the volatile metadata cache; the data reaches PM under it
		// but the metadata stores never learn.
		staleCtr := mc.Counters().Value(entry.Block) + 1
		ct := mc.Engine().Encrypt(&entry.Data, entry.Block.Addr(), staleCtr)
		mc.PM().Write(entry.Block, ct)
	}
	verify(e, &rep)
	return rep, nil
}

// Attack identifies a post-crash tampering experiment.
type Attack int

const (
	// AttackData flips a bit in a persisted data block.
	AttackData Attack = iota
	// AttackMAC flips a bit in a stored MAC.
	AttackMAC
	// AttackCounter overwrites a stored minor counter.
	AttackCounter
	// AttackRollback restores an old (data, counter, MAC) triple that
	// was once valid — the replay attack only the BMT can catch.
	AttackRollback
)

// String names the attack.
func (a Attack) String() string {
	switch a {
	case AttackData:
		return "data-tamper"
	case AttackMAC:
		return "mac-tamper"
	case AttackCounter:
		return "counter-tamper"
	case AttackRollback:
		return "rollback"
	default:
		return fmt.Sprintf("attack(%d)", int(a))
	}
}

// Attacks lists all implemented attacks.
func Attacks() []Attack {
	return []Attack{AttackData, AttackMAC, AttackCounter, AttackRollback}
}

// RunAttack crash-drains the engine cleanly, applies the attack to the
// persisted image at the given block, and reports whether recovery
// detected it. A nil error with detected=false means the attack went
// unnoticed — a security failure the tests assert never happens.
func RunAttack(e *engine.Engine, a Attack, victim addr.Block) (detected bool, err error) {
	if spb := e.SecPB(); spb != nil {
		if _, _, err := spb.CrashDrain(); err != nil {
			return false, err
		}
	}
	mc := e.Controller()
	if _, ok := mc.PM().Peek(victim); !ok {
		return false, fmt.Errorf("recovery: victim block %#x not persisted", victim.Addr())
	}

	switch a {
	case AttackData:
		if err := mc.PM().Tamper(victim, 7); err != nil {
			return false, err
		}
	case AttackMAC:
		if err := mc.MACs().Tamper(victim, 3); err != nil {
			return false, err
		}
	case AttackCounter:
		cur := mc.Counters().Value(victim)
		if err := mc.Counters().Tamper(victim, uint8(cur)+1); err != nil {
			return false, err
		}
	case AttackRollback:
		// Build a consistent old triple: re-persist the block to move
		// it forward, then restore the captured old state.
		oldCT, _ := mc.PM().Peek(victim)
		oldTag, ok := mc.MACs().Get(victim)
		if !ok {
			return false, fmt.Errorf("recovery: victim has no MAC")
		}
		oldMinor := uint8(mc.Counters().Value(victim))
		plain, _ := e.MemoryBlock(victim)
		if _, err := mc.PersistBlock(victim, &plain, nil); err != nil {
			return false, err
		}
		mc.PM().Write(victim, oldCT)
		mc.MACs().Put(victim, oldTag)
		if err := mc.Counters().Tamper(victim, oldMinor); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("recovery: unknown attack %d", a)
	}

	_, _, ferr := mc.FetchBlock(victim)
	return ferr != nil, nil
}
