package crashsim

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// points is the crash-point stream both injectors share. It filters
// firings by kind, counts them (in total and per kind), matches their
// ordinals against the sorted trigger list, and keeps the first handler
// error, after which no further trigger matches.
type points struct {
	mask     []bool   // per-kind enable; nil enables every kind
	triggers []uint64 // sorted ascending, distinct
	cursor   int      // triggers matched so far
	total    uint64
	perKind  []uint64 // indexed by crashpoint.Kind
	err      error
}

// newPoints returns a stream restricted to kinds (empty = all) that
// triggers at the given ordinals.
func newPoints(kinds []crashpoint.Kind, triggers []uint64) *points {
	p := &points{triggers: triggers, perKind: make([]uint64, crashpoint.NumKinds())}
	if len(kinds) > 0 {
		p.mask = make([]bool, crashpoint.NumKinds())
		for _, k := range kinds {
			p.mask[k] = true
		}
	}
	return p
}

// fire counts one firing of kind k and reports whether it is the next
// trigger, with its ordinal. Firings of masked-out kinds are invisible:
// not counted, never triggered.
func (p *points) fire(k crashpoint.Kind) (uint64, bool) {
	if p.mask != nil && !p.mask[k] {
		return 0, false
	}
	i := p.total
	p.total++
	p.perKind[k]++
	if p.err != nil || p.cursor >= len(p.triggers) || p.triggers[p.cursor] != i {
		return 0, false
	}
	p.cursor++
	return i, true
}

// finish closes a run: the first handler error, else an error if any
// trigger never matched (the point stream was not reproducible).
func (p *points) finish() error {
	if p.err != nil {
		return p.err
	}
	if p.cursor != len(p.triggers) {
		return fmt.Errorf("crashsim: run fired %d points but %d of %d triggers never matched (nondeterministic point stream?)",
			p.total, len(p.triggers)-p.cursor, len(p.triggers))
	}
	return nil
}

// inject is the one count→sample→inject driver behind both machine
// shapes. run builds a fresh machine over the given stream and runs its
// trace to completion; the simulator is deterministic, so the counting
// pass and the trigger pass fire the identical stream. inject fills the
// outcome's point counts; the handler run installs fills the rest.
func inject(out *Outcome, what string, topt TraceOptions, run func(*points) error) error {
	count := newPoints(topt.Kinds, nil)
	if err := run(count); err != nil {
		return err
	}
	out.TotalPoints = count.total
	out.ByKind = make(map[string]uint64, crashpoint.NumKinds())
	for _, k := range crashpoint.Kinds() {
		if n := count.perKind[k]; n > 0 {
			out.ByKind[k.String()] = n
		}
	}
	if count.total == 0 {
		return fmt.Errorf("crashsim: %s fired no crash points", what)
	}
	trig := newPoints(topt.Kinds, chooseTriggers(count.total, topt.Points, topt.Seed))
	err := run(trig)
	out.Injected = trig.cursor
	return err
}

// Snapshot is everything that survives a power failure at one crash
// point: the persisted NV image (PM blocks, counter store, MAC store,
// BMT plus its NV root register) and the battery-backed domain (SecPB
// entries including an interrupted in-flight drain, which models the
// memory-controller latches the battery also sustains). Volatile state —
// metadata caches, clocks, the core's program view — is deliberately
// absent. A Snapshot is single-use: recovery drains into the captured
// image.
type Snapshot struct {
	Kind       crashpoint.Kind
	PointIndex uint64 // ordinal among all points fired this run
	Committed  int    // stores past the point of persistency

	key     []byte
	img     nvm.Image
	entries []core.Entry
}

// NumEntries returns how many battery-backed entries the snapshot holds
// (the late work a recovery must fund).
func (s *Snapshot) NumEntries() int { return len(s.entries) }

// String names the crash point: its kind, ordinal and committed count.
func (s *Snapshot) String() string {
	return fmt.Sprintf("%s point %d (%d committed)", s.Kind, s.PointIndex, s.Committed)
}

// Handler receives each captured snapshot together with the golden
// plaintext image for its committed prefix. The golden map is live
// shadow state: consume it synchronously, do not retain it. Custom
// handlers choose their own recovery procedure — e.g.
// RecoverVerifyResumable for nested-crash scenarios — and report
// findings through state they close over; a returned error aborts the
// run (harness failure, not a finding).
type Handler func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error

// Injector drives one simulated run and crashes it at chosen points. It
// implements crashpoint.Sink: every hook firing passes through the
// point stream, and firings that match a trigger are captured,
// recovered and verified in place. Capturing in place (rather than
// halting and replaying) is equivalent to a real crash — recovery
// operates on deep clones of exactly the state a power failure would
// leave — and lets one pass service thousands of crash points with O(1)
// snapshots alive.
type Injector struct {
	*points
	eng    *engine.Engine
	ops    []trace.Op
	key    []byte
	shadow *shadow
	handle Handler
}

func newInjector(cfg config.Config, prof workload.Profile, key []byte, ops []trace.Op, p *points, h Handler) (*Injector, error) {
	eng, err := engine.New(cfg, prof, key)
	if err != nil {
		return nil, err
	}
	return &Injector{
		points: p,
		eng:    eng,
		ops:    ops,
		key:    append([]byte(nil), key...),
		shadow: newShadow(ops),
		handle: h,
	}, nil
}

// CrashPoint implements crashpoint.Sink.
func (in *Injector) CrashPoint(k crashpoint.Kind, _ addr.Block) {
	i, ok := in.fire(k)
	if !ok || in.handle == nil {
		return
	}
	in.err = in.handle(in.capture(k, i), in.shadow.view())
}

// capture freezes the crash-surviving state at the instant the hook
// fired. The committed-store count is the SecPB's accepted-store stat:
// acceptance is the point of persistency, and the stat is bumped only
// after the entry's data is in battery-backed storage, so it is exact at
// every hook site regardless of which micro-op (backflow drain,
// watermark drain, sweep) the point interrupts.
func (in *Injector) capture(k crashpoint.Kind, i uint64) *Snapshot {
	spb := in.eng.SecPB()
	stores, _ := spb.Stats()
	committed := int(stores)
	in.shadow.advanceTo(committed)
	return &Snapshot{
		Kind:       k,
		PointIndex: i,
		Committed:  committed,
		key:        in.key,
		img:        in.eng.Controller().Snapshot(),
		entries:    spb.SnapshotEntries(),
	}
}

// Run executes the trace to completion on the batched loop that
// produces the published numbers (engine.RunBatch), firing the sink at
// every instrumented point. It returns the first harness error (engine
// failure, recovery machinery breakage) — differential verification
// failures are the handler's to accumulate, not errors here.
func (in *Injector) Run() error {
	in.eng.SetCrashSink(in)
	defer in.eng.SetCrashSink(nil)
	if err := in.eng.RunBatch(trace.NewSliceBatchSource(in.ops)); err != nil {
		return fmt.Errorf("crashsim: engine run: %w", err)
	}
	return in.finish()
}
