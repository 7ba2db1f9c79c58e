package crashsim

import (
	"fmt"
	"sort"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/recovery"
	"secpb/internal/trace"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// SystemSnapshot is everything that survives a power failure of an
// N-core socket: each core's private memory-channel shard with its
// SecPB entries, the shared coherent region's shard, and each core's
// shared-region SecPB entries. The committed-store counts (the
// acceptance stats at the instant of the crash) gate the golden model.
type SystemSnapshot struct {
	Kind       crashpoint.Kind
	PointIndex uint64

	// Committed[c] is core c's private stores past the point of
	// persistency; SharedCommitted[c] its shared-region stores accepted
	// at barriers.
	Committed       []int
	SharedCommitted []int

	key           []byte
	priv          []nvm.Image    // per core's memory-channel shard
	privEntries   [][]core.Entry // per core, FIFO order
	shared        nvm.Image
	sharedEntries [][]core.Entry // per core, FIFO order
}

// NumEntries returns the total battery-backed entries across all
// buffers — the late work a whole-socket recovery must fund.
func (s *SystemSnapshot) NumEntries() int {
	n := 0
	for c := range s.privEntries {
		n += len(s.privEntries[c]) + len(s.sharedEntries[c])
	}
	return n
}

// String names the crash point: its kind and ordinal.
func (s *SystemSnapshot) String() string {
	return fmt.Sprintf("%s point %d", s.Kind, s.PointIndex)
}

// parts assembles the canonical cross-core drain order over freshly
// restored controllers: ascending core id over the private shards, then
// ascending core id over the shared-region buffers (all draining into
// one restored shared controller). It returns the parts plus the
// restored controllers for verification.
func (s *SystemSnapshot) parts() ([]recovery.CoreEntries, []*nvm.Controller, *nvm.Controller, error) {
	var parts []recovery.CoreEntries
	var privMCs []*nvm.Controller
	for c, img := range s.priv {
		mc, err := nvm.Restore(img, s.key)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("crashsim: restore core %d shard: %w", c, err)
		}
		privMCs = append(privMCs, mc)
		parts = append(parts, recovery.CoreEntries{Core: c, MC: mc, Entries: s.privEntries[c]})
	}
	sharedMC, err := nvm.Restore(s.shared, s.key)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("crashsim: restore shared shard: %w", err)
	}
	for c, entries := range s.sharedEntries {
		parts = append(parts, recovery.CoreEntries{Core: c, MC: sharedMC, Entries: entries})
	}
	return parts, privMCs, sharedMC, nil
}

// RecoverVerify replays the whole-socket late work in the canonical
// sealed order and differentially verifies every shard: each private
// memory-channel shard against its core's committed-prefix golden, the
// shared region against the epoch-merge golden. The four per-shard
// checks are the single-core RecoverVerify's (audit, block-set
// equality, plaintext, tuple derivability).
func (s *SystemSnapshot) RecoverVerify(g *SystemGolden) (VerifyResult, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, nil)
}

// RecoverVerifyPermuted is the order negative control: the parts replay
// in the given non-canonical order, which the sealed system journal
// must reject — the rejection lands as a verification failure, so a
// matrix run that somehow tolerates out-of-order cross-core replay
// shows up as a clean cell where a failure was demanded.
func (s *SystemSnapshot) RecoverVerifyPermuted(g *SystemGolden, order []int) (VerifyResult, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, order)
}

// RecoverVerifyAgainst verifies against caller-supplied goldens (the
// semantic negative control hands in an image built with a permuted
// epoch-merge order).
func (s *SystemSnapshot) RecoverVerifyAgainst(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte) (VerifyResult, error) {
	return s.recoverVerifyOrder(priv, shared, nil)
}

func (s *SystemSnapshot) recoverVerifyOrder(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte, order []int) (VerifyResult, error) {
	var res VerifyResult
	parts, privMCs, sharedMC, err := s.parts()
	if err != nil {
		return res, err
	}
	res.EntriesDrained = s.NumEntries()
	if _, err := recovery.DrainSystemEntries(parts, order); err != nil {
		// An out-of-order replay (journal rejection) or a drain that
		// cannot complete is a correctness finding, not a harness bug.
		res.fail(fmt.Sprintf("cross-core late work failed: %v", err))
		return res, nil
	}
	for c, mc := range privMCs {
		var shardRes VerifyResult
		if err := verifyImage(mc, priv[c], &shardRes); err != nil {
			return res, fmt.Errorf("crashsim: core %d shard: %w", c, err)
		}
		res.BlocksChecked += shardRes.BlocksChecked
		res.Failures += shardRes.Failures
		if res.FirstBad == "" && shardRes.FirstBad != "" {
			res.FirstBad = fmt.Sprintf("core %d: %s", c, shardRes.FirstBad)
		}
	}
	var sharedRes VerifyResult
	if err := verifyImage(sharedMC, shared, &sharedRes); err != nil {
		return res, fmt.Errorf("crashsim: shared shard: %w", err)
	}
	res.BlocksChecked += sharedRes.BlocksChecked
	res.Failures += sharedRes.Failures
	if res.FirstBad == "" && sharedRes.FirstBad != "" {
		res.FirstBad = "shared: " + sharedRes.FirstBad
	}
	return res, nil
}

// sharedStoreRec is one shared-region store in the global epoch-merge
// order: within an epoch, cores replay ascending at the barrier, each
// in program order.
type sharedStoreRec struct {
	epoch   int
	core    int
	pos     int // op index within the core's stream
	ordinal int // ordinal among the core's shared stores (gates commitment)
	op      trace.Op
}

// systemShadow is the multi-core golden model: one committed-prefix
// shadow per private stream plus the shared region's store sequence in
// global merge order, gated by per-core barrier-acceptance counts.
type systemShadow struct {
	priv      []*shadow
	sharedSeq []sharedStoreRec
	sharedMem map[addr.Block][addr.BlockBytes]byte
	applied   int
}

// newSystemShadow classifies each core's ops with the system's own
// rewrite plan (private vs shared, and the rewritten shared addresses),
// then sorts the shared stores into the canonical merge order.
func newSystemShadow(plan engine.SharedPlan, perCore [][]trace.Op) *systemShadow {
	s := &systemShadow{sharedMem: make(map[addr.Block][addr.BlockBytes]byte)}
	for c, ops := range perCore {
		var privOps []trace.Op
		ordinal := 0
		for i, op := range ops {
			rop, shared := plan.Rewrite(c, i, op)
			if !shared {
				privOps = append(privOps, rop)
				continue
			}
			if rop.Kind == trace.Store {
				s.sharedSeq = append(s.sharedSeq, sharedStoreRec{
					epoch: plan.Epoch(i), core: c, pos: i, ordinal: ordinal, op: rop,
				})
				ordinal++
			}
		}
		s.priv = append(s.priv, newShadow(privOps))
	}
	sort.Slice(s.sharedSeq, func(i, j int) bool {
		a, b := s.sharedSeq[i], s.sharedSeq[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.core != b.core {
			return a.core < b.core
		}
		return a.pos < b.pos
	})
	return s
}

func applyStore(mem map[addr.Block][addr.BlockBytes]byte, op trace.Op) {
	block := addr.BlockOf(op.Addr)
	blk := mem[block]
	off := int(op.Addr - block.Addr())
	for i := 0; i < int(op.Size); i++ {
		blk[off+i] = byte(op.Data >> (8 * i))
	}
	mem[block] = blk
}

// advance catches the goldens up to the snapshot's committed counts.
// Barrier replay follows exactly the merge order, so the committed set
// is always a prefix of sharedSeq; advancing while the next record's
// per-core ordinal is under that core's accepted count is exact.
func (s *systemShadow) advance(committed, sharedCommitted []int) {
	for c, k := range committed {
		s.priv[c].advanceTo(k)
	}
	for s.applied < len(s.sharedSeq) {
		rec := s.sharedSeq[s.applied]
		if rec.ordinal >= sharedCommitted[rec.core] {
			break
		}
		applyStore(s.sharedMem, rec.op)
		s.applied++
	}
}

// SystemGolden is the committed-prefix plaintext image at one crash
// point. Maps are live shadow state: consume synchronously.
type SystemGolden struct {
	Priv   []map[addr.Block][addr.BlockBytes]byte
	Shared map[addr.Block][addr.BlockBytes]byte

	shadow          *systemShadow
	sharedCommitted []int
}

// SharedPermutedMerge rebuilds the shared golden with the epoch-merge
// order reversed (descending core within each epoch) over the same
// committed store set. Where two cores wrote the same block in one
// epoch, the last writer differs — the semantic negative control: a
// verifier given this image MUST report plaintext mismatches, proving
// the matrix actually pins the cross-core merge order.
func (g *SystemGolden) SharedPermutedMerge() map[addr.Block][addr.BlockBytes]byte {
	seq := append([]sharedStoreRec(nil), g.shadow.sharedSeq...)
	sort.Slice(seq, func(i, j int) bool {
		a, b := seq[i], seq[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.core != b.core {
			return a.core > b.core // reversed
		}
		return a.pos < b.pos
	})
	mem := make(map[addr.Block][addr.BlockBytes]byte)
	for _, rec := range seq {
		if rec.ordinal < g.sharedCommitted[rec.core] {
			applyStore(mem, rec.op)
		}
	}
	return mem
}

// SystemHandler receives each captured whole-socket snapshot with its
// golden image.
type SystemHandler func(snap *SystemSnapshot, golden *SystemGolden) error

// systemInjector drives one multi-core run and crashes it at chosen
// points. The crash sink forces serial core stepping, so the global
// point stream is deterministic: core 0's epoch, core 1's, ..., then
// the barrier replay in canonical order.
type systemInjector struct {
	*points
	sys    *engine.System
	key    []byte
	shadow *systemShadow
	handle SystemHandler
}

func newSystemInjector(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, p *points, h SystemHandler) (*systemInjector, error) {
	srcs := make([]trace.Source, len(perCore))
	for c, ops := range perCore {
		srcs[c] = trace.NewSliceSource(ops)
	}
	sys, err := engine.NewSystemSources(cfg, prof, key, srcs)
	if err != nil {
		return nil, err
	}
	return &systemInjector{
		points: p,
		sys:    sys,
		key:    append([]byte(nil), key...),
		shadow: newSystemShadow(sys.Plan(), perCore),
		handle: h,
	}, nil
}

// CrashPoint implements crashpoint.Sink.
func (in *systemInjector) CrashPoint(k crashpoint.Kind, _ addr.Block) {
	i, ok := in.fire(k)
	if !ok || in.handle == nil {
		return
	}
	in.err = in.handle(in.capture(k, i))
}

// capture freezes the whole socket: every shard's NV image, every
// battery-backed buffer, and the per-buffer acceptance stats that gate
// the goldens.
func (in *systemInjector) capture(k crashpoint.Kind, i uint64) (*SystemSnapshot, *SystemGolden) {
	n := in.sys.Cores()
	snap := &SystemSnapshot{Kind: k, PointIndex: i, key: in.key}
	for c := 0; c < n; c++ {
		eng := in.sys.Core(c)
		spb := eng.SecPB()
		stores, _ := spb.Stats()
		snap.Committed = append(snap.Committed, int(stores))
		snap.privEntries = append(snap.privEntries, spb.SnapshotEntries())
		snap.priv = append(snap.priv, eng.Controller().Snapshot())
	}
	for c := 0; c < n; c++ {
		spb := in.sys.Shared().SecPB(c)
		stores, _ := spb.Stats()
		snap.SharedCommitted = append(snap.SharedCommitted, int(stores))
		snap.sharedEntries = append(snap.sharedEntries, spb.SnapshotEntries())
	}
	snap.shared = in.sys.Shared().Controller().Snapshot()

	in.shadow.advance(snap.Committed, snap.SharedCommitted)
	golden := &SystemGolden{
		Shared:          in.shadow.sharedMem,
		shadow:          in.shadow,
		sharedCommitted: append([]int(nil), snap.SharedCommitted...),
	}
	for c := 0; c < n; c++ {
		golden.Priv = append(golden.Priv, in.shadow.priv[c].view())
	}
	return snap, golden
}

// Run executes every core's trace to completion, firing the sink at
// every instrumented point across all shards.
func (in *systemInjector) Run() error {
	in.sys.SetCrashSink(in)
	if err := in.sys.Run(); err != nil {
		return fmt.Errorf("crashsim: system run: %w", err)
	}
	return in.finish()
}

// SystemCellResult is the crash-matrix outcome for one multi-core cell.
type SystemCellResult struct {
	Scheme     string `json:"scheme"`
	Workload   string `json:"workload"`
	Cores      int    `json:"cores"`
	OpsPerCore int    `json:"ops_per_core"`
	Seed       uint64 `json:"seed"`
	Outcome
}

// InjectSystemTrace crash-tests a multi-core socket over prepared
// per-core op slices with the single-core driver: a first pass counts
// the run's crash points across every shard, a trigger set is drawn,
// and a second identical run (serial stepping under the sink keeps the
// point stream deterministic) crashes at each trigger and hands the
// snapshot to h. A nil h is the standard recovery in the sealed
// canonical order with every shard verified; custom handlers (the
// negative controls choose their own verification) keep their own
// findings.
func InjectSystemTrace(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, topt TraceOptions, h SystemHandler) (SystemCellResult, error) {
	cell := SystemCellResult{Scheme: cfg.Scheme.String(), Workload: prof.Name, Cores: cfg.EffectiveCores(), Seed: cfg.Seed}
	if len(perCore) > 0 {
		cell.OpsPerCore = len(perCore[0])
	}
	if h == nil {
		h = func(snap *SystemSnapshot, golden *SystemGolden) error {
			res, err := snap.RecoverVerify(golden)
			if err != nil {
				return err
			}
			cell.tally(res, snap)
			return nil
		}
	}
	what := fmt.Sprintf("%s/%s cores=%d", cfg.Scheme, prof.Name, cell.Cores)
	err := inject(&cell.Outcome, what, topt, func(p *points) error {
		in, err := newSystemInjector(cfg, prof, key, perCore, p, h)
		if err != nil {
			return err
		}
		return in.Run()
	})
	return cell, err
}

// SystemTrace materializes the per-core op slices a multi-core cell
// runs: core c's stream is generated from CoreSeed(cfg.Seed, c),
// exactly as engine.NewSystem does internally.
func SystemTrace(cfg config.Config, prof workload.Profile, opsPerCore int) ([][]trace.Op, error) {
	n := cfg.EffectiveCores()
	perCore := make([][]trace.Op, n)
	for c := 0; c < n; c++ {
		ops, err := workload.Generate(prof, engine.CoreSeed(cfg.Seed, c), opsPerCore)
		if err != nil {
			return nil, err
		}
		perCore[c] = ops
	}
	return perCore, nil
}

// RunSystemCell explores one scheme × workload multi-core cell with
// derived seeds, exhaustively when opts.Points <= 0.
func RunSystemCell(scheme config.Scheme, wl string, cores int, opts Options) (SystemCellResult, error) {
	opts = opts.withDefaults()
	prof, err := workload.ByName(wl)
	if err != nil {
		return SystemCellResult{Scheme: scheme.String(), Workload: wl, Cores: cores}, err
	}
	seed := xrand.CellSeed(opts.Seed, scheme.String(), wl) ^ uint64(cores)<<48
	cfg := cellConfig(opts, scheme, seed).WithCores(cores)
	perCore, err := SystemTrace(cfg, prof, opts.Ops)
	if err != nil {
		return SystemCellResult{Scheme: scheme.String(), Workload: wl, Cores: cores}, err
	}
	return InjectSystemTrace(cfg, prof, opts.Key, perCore, TraceOptions{Points: opts.Points, Seed: seed ^ 0xC0FFEE}, nil)
}
