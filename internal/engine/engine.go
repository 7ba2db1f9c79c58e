// Package engine is the whole-system simulator: it replays a memory-
// operation stream against the modelled core, cache hierarchy, SecPB,
// memory controller and PM, producing both timing results (cycles, IPC,
// slowdowns) and a functional persistent state that the recovery package
// can crash and verify at any point.
//
// The engine is a mechanistic cycle-accounting model rather than an
// event-driven simulator: time advances with each retired instruction,
// and shared resources (the SecPB port, the AES/MAC engines, the
// one-in-flight BMT walker, the MC drain pipeline, PM write bandwidth)
// are modelled as busy-until clocks. The paper's own analytical
// validation (Section VI.B) shows the evaluated effects are dominated by
// exactly these serializations.
package engine

import (
	"encoding/binary"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/mem"
	"secpb/internal/nvm"
	"secpb/internal/ptable"
	"secpb/internal/stats"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Engine simulates one core plus its memory system for one scheme.
type Engine struct {
	cfg    config.Config
	timing Timing
	prof   workload.Profile

	mc   *nvm.Controller
	spb  *core.SecPB // nil for the SP baseline
	hier *mem.Hierarchy
	sb   *mem.StoreBuffer

	// lat holds the config-invariant cycle constants of the step path,
	// l1 the cached L1 pointer the hot probes use, and blockCol the
	// batch replay loop's reusable bulk-decomposed block column.
	lat      latencies
	l1       *mem.Cache
	blockCol []addr.Block
	// lastStoreBlock/lastStoreBlk memoize the store path's most recent
	// memory-image lookup (ptable pointers are stable).
	lastStoreBlock addr.Block
	lastStoreBlk   *[addr.BlockBytes]byte

	// memory is the program's plaintext view of every written block —
	// the reference the crash observer compares recovery against, and
	// the source of initial contents for PB allocations. It is a paged
	// direct-index table keyed by block index: the per-store
	// read-modify-write is a radix lookup (no map hashing), block
	// storage never moves so the returned pointers stay valid, and one
	// 32KB page allocation covers the first touches of 512 neighbouring
	// blocks (the table doubles as the block arena).
	memory *ptable.Table[[addr.BlockBytes]byte]

	// Cycle-accounting clocks.
	now        uint64 // retirement time of the last instruction
	pbPortFree uint64 // SecPB port: frees at the unblocking signal
	drainFree  uint64 // MC drain pipeline
	spUnitFree uint64 // SP baseline MC pipeline

	// Virtual SecPB occupancy: functional drains happen at scheduling
	// time, but the slot stays occupied until the drain completes.
	inflight   []uint64 // completion times of scheduled drains (FIFO)
	draining   bool     // watermark drain in progress
	virtualOcc int
	peakOcc    int // high-water virtual occupancy (battery sizing)

	// gapHist measures the draining + sec-sync window the battery must
	// be able to cover (the gaps of Figure 3); each entry's point of
	// persistency rides on the entry itself (pb.Entry.AllocCycle).
	gapHist *stats.Histogram

	// sink, when non-nil, receives the store-accept crash point; the
	// same sink is propagated to the SecPB and controller by
	// SetCrashSink. Nil in normal runs: a disabled pipeline costs one
	// pointer compare per store and allocates nothing. The sink is the
	// only difference between a crash-injected run and a normal one —
	// both take the same step path.
	sink crashpoint.Sink

	// Statistics.
	instrs        uint64
	loads, stores uint64
	loadStall     uint64
	backpressure  uint64 // cycles stores waited on a full SecPB
	pbServedLoads uint64
	integrityErr  error
	fracCPI       float64 // fractional cycle accumulator
	// cpiTab[n] = float64(n) * prof.NonMemCPI for small instruction
	// counts, precomputed so advance skips the int→float convert and
	// multiply on the per-op path. The products are the same IEEE
	// operations advance used to perform, so the accumulator trajectory
	// (and every derived cycle count) is bit-identical.
	cpiTab [64]float64
}

// latencies holds the cycle constants the step path needs, hoisted out
// of config.Config at engine construction (PMReadCycles alone is a
// float multiply per call).
type latencies struct {
	port      uint64 // SecPBAccessCyc
	allocPort uint64 // extra port cycles for new entries (OBCM: +port)
	ctrHit    uint64 // counter-cache access cycles
	pmRead    uint64 // PMReadCycles(): counter/BMT-node fetch from PM
	aes       uint64 // AESLatency
	mac       uint64 // MACLatency (also per BMT level)
	entries   int    // SecPBEntries (backflow limit)
	loadCheck bool   // secure && !Speculative: loads wait for MAC+BMT
}

// New builds an engine for the given configuration and workload profile.
func New(cfg config.Config, prof workload.Profile, key []byte) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	mc, err := nvm.NewController(cfg, key)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		timing:  DefaultTiming(),
		prof:    prof,
		mc:      mc,
		hier:    mem.NewHierarchy(cfg),
		sb:      mem.NewStoreBuffer(cfg.StoreBufferCap),
		memory:  ptable.New[[addr.BlockBytes]byte](),
		gapHist: stats.NewHistogram(256, 512),
	}
	for n := range e.cpiTab {
		e.cpiTab[n] = float64(n) * prof.NonMemCPI
	}
	if cfg.Scheme != config.SchemeSP {
		spb, err := core.New(cfg, mc)
		if err != nil {
			return nil, err
		}
		e.spb = spb
	}
	e.l1 = e.hier.L1()
	e.lat = latencies{
		port:      cfg.SecPBAccessCyc,
		ctrHit:    cfg.CtrCache.AccessCycles,
		pmRead:    cfg.PMReadCycles(),
		aes:       cfg.AESLatency,
		mac:       cfg.MACLatency,
		entries:   cfg.SecPBEntries,
		loadCheck: mc.Secure() && !cfg.Speculative,
	}
	if cfg.Scheme == config.SchemeOBCM {
		// OBCM pays the SecPB access twice for new entries: once to
		// write the data block, once to check the counter valid bit.
		e.lat.allocPort = e.lat.port
	}
	return e, nil
}

// Controller exposes the memory controller (for recovery experiments).
func (e *Engine) Controller() *nvm.Controller { return e.mc }

// Config returns the configuration the engine was booted with.
func (e *Engine) Config() config.Config { return e.cfg }

// MediaStats reports the degraded-mode activity of the run so far: the
// controller's program-and-verify retries, bad-block remaps, and the PM
// fault injector's event counts. All zeros with the fault model off.
func (e *Engine) MediaStats() nvm.MediaStats { return e.mc.MediaStats() }

// SecPB exposes the persist buffer (nil under the SP baseline).
func (e *Engine) SecPB() *core.SecPB { return e.spb }

// Memory returns a snapshot of the program's plaintext view (the crash
// observer's reference for blocks that reached the point of
// persistency). The snapshot is rebuilt per call; per-block reads on hot
// paths should use MemoryBlock instead.
func (e *Engine) Memory() map[addr.Block][addr.BlockBytes]byte {
	out := make(map[addr.Block][addr.BlockBytes]byte, e.memory.Len())
	e.memory.Range(func(idx uint64, p *[addr.BlockBytes]byte) bool {
		out[addr.FromIndex(idx)] = *p
		return true
	})
	return out
}

// MemoryBlock returns the plaintext view of one block and whether the
// program ever wrote it.
func (e *Engine) MemoryBlock(b addr.Block) ([addr.BlockBytes]byte, bool) {
	if p := e.memory.Lookup(b.Index()); p != nil {
		return *p, true
	}
	return [addr.BlockBytes]byte{}, false
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// SetCrashSink installs (or, with nil, removes) a crash-injection sink
// across the whole pipeline: the engine's store-accept point, the
// SecPB's allocation point, and the controller's drain-path points.
func (e *Engine) SetCrashSink(s crashpoint.Sink) {
	e.sink = s
	if e.spb != nil {
		e.spb.SetCrashSink(s)
	}
	e.mc.SetCrashSink(s)
}

// Kernelized reports false: the engine has a single step path.
//
// Deprecated: kept for callers of the removed specialized kernels.
func (e *Engine) Kernelized() bool { return false }

// advance adds non-memory instruction time: gap instructions plus the
// memory instruction itself, at the profile's baseline CPI.
func (e *Engine) advance(gap uint32) {
	n := uint64(gap) + 1
	e.instrs += n
	if n < uint64(len(e.cpiTab)) {
		e.fracCPI += e.cpiTab[n]
	} else {
		e.fracCPI += float64(n) * e.prof.NonMemCPI
	}
	// Convert through int64: the accumulator is a handful of op-CPIs
	// (nowhere near 2^63), and the signed truncation compiles to one
	// instruction on amd64 where the unsigned form is a branchy
	// sequence. The value — and so the cycle trajectory — is identical.
	whole := uint64(int64(e.fracCPI))
	e.fracCPI -= float64(whole)
	e.now += whole
}

// Step executes one memory operation.
func (e *Engine) Step(op trace.Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	e.advance(op.Gap)
	switch op.Kind {
	case trace.Load:
		e.load(uint64(addr.BlockOf(op.Addr)))
	case trace.Store:
		return e.store(addr.BlockOf(op.Addr), op.Addr, op.Size, op.Data)
	case trace.Fence:
		e.fence()
	}
	return nil
}

// StepBatch executes one columnar batch of operations: validated once
// up front, then replayed by the same loop RunBatch uses. Callers that
// receive ops in externally-chosen chunks (the trace-streaming service
// steps one uploaded segment at a time) get the columnar path without
// committing to a whole-source Run; the result trajectory is identical
// to the equivalent Step sequence at any chunking.
func (e *Engine) StepBatch(b *trace.Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return e.replayBatch(b)
}

// fence drains the store buffer. Under strict persistency on a
// persistent hierarchy fences are otherwise no-ops.
func (e *Engine) fence() {
	if d := e.sb.DrainedBy(); d > e.now {
		e.now = d
	}
}

// Run drains the source. It returns the first error (trace corruption or
// an integrity violation, which indicates a simulator bug or an injected
// attack). Sources that also implement trace.BatchSource (the workload
// generator) are replayed through the batched path; scalar sources
// (codecs, recorded traces) take the per-op path. Both produce identical
// results.
func (e *Engine) Run(src trace.Source) error {
	if bs, ok := src.(trace.BatchSource); ok {
		return e.RunBatch(bs)
	}
	for {
		op, ok := src.Next()
		if !ok {
			break
		}
		if err := e.Step(op); err != nil {
			return err
		}
	}
	return e.finishRun()
}

// RunBatch drains a batched source: ops arrive in columnar chunks, each
// validated once up front and replayed with no per-op interface
// dispatch.
func (e *Engine) RunBatch(src trace.BatchSource) error {
	b := trace.NewBatch(trace.DefaultBatchCap)
	for src.NextBatch(b) {
		if err := b.Validate(); err != nil {
			return err
		}
		if err := e.replayBatch(b); err != nil {
			return err
		}
	}
	return e.finishRun()
}

// replayBatch replays one validated batch. The loop is columnar: the
// block column is bulk-decomposed up front via internal/addr, ops are
// read straight out of the columns (no per-op trace.Op materialization
// and no per-op Validate), and L1-hit loads — the bulk of every
// workload — complete inside the loop with a single set-indexed probe.
func (e *Engine) replayBatch(b *trace.Batch) error {
	kinds, addrs, sizes, datas, gaps := b.Kinds, b.Addrs, b.Sizes, b.Datas, b.Gaps
	e.blockCol = addr.AppendBlocks(e.blockCol[:0], addrs)
	blocks := e.blockCol
	for i := range kinds {
		e.advance(gaps[i])
		switch kinds[i] {
		case trace.Load:
			e.load(uint64(blocks[i]))
		case trace.Store:
			if err := e.store(blocks[i], addrs[i], sizes[i], datas[i]); err != nil {
				return err
			}
		default: // trace.Fence
			e.fence()
		}
	}
	return nil
}

// finishRun closes the region of interest. Execution time includes
// draining the core's store buffer (the last store must be persistently
// accepted) but not the PB drain, which proceeds in the background;
// deferred drain tuples and staged BMT walks are committed so post-run
// inspection starts from a settled controller.
func (e *Engine) finishRun() error {
	if d := e.sb.DrainedBy(); d > e.now {
		e.now = d
	}
	e.mc.FlushStaged()
	e.mc.CompleteSweep()
	return nil
}

// ExternalOp accounts for one memory operation executed outside this
// core's private data path — a shared-region access handled by the
// coherence layer in engine.System. The op's instruction gap retires at
// the profile CPI like any other op, and stall cycles (directory access,
// remote flush/migration latency) charge against retirement. The private
// caches, SecPB and controller are untouched.
func (e *Engine) ExternalOp(gap uint32, stall uint64) {
	e.advance(gap)
	e.now += stall
	e.loadStall += stall
}

// AddStall charges stall cycles accumulated on the core's behalf at a
// drain-epoch barrier (deferred shared-op latency).
func (e *Engine) AddStall(cycles uint64) {
	e.now += cycles
	e.loadStall += cycles
}

// EpochBarrier settles the controller at a drain-epoch boundary in
// multi-core runs: deferred drain tuples flush and staged BMT walks
// commit in one coalesced sweep. Functional state and Cost accounting
// are unchanged (the staging layer is wall-clock-only, see DESIGN.md
// §5.6), so calling this at any frequency never alters results.
func (e *Engine) EpochBarrier() {
	e.mc.FlushStaged()
	e.mc.CompleteSweep()
}

// Occupancy returns the current virtual SecPB occupancy (resident
// entries including scheduled drains still in flight).
func (e *Engine) Occupancy() int { return e.virtualOcc }

// PeakOccupancy returns the run's high-water virtual SecPB occupancy.
func (e *Engine) PeakOccupancy() int { return e.peakOcc }

// Finish closes the region of interest exactly as Run does — store
// buffer drained, staging settled — for callers that step the engine
// manually (engine.System drives per-core epochs itself).
func (e *Engine) Finish() error { return e.finishRun() }

// CrashDrain flushes the core's SecPB on battery power (FIFO order) and
// settles the engine's occupancy tracking: after it returns, every
// entry — including drains that were in flight — is persisted.
func (e *Engine) CrashDrain() (int, error) {
	if e.spb == nil {
		return 0, nil
	}
	n, _, err := e.spb.CrashDrain()
	e.inflight = e.inflight[:0]
	e.virtualOcc = 0
	return n, err
}

// load models a data read of the block at blockAddr. L1 hits — the bulk
// of every workload — are fully pipelined and cost no retirement stall;
// everything past an L1 miss is in loadMiss.
func (e *Engine) load(blockAddr uint64) {
	e.loads++
	if e.l1.AccessRead(blockAddr) {
		return
	}
	e.loadMiss(blockAddr)
}

// loadMiss serves a load that missed L1. The hierarchy walk starts at
// L2: LoadAfterL1Miss recounts the walk's own L1 probe instead of
// rescanning a set the caller just missed in, so cache statistics are
// those of a full walk.
func (e *Engine) loadMiss(blockAddr uint64) {
	block := addr.Block(blockAddr)
	// The persist buffer is at the L1 level and holds the freshest
	// data: an L1 miss that hits the SecPB is served from it.
	if e.spb != nil && e.spb.Lookup(block) != nil {
		e.pbServedLoads++
		e.l1.Fill(blockAddr, true, true)
		e.stall(e.lat.port)
		return
	}
	res := e.hier.LoadAfterL1Miss(blockAddr)
	extra := uint64(0)
	if res.PMAccess {
		// Functional fetch: decrypt + verify.
		_, cost, err := e.mc.FetchBlock(block)
		if err != nil && e.integrityErr == nil {
			e.integrityErr = err
		}
		// With speculative verification (PoisonIvy) the MAC/BMT checks
		// run off the critical path; without it the load's use waits
		// for the MAC check and the BMT walk.
		if e.lat.loadCheck {
			extra = e.lat.mac + uint64(cost.BMTLevels)*e.lat.mac
		}
	}
	e.stall(res.Cycles - e.l1.Latency() + extra)
}

// stall charges a retirement stall of cycles/MLP (overlapped misses).
func (e *Engine) stall(cycles uint64) {
	s := cycles / e.timing.MLP
	e.loadStall += s
	e.now += s
}

// store models a persist of size bytes of data at a (inside block): the
// store enters L1D and the SecPB in parallel, and its acceptance
// latency depends on the scheme's early work. The common case — the
// store coalesces into a resident entry — runs straight through: memory
// update, hierarchy touch, one index probe that doubles as the
// coalescing write plus the scheme's per-store early work, and a short
// timing chain. Allocation (roughly one store in NWPE) takes
// storeAccept.
func (e *Engine) store(block addr.Block, a uint64, size uint8, data uint64) error {
	e.stores++
	off := int(a - uint64(block))

	// Functional: update the program view in place. Consecutive stores
	// overwhelmingly target the block they just wrote; ptable block
	// pointers never move, so the previous lookup stays valid and the
	// radix walk is skipped on a repeat.
	blk := e.lastStoreBlk
	if block != e.lastStoreBlock || blk == nil {
		blk, _ = e.memory.GetOrCreate(block.Index())
		e.lastStoreBlock, e.lastStoreBlk = block, blk
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(blk[off:off+8], data)
	} else {
		for i := 0; i < int(size); i++ {
			blk[off+i] = byte(data >> (8 * i))
		}
	}

	// Timing+state: L1D write in parallel with PB acceptance.
	e.hier.StoreTouch(uint64(block))

	// Crash boundary: the program view and L1 hold the store but it has
	// not reached the point of persistency yet.
	if e.sink != nil {
		e.sink.CrashPoint(crashpoint.StoreAccept, block)
	}

	if e.spb == nil {
		return e.storeSP(block, blk)
	}

	// Retire completed drains.
	e.reapDrains(e.now)
	accStart := max(e.now, e.pbPortFree)

	// Under the DVI-coalescing ablation CoalesceStore never coalesces:
	// every store redoes the per-entry work in the full accept.
	found, xored, maced := e.spb.CoalesceStore(block, off, int(size), data)
	if !found {
		return e.storeAccept(block, off, size, data, blk, accStart)
	}

	// Coalesced store: no counter step, no OTP, no BMT walk (the DVI
	// per-entry work ran at allocation), so the Figure 4 dependency
	// graph collapses to port → [cipher XOR] → [MAC].
	unblock := accStart + e.lat.port
	if xored {
		unblock += 1 + e.lat.port
	}
	if maced {
		unblock += e.lat.mac
	}
	e.pbPortFree = unblock
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// storeAccept is the store path's full accept: the backflow test, the
// SecPB accept with cost accounting, and the complete early-work timing
// chain.
func (e *Engine) storeAccept(block addr.Block, off int, size uint8, data uint64, blk *[addr.BlockBytes]byte, accStart uint64) error {
	// Backflow test: the Lookup only matters when occupancy is at the
	// limit, so check the cheap counter first.
	if e.virtualOcc >= e.lat.entries && e.spb.Lookup(block) == nil {
		// Backflow: the SecPB is full including in-flight drains; the
		// store waits for the oldest drain to complete (draining is
		// already in progress by watermark, but force one if not).
		if len(e.inflight) == 0 {
			if err := e.scheduleDrain(accStart); err != nil {
				return err
			}
		}
		wait := e.inflight[0]
		if wait > accStart {
			e.backpressure += wait - accStart
			accStart = wait
		}
		e.reapDrains(accStart)
	}

	var cost core.AcceptCost
	if err := e.spb.AcceptStoreInit(0, block, off, int(size), data, blk, accStart, &cost); err != nil {
		return fmt.Errorf("engine: accept store: %w", err)
	}
	port := e.lat.port
	if cost.Allocated {
		e.virtualOcc++
		if e.virtualOcc > e.peakOcc {
			e.peakOcc = e.virtualOcc
		}
		port += e.lat.allocPort
	}

	// Early-work timing follows Figure 4's dependency graph: the
	// counter gates everything; OTP → ciphertext → MAC form one chain;
	// the BMT walk branches off the counter in parallel. Distinct
	// hardware units pipeline across stores ("generation of several
	// MACs is overlapped with BMT updates", Sec VI.B), but stores
	// unblock the store buffer in order (persist order invariant).
	tCtr := accStart + port
	if cost.CounterStep {
		if cost.CtrCost.CtrFetchPM {
			tCtr += e.lat.pmRead
		} else {
			tCtr += e.lat.ctrHit
		}
	}
	// OTP → ciphertext → MAC chain.
	tChain := tCtr
	if cost.OTPGenerated {
		tChain += e.lat.aes
	}
	if cost.CipherXOR {
		// Regenerating Dc costs a single-cycle XOR plus a SecPB write
		// port access to update the entry's ciphertext field.
		tChain += 1 + e.lat.port
	}
	if cost.MACGenerated {
		tChain += e.lat.mac
	}
	// BMT branch, parallel with the MAC chain within this store: both
	// hang off the counter.
	tBMT := tCtr
	if cost.BMTLevels > 0 {
		tBMT += uint64(cost.BMTLevels)*e.lat.mac +
			uint64(cost.BMTNodeFetch)*e.lat.pmRead
	}
	// The unblocking signal: the SecPB accepts the next store only
	// after this store's early tuple elements are updated (for NoGap,
	// the complete tuple — the persist order invariant).
	unblock := max(tChain, tBMT)
	e.pbPortFree = unblock
	// The core proceeds unless the store buffer is full; then the
	// watermark-drain epilogue.
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// storeDrainTail is the watermark-drain epilogue of every SecPB store:
// start draining above the high watermark, continue to the low one, and
// commit the burst's staged BMT walks in one coalesced sweep.
func (e *Engine) storeDrainTail() error {
	if e.spb.AboveHigh() {
		e.draining = true
	}
	drained := false
	for e.draining && e.spb.AboveLow() {
		if err := e.scheduleDrain(e.now); err != nil {
			return err
		}
		drained = true
	}
	if !e.spb.AboveLow() {
		e.draining = false
	}
	if drained {
		// The drain burst is one epoch: commit its staged BMT walks with
		// a single coalesced sweep (timing/Cost accounting is unchanged —
		// the sweep only affects host wall-clock).
		e.mc.CompleteSweep()
	}
	return nil
}

// storeSP models the SP baseline: every store streams through the MC's
// pipelined tuple-update path (no coalescing, SPoP at the MC).
func (e *Engine) storeSP(block addr.Block, data *[addr.BlockBytes]byte) error {
	levels := 0
	if h := e.mc.Heights(); h != nil {
		levels = h.WalkLevels(block.CounterLine())
	}
	busy := e.timing.SPBaseII + uint64(levels)*e.timing.SPLevelII
	start := max(e.now, e.spUnitFree)
	done := start + busy
	e.spUnitFree = done
	e.now = e.sb.Push(e.now, done)
	// Functional write-through persist of the whole block.
	if _, err := e.mc.PersistBlock(block, data, nil); err != nil {
		return fmt.Errorf("engine: SP persist: %w", err)
	}
	return nil
}

// scheduleDrain pops the oldest entry functionally, completes its tuple
// at the MC, and books the drain pipeline time; the SecPB slot frees
// when the drain completes.
func (e *Engine) scheduleDrain(at uint64) error {
	entry, cost, err := e.spb.DrainOne()
	if err != nil {
		return fmt.Errorf("engine: drain: %w", err)
	}
	if entry == nil {
		return nil
	}
	busy := e.timing.DrainBase +
		uint64(cost.Hashes)*e.timing.DrainHashII +
		uint64(cost.AESOps)*e.timing.DrainAESII +
		uint64(cost.PMDataWrites+cost.PMMetaWrites)*e.timing.DrainPMWrite +
		uint64(cost.PMReads)*e.timing.DrainPMRead
	start := max(e.drainFree, at)
	e.drainFree = start + busy
	e.inflight = append(e.inflight, e.drainFree)
	// Record the PoP -> SPoP window (draining gap + sec-sync gap): the
	// time this entry spent covered only by the battery guarantee.
	if e.drainFree > entry.AllocCycle {
		e.gapHist.Add(e.drainFree - entry.AllocCycle)
	}
	e.spb.Recycle(entry)
	return nil
}

// reapDrains frees SecPB slots whose drains completed by cycle t.
func (e *Engine) reapDrains(t uint64) {
	i := 0
	for i < len(e.inflight) && e.inflight[i] <= t {
		i++
	}
	if i > 0 {
		e.inflight = e.inflight[i:]
		e.virtualOcc -= i
	}
}
