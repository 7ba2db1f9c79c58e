package main

import (
	"time"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// The traced passes of every workload re-simulate the workload's op
// streams through the engine's public API, outside the measured phase,
// to time the engine from outside and to read the simulated counts the
// workload's own entry point does not return.

// stepEngine simulates one op stream through the engine's public
// stepping API with a span under parent around each call: engine.New,
// the source's NextBatch (named next), Engine.StepBatch, Finish and
// Collect. pin, when non-nil, configures the engine before its first
// op. It returns the engine, its result and the time spent stepping.
func stepEngine(rec *Recorder, parent, group uint64, cfg config.Config, prof workload.Profile,
	src trace.BatchSource, next string, pin func(*engine.Engine)) (*engine.Engine, engine.Result, time.Duration, error) {
	var step time.Duration
	s := rec.Begin("engine.New", parent, group)
	eng, err := engine.New(cfg, prof, engine.ExperimentKey)
	rec.End(s)
	if err != nil {
		return nil, engine.Result{}, 0, err
	}
	if pin != nil {
		pin(eng)
	}
	batch := trace.NewBatch(trace.DefaultBatchCap)
	for {
		s = rec.Begin(next, parent, group)
		more := src.NextBatch(batch)
		rec.End(s)
		if !more {
			break
		}
		s = rec.Begin("engine.StepBatch", parent, group)
		err := eng.StepBatch(batch)
		step += rec.End(s)
		if err != nil {
			return eng, engine.Result{}, step, err
		}
	}
	s = rec.Begin("engine.Finish", parent, group)
	err = eng.Finish()
	rec.End(s)
	if err != nil {
		return eng, engine.Result{}, step, err
	}
	s = rec.Begin("engine.Collect", parent, group)
	res := eng.Collect()
	rec.End(s)
	return eng, res, step, nil
}

// simCounts sums, over the engines a traced pass replayed, the
// simulated counts of their results and accessors and the host time
// spent stepping them.
type simCounts struct {
	engines, pbEngines, kernelized int
	l1, llc, nwpe                  float64
	peak                           int
	alloc, bp, pmR, pmW, reenc     uint64
	wpqFull, bmtUpdates, bmtHashes uint64
	otpInstalled, otpHits          uint64
	ops                            uint64
	step                           time.Duration
}

// add counts one engine's result and its memory controller.
func (c *simCounts) add(eng *engine.Engine, r engine.Result) {
	c.engines++
	c.l1 += r.L1Hit
	c.llc += r.LLCHit
	if r.EntriesAllocated > 0 {
		c.pbEngines++
		c.nwpe += r.NWPE
	}
	c.alloc += r.EntriesAllocated
	c.peak = max(c.peak, r.PeakOccupancy)
	c.bp += r.Backpressure
	c.pmR += r.PMReads
	c.pmW += r.PMWrites
	c.reenc += r.Reencryptions
	c.controller(eng.Controller())
}

// controller counts a memory controller's write-queue stalls and its
// integrity tree's updates.
func (c *simCounts) controller(mc *nvm.Controller) {
	_, _, _, full := mc.WPQStats()
	c.wpqFull += full
	if t := mc.Tree(); t != nil {
		c.bmtUpdates += t.Updates()
		c.bmtHashes += t.PhysicalHashes()
	}
}

// fill writes the counts into a pass's layer figures. Hit rates and
// NWPE are means over the engines; the rest are sums.
func (c *simCounts) fill(L map[string]float64) {
	n := float64(max(c.engines, 1))
	L["engine.kernelized_cells"] = float64(c.kernelized)
	L["engine.otp_prefetch_hit_frac"] = ratio(float64(c.otpHits), float64(c.otpInstalled))
	L["engine.ns_per_op"] = ratio(float64(c.step.Nanoseconds()), float64(c.ops))
	L["mem.l1_hit"] = c.l1 / n
	L["mem.llc_hit"] = c.llc / n
	L["pb.entries_allocated"] = float64(c.alloc)
	L["pb.nwpe"] = ratio(c.nwpe, float64(c.pbEngines))
	L["pb.peak_occupancy"] = float64(c.peak)
	L["pb.backpressure_cycles"] = float64(c.bp)
	L["nvm.pm_reads"] = float64(c.pmR)
	L["nvm.pm_writes"] = float64(c.pmW)
	L["nvm.wpq_full_hits"] = float64(c.wpqFull)
	L["nvm.reencryptions"] = float64(c.reenc)
	L["bmt.logical_updates"] = float64(c.bmtUpdates)
	L["bmt.physical_hashes"] = float64(c.bmtHashes)
	L["bmt.hashes_per_update"] = ratio(float64(c.bmtHashes), float64(c.bmtUpdates))
}

// pointCounter is a crash sink that counts the crash points a run
// passes. Installing any sink switches the engine to the path crashsim
// runs: no step kernels, no OTP prefetch.
type pointCounter struct{ n uint64 }

func (c *pointCounter) CrashPoint(crashpoint.Kind, addr.Block) { c.n++ }

// crashCellSeed is the seed crashsim derives for one cell's trace and
// configuration from the matrix seed. The crash replay checks it: a
// replay whose crash-point count differs from the cell's TotalPoints
// ran another trace.
func crashCellSeed(base uint64, scheme config.Scheme, wl string) uint64 {
	h := base ^ 0x9E3779B97F4A7C15
	for _, s := range []string{scheme.String(), "/", wl} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
