package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"secpb/internal/config"
	"secpb/internal/crashsim"
	"secpb/internal/engine"
	"secpb/internal/harness"
	"secpb/internal/runner"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Workload sizes. Each takes about two seconds per pass on a 2-CPU
// host; every modelled cache starts empty in every cell.
const (
	table4Ops        = 100_000
	multicoreOps     = 20_000 // per core
	crashOps         = 4_000
	crashPoints      = 300
	crashPointsTotal = 6 * 2 * crashPoints
)

var (
	// multicoreCores leaves out 256 cores, which alone takes longer
	// than the rest of the grid.
	multicoreCores = []int{1, 8, 64}
	crashWorkloads = []string{"gcc", "kvheavy"}
)

// paperBand is one scheme's Table IV slowdown in the paper and the
// band the reproduction keeps it in (the calibration test's bands).
type paperBand struct {
	scheme       config.Scheme
	paper        float64
	lower, upper float64
}

var table4Bands = []paperBand{
	{config.SchemeCOBCM, 1.013, 1.00, 1.10},
	{config.SchemeOBCM, 1.015, 1.00, 1.12},
	{config.SchemeBCM, 1.148, 1.02, 1.25},
	{config.SchemeCM, 1.713, 1.40, 2.10},
	{config.SchemeM, 1.738, 1.42, 2.15},
	{config.SchemeNoGap, 2.184, 1.80, 2.90},
}

// checkTable4 checks a Table IV grid against the paper's bands and
// returns the largest relative error of a scheme geomean against the
// paper, in percent.
func checkTable4(g *harness.SlowdownGrid) (errPct float64, err error) {
	for _, b := range table4Bands {
		got := g.Mean[b.scheme]
		errPct = math.Max(errPct, math.Abs(got-b.paper)/b.paper*100)
		if got < b.lower || got > b.upper {
			return errPct, fmt.Errorf("table4: %v geomean %.3f outside [%.2f, %.2f]", b.scheme, got, b.lower, b.upper)
		}
	}
	return errPct, nil
}

// table4Cell is one (profile, scheme) cell of the Table IV grid, in
// the harness's order: per profile the BBB baseline, then each SecPB
// scheme.
type table4Cell struct {
	cfg  config.Config
	prof workload.Profile
}

type table4Bench struct {
	base  config.Config
	cells []table4Cell
}

func (b *table4Bench) prepare(e *env) error {
	b.base = config.Default()
	b.base.Seed = e.cfgSeed
	for _, p := range workload.Profiles() {
		b.cells = append(b.cells, table4Cell{b.base.WithScheme(config.SchemeBBB), p})
		for _, s := range config.SecPBSchemes() {
			b.cells = append(b.cells, table4Cell{b.base.WithScheme(s), p})
		}
	}
	return nil
}

func (b *table4Bench) options(e *env, memo *harness.CellMemo) harness.Options {
	o := harness.DefaultOptions()
	o.Ops = table4Ops
	o.Cfg = b.base
	o.Parallelism = e.workers
	o.Ctx = e.ctx
	o.Memo = memo
	return o
}

// setup opens the cell memo over a fresh (cold) disk store and builds
// the first cell's engine and generator: the point at which the
// program can take its first op.
func (b *table4Bench) setup(e *env) (*harness.CellMemo, *harness.DiskCellStore, time.Duration, error) {
	dir, err := e.freshDir("cells")
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	memo := harness.NewCellMemo()
	store, err := harness.NewDiskCellStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	memo.SetStore(store)
	c := b.cells[0]
	if _, err := engine.New(c.cfg, c.prof, engine.ExperimentKey); err != nil {
		return nil, nil, 0, err
	}
	if _, err := workload.NewGenerator(c.prof, c.cfg.Seed, table4Ops); err != nil {
		return nil, nil, 0, err
	}
	return memo, store, time.Since(t0), nil
}

func (b *table4Bench) setupOnly(e *env) (time.Duration, error) {
	_, _, d, err := b.setup(e)
	return d, err
}

func (b *table4Bench) pass(e *env) (passResult, error) {
	memo, store, setup, err := b.setup(e)
	if err != nil {
		return passResult{}, err
	}
	o := b.options(e, memo)
	var grid *harness.SlowdownGrid
	p := passResult{Setup: setup, Attempted: len(b.cells), Detail: map[string]float64{}}
	sp := e.rec.Begin("harness.Table4", 0, 0)
	err = e.measured(&p, func() (err error) {
		grid, _, err = harness.Table4(o)
		return err
	})
	e.rec.End(sp)
	if err != nil {
		p.Failed = len(b.cells)
		return p, err
	}
	p.SimOps = uint64(len(b.cells)) * table4Ops
	js, err := json.Marshal(grid)
	if err != nil {
		return p, err
	}
	p.Digest = sha256Hex(js)
	errPct, err := checkTable4(grid)
	p.Detail["model_err_pct"] = errPct
	p.Attempted++
	if err != nil {
		p.Failed++
		return p, err
	}
	if e.rec == nil {
		return p, nil
	}
	return p, b.traced(e, o, store, &p)
}

// traced runs table4's traced-only phases: a warm replay of the grid
// from the disk store the pass filled, and a replay of every cell
// through the engine's public stepping API, checked cell for cell
// against engine.RunBenchmark.
func (b *table4Bench) traced(e *env, o harness.Options, store *harness.DiskCellStore, p *passResult) error {
	L := map[string]float64{}
	p.Layer = L
	hits, misses := o.Memo.Stats()
	storeHits, _ := o.Memo.StoreStats()

	warm := harness.NewCellMemo()
	warm.SetStore(store)
	o.Memo = warm
	sp := e.rec.Begin("harness.Table4.warm", 0, 0)
	grid, _, err := harness.Table4(o)
	L["harness.warm_replay_s"] = e.rec.End(sp).Seconds()
	if err != nil {
		return err
	}
	js, err := json.Marshal(grid)
	if err != nil {
		return err
	}
	p.Attempted++
	if sha256Hex(js) != p.Digest {
		p.Failed++
		return fmt.Errorf("table4: warm replay digest differs from the cold pass")
	}
	wHits, wMisses := warm.Stats()
	wStoreHits, _ := warm.StoreStats()
	ds := store.Stats()
	L["harness.memo_hits"] = float64(hits + storeHits + wHits + wStoreHits)
	L["harness.memo_misses"] = float64(misses + wMisses - storeHits - wStoreHits)
	L["harness.disk_saves"] = float64(ds.Saves)

	// Cells run concurrently; each adds its counts under mu as it ends,
	// so no finished engine is held.
	var (
		mu     sync.Mutex
		counts simCounts
	)
	matches, err := runner.Map(e.ctx, e.workers, b.cells, func(_ context.Context, i int, c table4Cell) (bool, error) {
		r, err := replayCell(e.rec, uint64(i+1), c.cfg, c.prof)
		if err != nil {
			return false, err
		}
		mu.Lock()
		defer mu.Unlock()
		if r.eng.Kernelized() {
			counts.kernelized++
		}
		counts.add(r.eng, r.res)
		counts.otpInstalled += r.otpInstalled
		counts.otpHits += r.otpHits
		counts.step += r.step
		counts.ops += table4Ops
		return r.match, nil
	})
	if err != nil {
		return err
	}
	for _, match := range matches {
		p.Attempted++
		if !match {
			p.Failed++
		}
	}
	if p.Failed > 0 {
		return fmt.Errorf("table4: %d replayed cells differ from engine.RunBenchmark", p.Failed)
	}
	counts.fill(L)
	return nil
}

// cellReplay is one cell replayed through the public stepping API.
type cellReplay struct {
	eng                   *engine.Engine
	res                   engine.Result
	match                 bool
	step                  time.Duration // in Engine.StepBatch
	otpInstalled, otpHits uint64
}

// replayCell simulates one cell three ways and checks they agree:
// through stepEngine over a generator; through Engine.Run over a fresh
// generator (the batched path with the OTP prefetcher, whose counts
// only that path has); and through engine.RunBenchmark, the reference.
func replayCell(rec *Recorder, group uint64, cfg config.Config, prof workload.Profile) (cellReplay, error) {
	var out cellReplay
	root := rec.Begin("cell", 0, group)
	defer rec.End(root)
	span := func(name string, fn func() error) error {
		s := rec.Begin(name, root.ID(), group)
		err := fn()
		rec.End(s)
		return err
	}
	var gen *workload.Generator
	if err := span("workload.NewGenerator", func() (err error) {
		gen, err = workload.NewGenerator(prof, cfg.Seed, table4Ops)
		return err
	}); err != nil {
		return out, err
	}
	var err error
	if out.eng, out.res, out.step, err = stepEngine(rec, root.ID(), group, cfg, prof, gen, "workload.NextBatch", nil); err != nil {
		return out, err
	}

	var batched engine.Result
	if err := span("engine.Run", func() error {
		eng, err := engine.New(cfg, prof, engine.ExperimentKey)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(prof, cfg.Seed, table4Ops)
		if err != nil {
			return err
		}
		if err := eng.Run(gen); err != nil {
			return err
		}
		batched = eng.Collect()
		out.otpInstalled, out.otpHits = eng.Controller().OTPPrefetchStats()
		return nil
	}); err != nil {
		return out, err
	}
	var ref engine.Result
	if err := span("engine.RunBenchmark", func() (err error) {
		ref, err = engine.RunBenchmark(cfg, prof, table4Ops)
		return err
	}); err != nil {
		return out, err
	}
	out.match = reflect.DeepEqual(out.res, ref) && reflect.DeepEqual(batched, ref)
	return out, nil
}

type multicoreBench struct {
	base config.Config
	prof workload.Profile
}

func (b *multicoreBench) prepare(e *env) error {
	b.base = config.Default()
	b.base.Seed = e.cfgSeed
	b.prof = workload.Profiles()[0] // the profile MulticoreBattery runs
	return nil
}

// setup opens the battery memo and builds the first cell's system.
func (b *multicoreBench) setup() (*harness.BatteryMemo, time.Duration, error) {
	t0 := time.Now()
	memo := harness.NewBatteryMemo()
	cfg := b.base.WithScheme(config.SecPBSchemes()[0]).WithCores(multicoreCores[0])
	if _, err := engine.NewSystem(cfg, b.prof, engine.ExperimentKey, multicoreOps); err != nil {
		return nil, 0, err
	}
	return memo, time.Since(t0), nil
}

func (b *multicoreBench) setupOnly(*env) (time.Duration, error) {
	_, d, err := b.setup()
	return d, err
}

func (b *multicoreBench) pass(e *env) (passResult, error) {
	memo, setup, err := b.setup()
	if err != nil {
		return passResult{}, err
	}
	o := harness.DefaultOptions()
	o.Ops = multicoreOps
	o.Cfg = b.base
	o.Parallelism = e.workers
	o.Ctx = e.ctx
	o.Battery = memo
	var grid *harness.BatteryGrid
	cells := len(config.SecPBSchemes()) * len(multicoreCores)
	p := passResult{Setup: setup, Attempted: cells}
	sp := e.rec.Begin("harness.MulticoreBattery", 0, 0)
	err = e.measured(&p, func() (err error) {
		grid, _, err = harness.MulticoreBattery(o, multicoreCores)
		return err
	})
	e.rec.End(sp)
	if err != nil {
		p.Failed = cells
		return p, err
	}
	var buf bytes.Buffer
	if err := grid.WriteJSON(&buf); err != nil {
		return p, err
	}
	p.Digest = sha256Hex(buf.Bytes())
	for _, c := range grid.Cells {
		p.SimOps += uint64(c.Cores) * multicoreOps
	}
	if len(grid.Cells) != cells {
		p.Failed = cells
		return p, fmt.Errorf("multicore: %d cells, want %d", len(grid.Cells), cells)
	}
	if e.rec == nil {
		return p, nil
	}
	return p, b.traced(e, grid, &p)
}

// traced re-simulates every battery cell with a span around each call:
// each core's stream generated up front through Generator.NextBatch,
// then engine.NewSystemSources, System.Run and Collect. Each cell must
// reproduce the grid's figures for it.
func (b *multicoreBench) traced(e *env, grid *harness.BatteryGrid, p *passResult) error {
	type mcCell struct {
		cell harness.BatteryCell
		cfg  config.Config
	}
	var jobs []mcCell
	for _, s := range config.SecPBSchemes() {
		for _, n := range multicoreCores {
			jobs = append(jobs, mcCell{grid.Cells[len(jobs)], b.base.WithScheme(s).WithCores(n)})
		}
	}
	// Cells run concurrently; each adds its counts under mu as it ends,
	// so no finished system is held.
	var (
		mu     sync.Mutex
		counts simCounts
	)
	out, err := runner.Map(e.ctx, e.workers, jobs, func(_ context.Context, i int, j mcCell) (engine.MCResult, error) {
		group := uint64(i + 1)
		root := e.rec.Begin("cell", 0, group)
		defer e.rec.End(root)
		srcs := make([]trace.Source, j.cfg.EffectiveCores())
		batch := trace.NewBatch(trace.DefaultBatchCap)
		for c := range srcs {
			gen, err := workload.NewGenerator(b.prof, engine.CoreSeed(j.cfg.Seed, c), multicoreOps)
			if err != nil {
				return engine.MCResult{}, err
			}
			ops := make([]trace.Op, 0, multicoreOps)
			for {
				s := e.rec.Begin("workload.NextBatch", root.ID(), group)
				more := gen.NextBatch(batch)
				e.rec.End(s)
				if !more {
					break
				}
				for k := range batch.Len() {
					ops = append(ops, batch.Op(k))
				}
			}
			srcs[c] = trace.NewSliceSource(ops)
		}
		s := e.rec.Begin("engine.NewSystem", root.ID(), group)
		sys, err := engine.NewSystemSources(j.cfg, b.prof, engine.ExperimentKey, srcs)
		e.rec.End(s)
		if err != nil {
			return engine.MCResult{}, err
		}
		s = e.rec.Begin("engine.System.Run", root.ID(), group)
		err = sys.Run()
		step := e.rec.End(s)
		if err != nil {
			return engine.MCResult{}, err
		}
		s = e.rec.Begin("engine.System.Collect", root.ID(), group)
		res := sys.Collect()
		e.rec.End(s)

		mu.Lock()
		defer mu.Unlock()
		if sys.Core(0).Kernelized() {
			counts.kernelized++
		}
		for c := range res.PerCore {
			counts.add(sys.Core(c), res.PerCore[c])
		}
		counts.controller(sys.Shared().Controller())
		counts.ops += uint64(res.Cores) * multicoreOps
		counts.step += step
		res.PerCore = nil
		return res, nil
	})
	if err != nil {
		return err
	}
	var mig, flush uint64
	for i, r := range out {
		want := jobs[i].cell
		p.Attempted++
		if want.Scheme != r.Scheme.String() || want.Cores != r.Cores || want.AggIPC != r.AggIPC ||
			want.PeakEntries != r.PeakOccupancy || want.Migrations != r.Migrations || want.ReadFlushes != r.ReadFlushes {
			p.Failed++
			return fmt.Errorf("multicore: replayed %s x%d differs from the battery grid's cell", r.Scheme, r.Cores)
		}
		mig += r.Migrations
		flush += r.ReadFlushes
	}
	p.Layer = map[string]float64{"coherence.migrations": float64(mig), "coherence.read_flushes": float64(flush)}
	counts.fill(p.Layer)
	return nil
}

type crashBench struct {
	opts crashsim.Options
}

func (b *crashBench) prepare(e *env) error {
	b.opts = crashsim.Options{
		Schemes:   config.SecPBSchemes(),
		Workloads: crashWorkloads,
		Ops:       crashOps,
		Seed:      e.cfgSeed,
		Points:    crashPoints,
		Workers:   e.workers,
	}
	return nil
}

// setup generates the first cell's trace and builds its engine, the
// work a cell does before its first op.
func (b *crashBench) setup() (time.Duration, error) {
	t0 := time.Now()
	prof, err := workload.ByName(b.opts.Workloads[0])
	if err != nil {
		return 0, err
	}
	if _, err := workload.Generate(prof, b.opts.Seed, b.opts.Ops); err != nil {
		return 0, err
	}
	cfg := config.Default().WithScheme(b.opts.Schemes[0])
	cfg.Seed = b.opts.Seed
	if _, err := engine.New(cfg, prof, engine.ExperimentKey); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (b *crashBench) setupOnly(*env) (time.Duration, error) { return b.setup() }

// checkMatrix checks that a crash matrix recovered every injected
// point and injected the points it was asked for.
func checkMatrix(m *crashsim.Matrix, wantPoints int) error {
	injected, failures := 0, 0
	for _, c := range m.Cells {
		injected += c.Injected
		failures += c.Failures
	}
	if !m.Clean() || injected != wantPoints {
		return fmt.Errorf("crash: %d failures, %d points injected, want a clean matrix of %d", failures, injected, wantPoints)
	}
	return nil
}

func matrixDigest(m *crashsim.Matrix) (string, error) {
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return "", err
	}
	return sha256Hex(buf.Bytes()), nil
}

func (b *crashBench) pass(e *env) (passResult, error) {
	setup, err := b.setup()
	if err != nil {
		return passResult{}, err
	}
	var m *crashsim.Matrix
	p := passResult{Setup: setup, Attempted: crashPointsTotal}
	sp := e.rec.Begin("crashsim.Explore", 0, 0)
	err = e.measured(&p, func() (err error) {
		m, err = crashsim.Explore(e.ctx, b.opts)
		return err
	})
	e.rec.End(sp)
	if err != nil {
		p.Failed = crashPointsTotal
		return p, err
	}
	injected, failures := 0, 0
	for _, c := range m.Cells {
		injected += c.Injected
		failures += c.Failures
		p.SimOps += 2 * uint64(c.Ops) // the counting run and the injecting run
	}
	p.Attempted, p.Failed = injected, failures
	if p.Digest, err = matrixDigest(m); err != nil {
		return p, err
	}
	p.Detail = map[string]float64{"crash_points_per_s": float64(injected) / p.Wall.Seconds()}
	if err := checkMatrix(m, crashPointsTotal); err != nil {
		return p, err
	}
	if e.rec == nil {
		return p, nil
	}
	return p, b.traced(e, m, &p)
}

// traced re-runs every cell through crashsim.RunCell with a span per
// cell, and checks the reassembled matrix equals Explore's. It then
// replays each cell's trace once more through stepEngine, on the path
// crashsim runs (a crash sink installed: no kernels, no OTP prefetch),
// for the engine's times and the simulated counts; the replay must
// pass as many crash points as the cell counted.
func (b *crashBench) traced(e *env, m *crashsim.Matrix, p *passResult) error {
	type cellKey struct {
		scheme config.Scheme
		wl     string
	}
	var keys []cellKey
	for _, s := range b.opts.Schemes {
		for _, w := range b.opts.Workloads {
			keys = append(keys, cellKey{s, w})
		}
	}
	durs := make([]float64, len(keys))
	cells, err := runner.Map(e.ctx, e.workers, keys, func(_ context.Context, i int, k cellKey) (crashsim.CellResult, error) {
		sp := e.rec.Begin("crashsim.RunCell", 0, uint64(i+1))
		c, err := crashsim.RunCell(k.scheme, k.wl, b.opts)
		durs[i] = e.rec.End(sp).Seconds()
		return c, err
	})
	if err != nil {
		return err
	}
	again := &crashsim.Matrix{Ops: m.Ops, Seed: m.Seed, Points: m.Points, Cells: cells}
	d, err := matrixDigest(again)
	if err != nil {
		return err
	}
	p.Attempted++
	if d != p.Digest {
		p.Failed++
		return fmt.Errorf("crash: per-cell matrix digest %s differs from Explore's %s", d, p.Digest)
	}

	var (
		mu     sync.Mutex
		counts simCounts
	)
	points, err := runner.Map(e.ctx, e.workers, keys, func(_ context.Context, i int, k cellKey) (uint64, error) {
		group := uint64(len(keys) + i + 1)
		root := e.rec.Begin("cell", 0, group)
		defer e.rec.End(root)
		prof, err := workload.ByName(k.wl)
		if err != nil {
			return 0, err
		}
		seed := crashCellSeed(b.opts.Seed, k.scheme, k.wl)
		cfg := config.Default().WithScheme(k.scheme)
		cfg.Seed = seed
		gen, err := workload.NewGenerator(prof, seed, crashOps)
		if err != nil {
			return 0, err
		}
		var pc pointCounter
		eng, res, step, err := stepEngine(e.rec, root.ID(), group, cfg, prof, gen, "workload.NextBatch",
			func(eng *engine.Engine) { eng.SetCrashSink(&pc) })
		if err != nil {
			return 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		counts.add(eng, res)
		counts.ops += crashOps
		counts.step += step
		return pc.n, nil
	})
	if err != nil {
		return err
	}
	for i, n := range points {
		p.Attempted++
		if n != cells[i].TotalPoints {
			p.Failed++
			return fmt.Errorf("crash: %s/%s replay passed %d crash points, the cell counted %d", cells[i].Scheme, cells[i].Workload, n, cells[i].TotalPoints)
		}
	}

	var drained, checked, injected int
	for _, c := range m.Cells {
		drained += c.Drained
		checked += c.Checked
		injected += c.Injected
	}
	p.Layer = map[string]float64{
		"recovery.entries_drained": float64(drained),
		"recovery.blocks_checked":  float64(checked),
		"crashsim.points_injected": float64(injected),
		"crashsim.cell_p50_s":      median(durs),
	}
	counts.fill(p.Layer)
	return nil
}
