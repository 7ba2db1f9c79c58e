package main

import (
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// runtime/metrics names the traced run reads.
const (
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mAllocs    = "/gc/heap/allocs:bytes"
	mHeapLive  = "/memory/classes/heap/objects:bytes"
	heapSample = 2 * time.Millisecond
)

// profiler records a CPU profile of the benchmark process and runtime
// metrics over each measured phase of a traced run, accumulating them
// across passes.
type profiler struct {
	path string
	file *os.File
	base []metrics.Sample

	folded   foldResult
	gcCycles uint64
	gcCPU    float64
	allocs   uint64
	peakHeap uint64

	stopHeap chan struct{}
	heapDone sync.WaitGroup
}

func readMetrics() []metrics.Sample {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllocs}}
	metrics.Read(s)
	return s
}

// start begins profiling one measured phase into the file at path.
func (p *profiler) start(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.path, p.file = path, f
	p.base = readMetrics()
	p.stopHeap = make(chan struct{})
	p.heapDone.Add(1)
	go p.sampleHeap()
	return nil
}

// sampleHeap tracks the live heap's high-water mark until stopped;
// stop reads peakHeap only after the sampler has exited.
func (p *profiler) sampleHeap() {
	defer p.heapDone.Done()
	t := time.NewTicker(heapSample)
	defer t.Stop()
	s := []metrics.Sample{{Name: mHeapLive}}
	for {
		metrics.Read(s)
		p.peakHeap = max(p.peakHeap, s[0].Value.Uint64())
		select {
		case <-p.stopHeap:
			return
		case <-t.C:
		}
	}
}

// stop ends the phase's profile and folds it into the totals.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	now := readMetrics()
	cerr := p.file.Close()
	close(p.stopHeap)
	p.heapDone.Wait()
	p.gcCycles += now[0].Value.Uint64() - p.base[0].Value.Uint64()
	p.gcCPU += now[1].Value.Float64() - p.base[1].Value.Float64()
	p.allocs += now[2].Value.Uint64() - p.base[2].Value.Uint64()
	if cerr != nil {
		return cerr
	}
	samples, err := parseCPUProfile(p.path)
	if err != nil {
		return err
	}
	p.folded.add(fold(samples))
	return nil
}
