package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine and build a result came from, so
// two results are only compared when they share it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// commitEnv carries the commit id from the launcher; a checkout that
// is not a git repository reports "unknown".
const commitEnv = "PERFBENCH_COMMIT"

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     os.Getenv(commitEnv),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU returns the user plus system CPU time the process has
// used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssEvery is how often a measured phase samples its resident set.
const rssEvery = 10 * time.Millisecond

// currentRSS returns the process's resident set in bytes from
// /proc/self/statm, or 0 when it is unavailable.
func currentRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// sampleRSS samples the resident set until stop is closed and sends
// every sample, in bytes, on the returned channel.
func sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var xs []float64
		for {
			xs = append(xs, float64(currentRSS()))
			select {
			case <-stop:
				out <- append(xs, float64(currentRSS()))
				return
			case <-t.C:
			}
		}
	}()
	return out
}
